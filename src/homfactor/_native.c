/* The C half of homfactor.solver and of homfactor.algebra's table checks,
 * one CPython extension module built on first import by homfactor._native.
 * It holds five functions:
 *
 * root(nb, ops, d): root arc consistency for homomorphisms A -> B over
 * operation tables, behind homfactor.solver._consistent_domains;
 * engine(pairs, side, domains, lexicographic): the search engine, an
 * Engine that compiles its (source, target) pairs' tables into buffers of
 * its own and whose state (domains, trail, queue and branching frames)
 * lives in buffers of its own too: propagation to a fixpoint, branching,
 * and the root, search, first_without and settle calls of
 * homfactor.solver._Engine;
 * hom(values, nb, ops), outside(table, n) and restrict(n, subset, ops):
 * is_homomorphism, validate_algebra's value test and induced_subalgebra's
 * restriction, in homfactor.algebra.
 *
 * All of them read the operation tables one way, through table_hold and
 * in_carrier (tables_read for (A, B) pairs): the algebras' own flat int64
 * tables (row-major, n**k entries for arity k), read in place and checked
 * once, so that nothing past them is read whatever they hold; outside
 * checks the values of a table of any length.
 *
 * Root arc consistency.
 *
 * A domain is a row of w = ceil(|B| / 64) uint64 words: value y is bit
 * y % 64 of word y / 64. Row x of d is the domain of element x of A.
 *
 * root_pass applies the diagonal rule once, then sweeps the unary and binary
 * operations in order until a sweep changes nothing or leaves a domain
 * empty. Each revision reads the domains as they were when it started
 * (src): a unary one keeps the supported values, then the images of what
 * is left; a binary one keeps the values supported at both positions,
 * then the images. The empty and unchanged tests come after each full
 * sweep, so a wipeout is counted where the sweep ends.
 *
 * A binary revision checks supports bit-parallel: for each domain D(e) of
 * the other argument, rows[u] = op_B(u, D(e)), and u is supported towards
 * the result o iff rows[u] meets D(o). Elements with equal domains are
 * grouped, so rows are made once per distinct domain, and the mask of the
 * supported u once per distinct domain and result; the image likewise
 * takes each group of equal domains of the second argument at once.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

#if PY_BIG_ENDIAN
#error "the domain words are little-endian uint64 (solver._words), read as native words"
#endif

typedef uint64_t word;

/* each value i of the w-word row s, lowest first; break leaves one word */
#define FOR_EACH(i, s, w)                                                    \
    for (int64_t k_##i = 0; k_##i < (w); k_##i++)                            \
        for (word m_##i = (s)[k_##i], i = 0;                                 \
             m_##i && (i = 64 * k_##i + __builtin_ctzll(m_##i), 1);          \
             m_##i &= m_##i - 1)

static inline int has(const word *s, int64_t i) { return s[i >> 6] >> (i & 63) & 1; }

static inline void put(word *s, int64_t i) { s[i >> 6] |= (word)1 << (i & 63); }

static inline void drop(word *s, int64_t i) { s[i >> 6] &= ~((word)1 << (i & 63)); }

static inline void meet(word *t, const word *s, int64_t w)
{
    for (int64_t k = 0; k < w; k++)
        t[k] &= s[k];
}

static inline int meets(const word *s, const word *t, int64_t w)
{
    for (int64_t k = 0; k < w; k++)
        if (s[k] & t[k])
            return 1;
    return 0;
}

static inline int empty(const word *s, int64_t w) { return !meets(s, s, w); }

static inline int same(const word *s, const word *t, int64_t w)
{
    for (int64_t k = 0; k < w; k++)
        if (s[k] != t[k])
            return 0;
    return 1;
}

static inline int within(const word *s, const word *t, int64_t w)
{
    for (int64_t k = 0; k < w; k++)
        if (s[k] & ~t[k])
            return 0;
    return 1;
}

static int64_t count(const word *s, int64_t n)
{
    int64_t c = 0;
    for (int64_t k = 0; k < n; k++)
        c += __builtin_popcountll(s[k]);
    return c;
}

/* An x with op_A(x, ..., x) = x keeps only the y with op_B(y, ..., y) = y:
 * entry x * (1 + n + ... + n^(k-1)) of a table of arity k; at arity 0 the
 * constant, which keeps only the constant. */
static void diagonal(int64_t arity, const int64_t *ta, const int64_t *tb, int64_t na,
                     int64_t nb, int64_t w, word *d, word *fixed)
{
    int64_t step_a = 0, step_b = 0, pa = 1, pb = 1;
    for (int64_t i = 0; i < arity; i++) {
        step_a += pa;
        step_b += pb;
        pa *= na;
        pb *= nb;
    }
    memset(fixed, 0, w * sizeof(word));
    for (int64_t y = 0; y < nb; y++)
        if (tb[y * step_b] == y)
            put(fixed, y);
    for (int64_t x = 0; x < na; x++)
        if (ta[x * step_a] == x)
            meet(d + x * w, fixed, w);
}

/* One unary revision. Output image: D(z) keeps the values that every x
 * with ta(x) = z reaches, tb(D(x)); acc[z] gathers their intersection. */
static void unary(const int64_t *ta, const int64_t *tb, int64_t na, int64_t w, word *d,
                  word *src, word *acc, word *img)
{
    memcpy(src, d, na * w * sizeof(word));
    /* input support: y stays in D(x) iff tb(y) is in D(ta(x)) */
    for (int64_t x = 0; x < na; x++) {
        const word *to = src + ta[x] * w;
        FOR_EACH(y, src + x * w, w)
            if (!has(to, tb[y]))
                drop(d + x * w, y);
    }
    memset(acc, 0xff, na * w * sizeof(word));
    for (int64_t x = 0; x < na; x++) {
        memset(img, 0, w * sizeof(word));
        FOR_EACH(y, d + x * w, w)
            put(img, tb[y]);
        meet(acc + ta[x] * w, img, w);
    }
    meet(d, acc, na * w);
}

/* order: the n rows of s, sorted so that equal rows are neighbours (a
 * bottom-up merge sort by content), with spare as the merge buffer. */
static void group(const word *s, int64_t n, int64_t w, int64_t *order, int64_t *spare)
{
    int64_t *from = order, *to = spare;
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            const int64_t mid = lo + width < n ? lo + width : n;
            const int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                to[k++] = memcmp(s + from[j] * w, s + from[i] * w, w * sizeof(word)) < 0
                              ? from[j++] : from[i++];
            while (i < mid)
                to[k++] = from[i++];
            while (j < hi)
                to[k++] = from[j++];
        }
        int64_t *t = from;
        from = to;
        to = t;
    }
    if (from != order)
        memcpy(order, from, n * sizeof(int64_t));
}

/* Input support at one position of a binary operation (first: x is the
 * first argument, e the second; else the other way round): value u of x
 * stays iff, for every e, some v in src(e) puts op_B of the two values in
 * src(op_A of the two elements). The e come in groups of equal domains;
 * rows[u] holds u's images against the group's domain, and mask[o] the u
 * whose row meets src(o), made once per group (stamp[o]). */
static void support(int first, const int64_t *ta, const int64_t *tb, int64_t na, int64_t nb,
                    int64_t w, word *d, const word *src, word *rows, word *mask, int64_t *stamp,
                    int64_t *order, int64_t *spare)
{
    const int64_t xs = first ? na : 1, es = first ? 1 : na; /* ta index x*xs + e*es */
    const int64_t us = first ? nb : 1, vs = first ? 1 : nb; /* tb index u*us + v*vs */
    int64_t rows_made = -1;
    group(src, na, w, order, spare);
    for (int64_t o = 0; o < na; o++)
        stamp[o] = -1;
    for (int64_t i = 0; i < na; i++) {
        const int64_t e = order[i];
        const word *se = src + e * w;
        if (i == 0 || memcmp(se, src + order[i - 1] * w, w * sizeof(word))) {
            memset(rows, 0, nb * w * sizeof(word));
            FOR_EACH(v, se, w)
                for (int64_t u = 0; u < nb; u++)
                    put(rows + u * w, tb[u * us + v * vs]);
            rows_made++;
        }
        for (int64_t x = 0; x < na; x++) {
            const int64_t o = ta[x * xs + e * es];
            word *mo = mask + o * w;
            if (stamp[o] != rows_made) {
                stamp[o] = rows_made;
                memset(mo, 0, w * sizeof(word));
                for (int64_t u = 0; u < nb; u++)
                    if (meets(rows + u * w, src + o * w, w))
                        put(mo, u);
            }
            meet(d + x * w, mo, w);
        }
    }
}

static void binary(const int64_t *ta, const int64_t *tb, int64_t na, int64_t nb, int64_t w,
                   word *d, word *src, word *acc, word *rows, word *mask, word *tmp,
                   int64_t *stamp, int64_t *order, int64_t *spare)
{
    memcpy(src, d, na * w * sizeof(word));
    support(1, ta, tb, na, nb, w, d, src, rows, mask, stamp, order, spare);
    support(0, ta, tb, na, nb, w, d, src, rows, mask, stamp, order, spare);
    /* output image, over the x2 in groups of equal domains: reach =
     * op_B(D(x1) x D(x2)), built from rows[u] = op_B(u, D(x2)) until it
     * covers what the results of the group's tuples still need */
    word *need = tmp, *reach = tmp + w;
    memset(acc, 0xff, na * w * sizeof(word));
    group(d, na, w, order, spare);
    for (int64_t i = 0, j; i < na; i = j) {
        const word *s2 = d + order[i] * w;
        for (j = i + 1; j < na && !memcmp(d + order[j] * w, s2, w * sizeof(word)); j++)
            ;
        memset(rows, 0, nb * w * sizeof(word));
        FOR_EACH(v, s2, w)
            for (int64_t u = 0; u < nb; u++)
                put(rows + u * w, tb[u * nb + v]);
        for (int64_t x1 = 0; x1 < na; x1++) {
            const int64_t *out = ta + x1 * na;
            word any = 0;
            memset(need, 0, w * sizeof(word));
            for (int64_t g = i; g < j; g++)
                for (int64_t k = 0; k < w; k++)
                    any |= need[k] |= acc[out[order[g]] * w + k] & d[out[order[g]] * w + k];
            if (!any)
                continue;
            memset(reach, 0, w * sizeof(word));
            FOR_EACH(u, d + x1 * w, w) {
                for (int64_t k = 0; k < w; k++)
                    reach[k] |= rows[u * w + k];
                if (within(need, reach, w))
                    goto covered;
            }
            for (int64_t g = i; g < j; g++)
                meet(acc + out[order[g]] * w, reach, w);
        covered:;
        }
    }
    meet(d, acc, na * w);
}

/* b holds items of size bytes whose struct code is in codes ('i' int32,
 * "lq" int64, "LQ" uint64) */
static int of_type(const Py_buffer *b, int size, const char *codes)
{
    const char *f = b->format ? b->format : "";
    if (*f == '@' || *f == '=' || *f == '<')
        f++;
    return b->itemsize == size && *f && strchr(codes, *f) && !f[1];
}

/* One operation's tables, as tables_read holds them */
typedef struct {
    int64_t arity;
    const int64_t *a, *b; /* the tables of A and B */
} op_t;

/* The n_ops operations of one (A, B) pair, their tables held through the
 * buffer protocol until tables_release */
typedef struct {
    Py_ssize_t n_ops, held;
    op_t *ops;
    Py_buffer *bufs;
} tables_t;

static void tables_release(tables_t *t)
{
    while (t->held)
        PyBuffer_Release(&t->bufs[--t->held]);
    PyMem_Free(t->bufs);
    PyMem_Free(t->ops);
}

/* The arity in o, or -1 with an exception set when it is not an int in
 * [0, 62]: past 62, n**k overflows int64 at every n > 1. */
static int64_t arity_read(PyObject *o)
{
    const Py_ssize_t k = PyLong_AsSsize_t(o);
    if (k < 0 || k > 62) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "arity out of range");
        return -1;
    }
    return k;
}

/* Hold o's buffer in b: a flat C-contiguous int64 array of n**k entries.
 * 0, or -1 with an exception set and nothing held. */
static int table_hold(Py_buffer *b, PyObject *o, int64_t k, Py_ssize_t n)
{
    if (PyObject_GetBuffer(o, b, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
        return -1;
    Py_ssize_t need = 1; /* n**k, or past b->len once it is */
    for (int64_t j = 0; j < k && need <= b->len; j++)
        need = n && need > b->len / n ? b->len + 1 : need * n;
    if (of_type(b, 8, "lq") && b->len / 8 == need)
        return 0;
    PyBuffer_Release(b);
    PyErr_SetString(PyExc_ValueError, "the tables are flat int64 arrays of n**k entries");
    return -1;
}

/* Whether each of the len values at v lies in [0, n) */
static int in_carrier(const int64_t *v, Py_ssize_t len, int64_t n)
{
    uint64_t top = 0; /* the largest value, a negative one read as past every n */
    for (Py_ssize_t j = 0; j < len; j++)
        top = (uint64_t)v[j] > top ? (uint64_t)v[j] : top;
    return !len || top < (uint64_t)n;
}

/* Read seq, a sequence of (arity, table of A, table of B), into t: every
 * arity in [0, 62], every table a flat C-contiguous int64 array of n**k
 * values, each one in [0, n), for n = na in A's and nb in B's. 0, or -1
 * with an exception set and nothing held. */
static int tables_read(tables_t *t, PyObject *seq, Py_ssize_t na, Py_ssize_t nb)
{
    PyObject *list = PySequence_Fast(seq, "the operations are a sequence of (arity, table, table)");
    if (!list)
        return -1;
    t->n_ops = PySequence_Fast_GET_SIZE(list);
    t->held = 0;
    t->ops = PyMem_Calloc(t->n_ops + 1, sizeof(op_t));
    t->bufs = PyMem_Calloc(2 * t->n_ops + 1, sizeof(Py_buffer));
    int ok = t->ops && t->bufs;
    if (!ok)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; ok && i < t->n_ops; i++) {
        PyObject *op = PySequence_Fast_GET_ITEM(list, i);
        if (!PyTuple_Check(op) || PyTuple_GET_SIZE(op) != 3) {
            PyErr_SetString(PyExc_TypeError, "each operation is (arity, table, table)");
            ok = 0;
            break;
        }
        const int64_t k = arity_read(PyTuple_GET_ITEM(op, 0));
        ok = k >= 0;
        t->ops[i].arity = k;
        for (int side = 0; ok && side < 2; side++) {
            const Py_ssize_t n = side ? nb : na;
            Py_buffer *b = &t->bufs[t->held];
            if (table_hold(b, PyTuple_GET_ITEM(op, 1 + side), k, n)) {
                ok = 0;
                break;
            }
            t->held++;
            if (!in_carrier(b->buf, b->len / 8, n)) {
                PyErr_SetString(PyExc_ValueError, "a table value lies outside the carrier");
                ok = 0;
            }
            if (side)
                t->ops[i].b = b->buf;
            else
                t->ops[i].a = b->buf;
        }
    }
    Py_DECREF(list);
    if (!ok)
        tables_release(t);
    return ok ? 0 : -1;
}

/* Root arc consistency over the n_ops operations in ops, on the domains d
 * (na rows of w words), narrowed in place. work holds
 * (4 * na + nb + 2) * w + 3 * na words: four more rows of na domains, nb
 * rows, two single rows and three int64 per element (stamps and two
 * orders), O((|A| + |B|) * w) in all. Returns the number of (element,
 * value) pairs removed, or -1 minus that number when a domain is empty
 * after the last sweep. */
static int64_t root_pass(int64_t na, int64_t nb, int64_t n_ops, const op_t *ops, word *d,
                         word *work)
{
    const int64_t w = (nb + 63) / 64, cells = na * w;
    word *prev = work, *src = prev + cells, *acc = src + cells, *mask = acc + cells,
         *rows = mask + cells, *tmp = rows + nb * w;
    int64_t *stamp = (int64_t *)(tmp + 2 * w), *order = stamp + na, *spare = order + na;
    const int64_t before = count(d, cells);
    int alive;
    for (int64_t i = 0; i < n_ops; i++)
        diagonal(ops[i].arity, ops[i].a, ops[i].b, na, nb, w, d, tmp);
    do {
        memcpy(prev, d, cells * sizeof(word));
        for (int64_t i = 0; i < n_ops; i++) {
            if (ops[i].arity == 1)
                unary(ops[i].a, ops[i].b, na, w, d, src, acc, tmp);
            else if (ops[i].arity == 2)
                binary(ops[i].a, ops[i].b, na, nb, w, d, src, acc, rows, mask, tmp, stamp,
                       order, spare);
        }
        alive = 1; /* a row meets itself iff it is not empty */
        for (int64_t x = 0; x < na && alive; x++)
            alive = meets(d + x * w, d + x * w, w);
    } while (alive && memcmp(prev, d, cells * sizeof(word)));
    const int64_t removed = before - count(d, cells);
    return alive ? removed : -1 - removed;
}

/* root(nb, ops, d): root_pass on d, a writable C-contiguous array of
 * uint64 words (na rows of w), for ops (see tables_read). The scratch
 * comes from PyMem_Malloc, which tracemalloc sees. Returns root_pass's
 * count. */
static PyObject *py_root(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "root takes 3 arguments, not %zd", nargs);
    const Py_ssize_t nb = PyLong_AsSsize_t(args[0]), w = (nb + 63) / 64;
    if (nb < 1)
        return PyErr_Occurred() ? NULL : PyErr_Format(PyExc_ValueError, "root needs nb >= 1");
    Py_buffer dbuf;
    if (PyObject_GetBuffer(args[2], &dbuf, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
        return NULL;
    const Py_ssize_t na = dbuf.len / 8 / w;
    PyObject *out = NULL;
    tables_t t;
    if (dbuf.itemsize != 8 || (dbuf.len / 8) % w)
        PyErr_SetString(PyExc_ValueError, "root needs domains of uint64 words, w per row");
    else if (!tables_read(&t, args[1], na, nb)) {
        word *work = PyMem_Malloc(((4 * na + nb + 2) * w + 3 * na) * sizeof(word));
        if (work)
            out = PyLong_FromLongLong(root_pass(na, nb, t.n_ops, t.ops, dbuf.buf, work));
        else
            PyErr_NoMemory();
        PyMem_Free(work);
        tables_release(&t);
    }
    PyBuffer_Release(&dbuf);
    return out;
}

/* The checks of homfactor.algebra.
 *
 * hom(values, nb, ops): is_homomorphism, over the operations in ops, read
 * as tables_read reads them; outside(table, n): validate_algebra's value
 * test; restrict(n, subset, ops): induced_subalgebra's tables.
 *
 * hom and restrict walk a table of arity k >= 1 row by row: a row is the
 * entries whose argument tuples differ in the last argument only, and an
 * odometer d over the first k - 1 arguments moves from row to row. The
 * tuples they read elsewhere, at p[d[0]], ..., p[d[k-2]], p[x] for a map
 * p, lie at base + p[x] in a table of n**k entries, with base the sum of
 * p[d[j]] * n**(k-1-j); base moves with the odometer. */

/* The row count len**(k-1) and the first row's base for p over len
 * arguments into a table over n, with pw[j] = n**(k-1-j); len >= 1. */
static int64_t rows_start(int64_t k, const int64_t *p, int64_t len, int64_t n, int64_t *pw,
                          int64_t *base)
{
    int64_t rows = 1, step = n;
    *base = 0;
    for (int64_t j = k - 2; j >= 0; j--, step *= n) {
        pw[j] = step;
        *base += p[0] * step;
        rows *= len;
    }
    return rows;
}

/* The odometer's next row */
static inline void rows_next(int64_t k, int64_t *d, const int64_t *p, int64_t len,
                             const int64_t *pw, int64_t *base)
{
    for (int64_t j = k - 2; j >= 0; j--) {
        if (++d[j] < len) {
            *base += (p[d[j]] - p[d[j] - 1]) * pw[j];
            return;
        }
        *base += (p[0] - p[len - 1]) * pw[j];
        d[j] = 0;
    }
}

/* Whether v (na values in [0, nb)) sends op's table of A to its table of
 * B: v(op_A(x)) = op_B(v(x)) at every tuple x */
static int hom_op(const op_t *op, const int64_t *v, int64_t na, int64_t nb)
{
    const int64_t k = op->arity, *ta = op->a, *tb = op->b;
    if (k == 0)
        return v[ta[0]] == tb[0];
    if (na == 0)
        return 1;
    int64_t d[62] = {0}, pw[62], base;
    const int64_t rows = rows_start(k, v, na, nb, pw, &base);
    for (int64_t r = 0; r < rows; r++, ta += na) {
        for (int64_t x = 0; x < na; x++)
            if (v[ta[x]] != tb[base + v[x]])
                return 0;
        rows_next(k, d, v, na, pw, &base);
    }
    return 1;
}

/* The len ints of seq into v, each in [0, n). 0, or -1 with an exception
 * set. */
static int values_read(int64_t *v, PyObject *seq, Py_ssize_t len, int64_t n)
{
    for (Py_ssize_t j = 0; j < len; j++) {
        const long long x = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, j));
        if (x < 0 || x >= n) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "a value lies outside the carrier");
            return -1;
        }
        v[j] = x;
    }
    return 0;
}

/* hom(values, nb, ops): whether the map values, a sequence of |A| ints in
 * [0, nb), is a homomorphism for ops (see tables_read), |A| = len(values). */
static PyObject *py_hom(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "hom takes 3 arguments, not %zd", nargs);
    const Py_ssize_t nb = PyLong_AsSsize_t(args[1]);
    if (nb < 1)
        return PyErr_Occurred() ? NULL : PyErr_Format(PyExc_ValueError, "hom needs nb >= 1");
    PyObject *seq = PySequence_Fast(args[0], "hom takes a sequence of values");
    if (!seq)
        return NULL;
    const Py_ssize_t na = PySequence_Fast_GET_SIZE(seq);
    int64_t *v = PyMem_Malloc((na + 1) * sizeof(int64_t));
    PyObject *out = NULL;
    tables_t t;
    if (!v)
        PyErr_NoMemory();
    else if (!values_read(v, seq, na, nb) && !tables_read(&t, args[2], na, nb)) {
        int same = 1;
        for (Py_ssize_t i = 0; same && i < t.n_ops; i++)
            same = hom_op(t.ops + i, v, na, nb);
        tables_release(&t);
        out = PyBool_FromLong(same);
    }
    PyMem_Free(v);
    Py_DECREF(seq);
    return out;
}

/* outside(table, n): whether some entry of table, a flat C-contiguous int64
 * array of any length, lies outside [0, n). */
static PyObject *py_outside(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "outside takes 2 arguments, not %zd", nargs);
    const Py_ssize_t n = PyLong_AsSsize_t(args[1]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    Py_buffer b;
    if (PyObject_GetBuffer(args[0], &b, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
        return NULL;
    PyObject *out = NULL;
    if (!of_type(&b, 8, "lq"))
        PyErr_SetString(PyExc_ValueError, "outside takes a flat int64 array");
    else
        out = PyBool_FromLong(!in_carrier(b.buf, b.len / 8, n));
    PyBuffer_Release(&b);
    return out;
}

/* Restrict ta, a table of arity k over n elements, to the m elements at
 * elems, into out (m**k entries): the entry of a tuple of the subset is
 * at[its value], at[e] the index of e in the subset or -1. Returns -1, or
 * the index in out of the first tuple whose value lies outside the
 * subset. */
static int64_t restrict_op(int64_t k, const int64_t *ta, int64_t *out, const int64_t *at,
                           const int64_t *elems, int64_t m, int64_t n)
{
    if (k == 0)
        return (out[0] = at[ta[0]]) < 0 ? 0 : -1;
    int64_t d[62] = {0}, pw[62], base;
    const int64_t rows = rows_start(k, elems, m, n, pw, &base);
    for (int64_t r = 0; r < rows; r++, out += m) {
        for (int64_t x = 0; x < m; x++)
            if ((out[x] = at[ta[base + elems[x]]]) < 0)
                return r * m + x;
        rows_next(k, d, elems, m, pw, &base);
    }
    return -1;
}

/* restrict(n, subset, ops): the tables of an algebra over n elements
 * restricted to subset, increasing ints in [0, n), for ops, a sequence of
 * (arity, table) with each table as tables_read reads A's. Returns a list
 * of one bytes object per operation, its flat int64 table over the subset
 * (an element is its index in subset), or (i, t) at the first operation i
 * with a tuple of the subset whose value lies outside it, t the index of
 * the lexicographically first such tuple among the subset's. */
static PyObject *py_restrict(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "restrict takes 3 arguments, not %zd", nargs);
    const Py_ssize_t n = PyLong_AsSsize_t(args[0]);
    if (n < 1)
        return PyErr_Occurred() ? NULL : PyErr_Format(PyExc_ValueError, "restrict needs n >= 1");
    PyObject *seq = PySequence_Fast(args[1], "restrict takes a sequence of elements");
    if (!seq)
        return NULL;
    const Py_ssize_t m = PySequence_Fast_GET_SIZE(seq);
    PyObject *ops = PySequence_Fast(args[2], "the operations are a sequence of (arity, table)");
    PyObject *out = ops ? PyList_New(0) : NULL;
    int64_t *at = out ? PyMem_Malloc((n + m) * sizeof(int64_t)) : NULL, *elems;
    if (!at) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto fail;
    }
    elems = at + n; /* at[e]: the index of e in the subset, or -1 */
    if (m < 1 || values_read(elems, seq, m, n))
        goto bad_subset;
    for (Py_ssize_t i = 1; i < m; i++)
        if (elems[i] <= elems[i - 1])
            goto bad_subset;
    for (Py_ssize_t e = 0; e < n; e++)
        at[e] = -1;
    for (Py_ssize_t i = 0; i < m; i++)
        at[elems[i]] = i;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(ops); i++) {
        PyObject *op = PySequence_Fast_GET_ITEM(ops, i);
        if (!PyTuple_Check(op) || PyTuple_GET_SIZE(op) != 2) {
            PyErr_SetString(PyExc_TypeError, "each operation is (arity, table)");
            goto fail;
        }
        const int64_t k = arity_read(PyTuple_GET_ITEM(op, 0));
        Py_buffer tb;
        if (k < 0 || table_hold(&tb, PyTuple_GET_ITEM(op, 1), k, n))
            goto fail;
        const int64_t *ta = tb.buf;
        int64_t entries = 1, t = -1;
        for (int64_t j = 0; j < k; j++)
            entries *= m; /* m**k <= n**k, the length of ta */
        PyObject *table = NULL;
        if (!in_carrier(ta, tb.len / 8, n))
            PyErr_SetString(PyExc_ValueError, "a table value lies outside the carrier");
        else if ((table = PyBytes_FromStringAndSize(NULL, entries * 8)) &&
                 !PyList_Append(out, table))
            t = restrict_op(k, ta, (int64_t *)PyBytes_AS_STRING(table), at, elems, m, n);
        Py_XDECREF(table);
        if (t >= 0)
            Py_SETREF(out, Py_BuildValue("(nL)", i, (long long)t));
        PyBuffer_Release(&tb);
        if (t >= 0)
            goto done;
        if (PyErr_Occurred())
            goto fail;
    }
    goto done;
bad_subset:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "the subset is increasing elements of the carrier");
fail:
    Py_CLEAR(out);
done:
    PyMem_Free(at);
    Py_XDECREF(ops);
    Py_DECREF(seq);
    return out;
}

/* The search engine.
 *
 * engine(pairs, side, domains, lexicographic) makes an Engine (see _Engine
 * in homfactor.solver), which first compiles its pairs: per non-constant
 * operation of each (A, B) pair, from the tables tables_read checked, the
 * incidences that A's table decides (variable v's run from cut[v] to
 * cut[v + 1]: each one's slot, its place in the tuple, and ends, the
 * tuple's other variables) and, from B's table, a copy of it and rows of
 * uint64 words. Constants get no incidences, since the root pass settles
 * them.
 *
 * The engine's state is its own, in buffers from PyMem_Malloc, which
 * tracemalloc sees: the compiled operations; the domains, n rows of W
 * uint64 words (value y of variable x is bit y % 64 of word y / 64 of row
 * x, as in the root pass; W = ceil(|B| / 64) for the widest target B, a
 * narrower target's rows padded with zero words); the trail, one
 * (variable, row before the change) record per narrowing; the queue, the
 * stack of variables newly fixed; and the stack of branching frames. The
 * domains are exported through the buffer protocol, so numpy reads and
 * writes them in place.
 *
 * Propagation (run) pops the queue to a fixpoint. A variable is queued
 * once, when its domain becomes a singleton, so each popped variable is
 * newly fixed and reaches its entries once. The queue is popped from its
 * end, and a popped variable runs its side condition first, then its
 * incidences operation by operation, in order of tuple: node counts depend
 * on both. Each narrowing appends a trail record, and queues the variable
 * if it is a singleton now. A pair's entries read w = ceil(|B| / 64) words
 * of each row, its own target's; a side condition, all W.
 * tests/python_propagate.py holds the same compile and loop in Python, over
 * entries expanded to tuples, the reference that it must match state for
 * state, and the search loop over Python int masks that search matches
 * node for node.
 */

enum { MAX_WORDS = 64 }; /* 4,096 values, solver._MAX_CARRIER */

/* One non-constant operation of a pair, compiled. From A's table: the n_inc
 * incidences' slots and ends (rows of n_inc: one i row, then the j row; at
 * arity k >= 3 the k inputs, then the output) and cut. From B's: its table
 * tab (nb**arity values) and rows of w words, unary pre1[c] = {y : t(y) =
 * c}; binary pre1[a][c] = {y : t(a, y) = c}, pre2[a][c] = {y : t(y, a) =
 * c}, fix1[a] = {y : t(a, y) = y}, fix2[a] = {y : t(y, a) = y}, dpre[c] =
 * {y : t(y, y) = c}. All of it lies in one block, mem. */
typedef struct {
    int64_t arity, n_inc;
    int8_t *slot;
    int16_t *ends, *tab;
    int32_t *cut;
    word *pre1, *pre2, *fix1, *fix2, *dpre;
    void *mem;
} cop;

/* a pair's variables, offset to offset + n, over nb values in w words */
typedef struct {
    int64_t offset, n, nb, w, n_ops;
    cop *ops;
} cpair;

/* A branching frame: its variable, and the trail's length before its
 * current value, -1 before the first; its untried values are a row of
 * Engine.rest. */
typedef struct {
    int64_t var, mark;
} frame;

/* what search does when called: start from the state, go on past the
 * solution it returned, return at once, or refuse (past its budget) */
enum { READY, YIELDED, DONE, STOPPED };

/* An engine: its compiled pairs, its side condition and its state. The
 * side condition of the first n_side variables is side[v] = (first, c,
 * keep): fixed to a, v narrows each variable of group r = first + a, from
 * members[span[r][0]] to members[span[r][1]] (v itself skipped), to the
 * value c (keep 1) or drops c from it (keep 0); c = -1 stands for a. */
typedef struct {
    PyObject_HEAD
    int64_t n_pairs;
    cpair *pairs;
    int32_t *side, *span, *members; /* n_side rows of 3, n_rows of 2 */
    int64_t n_side, n_rows;
    int64_t n, W; /* variables, words per row */
    int lex, state;
    word *dom;          /* n rows of W words */
    int32_t *queue;     /* room for 2n */
    int64_t nq;
    int32_t *tvar;      /* the trail: cap records, nt of them used */
    word *told;         /* each record's row, W words */
    int64_t nt, cap;
    frame *frames;      /* n frames, depth of them used */
    word *rest;         /* n rows of W words */
    int64_t depth;
    Py_ssize_t shape[2], strides[2];
} Engine;

/* at most one value: a singleton, or empty */
static inline int is_fixed(const word *s, int64_t w)
{
    int seen = 0;
    for (int64_t k = 0; k < w; k++)
        if (s[k]) {
            if (seen || s[k] & (s[k] - 1))
                return 0;
            seen = 1;
        }
    return 1;
}

/* a singleton's value */
static inline int64_t top(const word *s, int64_t w)
{
    for (int64_t k = w - 1; k >= 0; k--)
        if (s[k])
            return 64 * k + 63 - __builtin_clzll(s[k]);
    return -1;
}

/* the pair of variable v */
static inline const cpair *pair_of(const Engine *e, int64_t v)
{
    const cpair *q = e->pairs;
    while (v >= q->offset + q->n)
        q++;
    return q;
}

/* Narrow variable x to the w words m, a nonempty proper subset of its
 * domain (rows of W words): record x and its row on the trail, and queue x
 * if m is a singleton. */
static int narrow(Engine *e, int64_t x, const word *m, int64_t w, int64_t W)
{
    if (e->nt == e->cap) {
        const int64_t cap = 2 * e->cap;
        int32_t *tvar = PyMem_Realloc(e->tvar, cap * sizeof(int32_t));
        if (tvar)
            e->tvar = tvar;
        word *told = tvar ? PyMem_Realloc(e->told, cap * W * sizeof(word)) : NULL;
        if (!told) {
            PyErr_NoMemory();
            return -1;
        }
        e->told = told;
        e->cap = cap;
    }
    word *d = e->dom + x * W;
    e->tvar[e->nt] = (int32_t)x;
    memcpy(e->told + e->nt++ * W, d, W * sizeof(word));
    memcpy(d, m, w * sizeof(word));
    if (is_fixed(m, w))
        e->queue[e->nq++] = (int32_t)x;
    return 0;
}

static void undo(Engine *e, int64_t mark)
{
    while (e->nt > mark) {
        e->nt--;
        memcpy(e->dom + e->tvar[e->nt] * e->W, e->told + e->nt * e->W, e->W * sizeof(word));
    }
}

/* The end of every entry: x keeps m, within its domain. 1 to go on, 0 on a
 * wipeout, -1 on an error, as every entry returns. */
static inline int keep(Engine *e, int64_t x, const word *m, int64_t w, int64_t W)
{
    if (same(m, e->dom + x * W, w))
        return 1;
    if (empty(m, w))
        return 0;
    return narrow(e, x, m, w, W) ? -1 : 1;
}

/* x keeps the value c, if it has it */
static inline int within_one(Engine *e, int64_t x, int64_t c, int64_t w, int64_t W)
{
    word m[MAX_WORDS];
    memset(m, 0, w * sizeof(word));
    if (has(e->dom + x * W, c))
        put(m, c);
    return keep(e, x, m, w, W);
}

/* x keeps the values of the row s */
static inline int within_row(Engine *e, int64_t x, const word *s, int64_t w, int64_t W)
{
    word m[MAX_WORDS];
    memcpy(m, e->dom + x * W, w * sizeof(word));
    meet(m, s, w);
    return keep(e, x, m, w, W);
}

/* The fixed variable fills one input of a binary tuple, j the other and i
 * the output: vals[u * step] is the output for j = u, and pre[c] the u
 * with output c. j keeps the values whose output is in i's domain, then i
 * those outputs. */
static inline int row(Engine *e, int64_t i, int64_t j, const int16_t *vals, int64_t step,
                      const word *pre, int64_t w, int64_t W)
{
    word m[MAX_WORDS], ay[MAX_WORDS];
    const word *d1 = e->dom + i * W, *d2 = e->dom + j * W;
    memset(m, 0, w * sizeof(word));
    if (is_fixed(d2, w)) {
        const int64_t c = vals[top(d2, w) * step];
        if (has(d1, c))
            put(m, c);
        return keep(e, i, m, w, W);
    }
    if (is_fixed(d1, w)) {
        memcpy(ay, pre + top(d1, w) * w, w * sizeof(word));
        meet(ay, d2, w);
        memcpy(m, d1, w * sizeof(word));
    } else {
        memset(ay, 0, w * sizeof(word));
        FOR_EACH(y, d2, w) {
            const int64_t c = vals[y * step];
            if (has(d1, c)) {
                put(ay, y);
                put(m, c);
            }
        }
    }
    if (empty(ay, w))
        return 0;
    if (!same(ay, d2, w) && narrow(e, j, ay, w, W))
        return -1;
    return keep(e, i, m, w, W);
}

/* The fixed variable, a, is the output of the tuple (i, j), with i and j
 * distinct: once one input is fixed, the other keeps the values that give
 * a; with both fixed, a check. */
static inline int pair(Engine *e, int64_t i, int64_t j, const cop *op, int64_t a, int64_t nb,
                       int64_t w, int64_t W)
{
    word m[MAX_WORDS];
    const word *d1 = e->dom + i * W, *d2 = e->dom + j * W;
    if (!is_fixed(d1, w)) {
        if (!is_fixed(d2, w))
            return 1; /* two free inputs: checked later */
        memcpy(m, op->pre2 + (top(d2, w) * nb + a) * w, w * sizeof(word));
        meet(m, d1, w);
        return keep(e, i, m, w, W);
    }
    memcpy(m, op->pre1 + (top(d1, w) * nb + a) * w, w * sizeof(word));
    if (is_fixed(d2, w))
        return meets(m, d2, w);
    meet(m, d2, w);
    return keep(e, j, m, w, W);
}

/* Incidence k of an operation of arity 3 or more: with every input fixed,
 * the output keeps its image; with one free input (repeats allowed), the
 * input keeps the values whose image lies in the output's domain (or, when
 * it is the output, contains it), and the output those images. */
static inline int table(Engine *e, const cop *op, int64_t k, int64_t off, int64_t nb, int64_t w,
                        int64_t W)
{
    word m[MAX_WORDS], ay[MAX_WORDS];
    const word *df = NULL;
    int64_t at = 0, step = 0, stride = 1, free = -1;
    for (int64_t r = op->arity - 1; r >= 0; r--, stride *= nb) {
        const int64_t y = op->ends[r * op->n_inc + k] + off;
        const word *d = e->dom + y * W;
        if (is_fixed(d, w))
            at += top(d, w) * stride;
        else if (y == free)
            step += stride;
        else if (free < 0) {
            free = y, step = stride;
            df = d;
        } else
            return 1; /* two distinct free inputs: checked later */
    }
    const int64_t o = op->ends[op->arity * op->n_inc + k] + off;
    const word *d = e->dom + o * W;
    memset(m, 0, w * sizeof(word));
    if (free < 0) {
        if (has(d, op->tab[at]))
            put(m, op->tab[at]);
        return keep(e, o, m, w, W);
    }
    memset(ay, 0, w * sizeof(word));
    FOR_EACH(y, df, w) {
        const int64_t c = op->tab[at + (int64_t)y * step];
        if (free == o ? c == (int64_t)y : has(d, c)) {
            put(ay, y);
            put(m, c);
        }
    }
    if (empty(ay, w))
        return 0;
    if (!same(ay, df, w) && narrow(e, free, ay, w, W))
        return -1;
    return free == o ? 1 : keep(e, o, m, w, W);
}

/* Incidence k of the operation op, of a pair whose variables start at
 * off, for the fixed variable's value a. The slot is the variable's place
 * in the tuple: unary, 0 the input (i is the output), 1 only the output (i
 * the input); binary (x1, x2) -> o, 0 both inputs (i = o), 1 x1 only (i =
 * o, j = x2), 2 x1 with o = x2 (i = x2), 3 and 4 the same for x2, 5 only
 * the output with x1 = x2 (i = x1), 6 only the output (i = x1, j = x2). */
static inline __attribute__((always_inline)) int
run_entry(Engine *e, const cop *op, int64_t k, int64_t off, int64_t nb, int64_t a, int64_t w,
          int64_t W)
{
    if (op->arity >= 3)
        return table(e, op, k, off, nb, w, W);
    const int64_t i = op->ends[k] + off, j = op->ends[op->n_inc + k] + off;
    const int16_t *t = op->tab;
    if (op->arity == 1)
        return op->slot[k] ? within_row(e, i, op->pre1 + a * w, w, W)
                           : within_one(e, i, t[a], w, W);
    switch (op->slot[k]) {
    case 0:
        return within_one(e, i, t[a * nb + a], w, W);
    case 1:
        return row(e, i, j, t + a * nb, 1, op->pre1 + a * nb * w, w, W);
    case 2:
        return within_row(e, i, op->fix1 + a * w, w, W);
    case 3:
        return row(e, i, j, t + a, nb, op->pre2 + a * nb * w, w, W);
    case 4:
        return within_row(e, i, op->fix2 + a * w, w, W);
    case 5:
        return within_row(e, i, op->dpre + a * w, w, W);
    default:
        return pair(e, i, j, op, a, nb, w, W);
    }
}

/* v's side condition, v fixed to a, on rows of W words */
static inline int run_side(Engine *e, int64_t v, int64_t a, int64_t W)
{
    const int32_t *s = e->side + 3 * v;
    const int64_t r = s[0] + a, c = s[1] < 0 ? a : s[1];
    if (r >= e->n_rows) {
        PyErr_SetString(PyExc_IndexError, "a side condition has no group for this value");
        return -1;
    }
    for (int64_t k = e->span[2 * r]; k < e->span[2 * r + 1]; k++) {
        const int64_t x = e->members[k];
        word d[MAX_WORDS];
        if (x == v)
            continue;
        memcpy(d, e->dom + x * W, W * sizeof(word));
        if (s[2]) { /* x keeps c alone */
            if (!has(d, c))
                return 0;
            if (is_fixed(d, W))
                continue;
            memset(d, 0, W * sizeof(word));
            put(d, c);
        } else { /* x drops c */
            if (!has(d, c))
                continue;
            drop(d, c);
            if (empty(d, W))
                return 0;
        }
        if (narrow(e, x, d, W, W))
            return -1;
    }
    return 1;
}

/* The loop over the queue: 1 at a fixpoint, 0 on a wipeout, -1 on an
 * error. Inlined twice, so that the code for one word is compiled with
 * W = 1 known. */
static inline __attribute__((always_inline)) int run(Engine *e, int64_t W)
{
    while (e->nq) {
        const int64_t v = e->queue[--e->nq];
        const cpair *q = pair_of(e, v);
        const int64_t w = W == 1 ? 1 : q->w, u = v - q->offset, a = top(e->dom + v * W, w);
        int go = v < e->n_side ? run_side(e, v, a, W) : 1;
        for (int64_t h = 0; h < q->n_ops && go > 0; h++) {
            const cop *op = q->ops + h;
            for (int64_t k = op->cut[u]; k < op->cut[u + 1] && go > 0; k++)
                go = run_entry(e, op, k, q->offset, q->nb, a, w, W);
        }
        if (go <= 0)
            return go;
    }
    return 1;
}

static int propagate(Engine *e) { return e->W == 1 ? run(e, 1) : run(e, e->W); }

/* Clear the queue, narrow x to its values in the W words m, and propagate:
 * 1 at a fixpoint, 0 on a wipeout, -1 on an error. */
static int restrict_to(Engine *e, int64_t x, const word *m)
{
    word d[MAX_WORDS];
    const int64_t W = e->W;
    memcpy(d, e->dom + x * W, W * sizeof(word));
    meet(d, m, W);
    e->nq = 0;
    if (empty(d, W))
        return 0;
    if (!same(d, e->dom + x * W, W) && narrow(e, x, d, W, W))
        return -1;
    return propagate(e);
}

/* The next variable to branch on, among those with more than one value
 * left; -1 when every variable is assigned. The pairs are branched in
 * order: the variable comes from the first pair that still has an
 * unassigned one. Within the pair, MRV picks the smallest domain, the
 * first on ties; lexicographic order picks the first unassigned
 * variable. */
static int64_t pick(const Engine *e)
{
    const int64_t W = e->W;
    if (e->lex) {
        for (int64_t v = 0; v < e->n; v++)
            if (!is_fixed(e->dom + v * W, W))
                return v;
        return -1;
    }
    for (int64_t i = 0; i < e->n_pairs; i++) {
        const cpair *q = e->pairs + i;
        int64_t best = -1, size = 0;
        for (int64_t v = q->offset; v < q->offset + q->n; v++) {
            const word *d = e->dom + v * W;
            if (!is_fixed(d, W)) {
                const int64_t c = count(d, W);
                if (best < 0 || c < size)
                    best = v, size = c;
            }
        }
        if (best >= 0)
            return best;
    }
    return -1;
}

/* Depth first below the state, on the explicit stack of frames, one per
 * branching level: each frame undoes its last value's changes before
 * trying the next one, its values in ascending order. Returns 1 with every
 * variable assigned (the search goes on past it at the next call), 0 once
 * exhausted, 2 at the node past budget (budget < 0: no limit), -1 on an
 * error; *used counts the nodes. */
static int search(Engine *e, int64_t budget, int64_t *used)
{
    const int64_t W = e->W;
    int resume = e->state == YIELDED;
    if (e->state == DONE)
        return 0;
    for (;;) {
        if (!resume) {
            const int64_t var = pick(e);
            if (var < 0) {
                e->state = YIELDED;
                return 1;
            }
            e->frames[e->depth] = (frame){var, -1};
            memcpy(e->rest + e->depth++ * W, e->dom + var * W, W * sizeof(word));
        }
        resume = 0;
        for (;;) {
            if (!e->depth) {
                e->state = DONE;
                return 0;
            }
            frame *f = e->frames + e->depth - 1;
            word *rest = e->rest + (e->depth - 1) * W, low[MAX_WORDS];
            if (f->mark >= 0)
                undo(e, f->mark);
            int64_t k = 0;
            while (k < W && !rest[k])
                k++;
            if (k == W) {
                e->depth--;
                continue;
            }
            memset(low, 0, W * sizeof(word));
            low[k] = rest[k] & -rest[k];
            rest[k] ^= low[k];
            if (++*used > budget && budget >= 0) {
                e->state = STOPPED;
                return 2;
            }
            f->mark = e->nt;
            const int go = restrict_to(e, f->var, low);
            if (go < 0) {
                e->state = STOPPED;
                return -1;
            }
            if (go)
                break;
        }
    }
}

/* Compiling, from the tables tables_read checked; the side condition is
 * copied and checked here, so propagate reads within bounds whatever it gets. */

/* Incidence (v, the tuple xs -> o) of the operation op (n_inc incidences,
 * arity k): with fill 0, counted in cnt[v + 1]; with fill 1, filed at
 * cnt[v], which moves on, with its slot and ends (see run_entry) */
static inline __attribute__((always_inline)) void
add(cop *op, int32_t *cnt, int64_t v, const int64_t *xs, int64_t o, int64_t k, int fill)
{
    if (!fill) {
        cnt[v + 1]++;
        return;
    }
    const int64_t n = op->n_inc, pos = cnt[v]++;
    if (k >= 3) { /* one slot */
        op->slot[pos] = 0;
        for (int64_t r = 0; r < k; r++)
            op->ends[r * n + pos] = (int16_t)xs[r];
        op->ends[k * n + pos] = (int16_t)o;
        return;
    }
    int64_t slot, i, j;
    if (k == 1) { /* 0: v is the input; 1: v is only the output */
        slot = xs[0] != v;
        i = j = slot ? xs[0] : o;
    } else {
        /* v is: both inputs 0; x1 1 (2 if o = x2); x2 3 (4 if o = x1); o
         * alone 5 (x1 = x2) or 6; i and j per slot, 0 o, 1 x1, 2 x2 */
        static const int8_t ends2[2][7] = {{0, 0, 2, 0, 1, 1, 1}, {0, 2, 0, 1, 0, 0, 2}};
        const int64_t x1 = xs[0], x2 = xs[1], end[3] = {o, x1, x2};
        slot = x1 == v ? (x2 == v ? 0 : 1 + (o == x2)) : x2 == v ? 3 + (o == x1) : 5 + (x1 != x2);
        i = end[ends2[0][slot]];
        j = end[ends2[1][slot]];
    }
    op->slot[pos] = (int8_t)slot;
    op->ends[pos] = (int16_t)i;
    op->ends[n + pos] = (int16_t)j;
}

/* The incidences of the k-ary table ta over na elements, in order of
 * variable, then tuple: each tuple's distinct elements, its inputs and its
 * output, each one an incidence (element, tuple), by a counting sort (see
 * add). */
static void incidences(cop *op, const int64_t *ta, int64_t k, int64_t na, int64_t size,
                       int32_t *cnt, int fill)
{
    int64_t xs[63] = {0}; /* the tuple's inputs, the last fastest */
    for (int64_t t = 0; t < size; t++) {
        const int64_t o = ta[t];
        if (k <= 2) { /* compared outright: the loop below takes twice as long */
            xs[0] = k == 2 ? t / na : t, xs[1] = k == 2 ? t % na : t;
            add(op, cnt, xs[0], xs, o, k, fill);
            if (xs[1] != xs[0])
                add(op, cnt, xs[1], xs, o, k, fill);
            if (o != xs[0] && o != xs[1])
                add(op, cnt, o, xs, o, k, fill);
            continue;
        }
        for (int64_t r = 0, s; r <= k; r++) { /* each element at its first place */
            const int64_t e = r < k ? xs[r] : o;
            for (s = 0; s < r && xs[s] != e; s++)
                ;
            if (s == r)
                add(op, cnt, e, xs, o, k, fill);
        }
        for (int64_t r = k - 1; r >= 0 && ++xs[r] == na; r--)
            xs[r] = 0;
    }
}

/* Compile the operation t (arity k >= 1) of a pair of na source elements
 * and nb target values in w words into op (see cop); cnt holds na + 1
 * int32. 0, or -1 with an exception set. */
static int compile_op(cop *op, const op_t *t, int64_t na, int64_t nb, int64_t w, int32_t *cnt)
{
    const int64_t k = t->arity, n_words = (k == 1 ? nb : k == 2 ? 2 * nb * nb + 3 * nb : 0) * w;
    int64_t size = 1, nbk = 1;
    for (int64_t r = 0; r < k; r++)
        size *= na, nbk *= nb;
    if (size > INT32_MAX / (k + 1)) {
        PyErr_SetString(PyExc_ValueError, "a table has more incidences than int32 counts");
        return -1;
    }
    op->arity = k;
    memset(cnt, 0, (na + 1) * sizeof(int32_t));
    incidences(op, t->a, k, na, size, cnt, 0);
    for (int64_t v = 0; v < na; v++)
        cnt[v + 1] += cnt[v];
    op->n_inc = cnt[na];
    const int64_t n_ends = (k >= 3 ? k + 1 : 2) * op->n_inc;
    char *mem = op->mem = PyMem_Calloc(1, n_words * sizeof(word) + (na + 1) * sizeof(int32_t)
                                              + (nbk + n_ends) * sizeof(int16_t) + op->n_inc);
    if (!mem) {
        PyErr_NoMemory();
        return -1;
    }
    word *rows = (word *)mem;
    op->cut = (int32_t *)(rows + n_words);
    op->tab = (int16_t *)(op->cut + na + 1);
    op->ends = op->tab + nbk;
    op->slot = (int8_t *)(op->ends + n_ends);
    memcpy(op->cut, cnt, (na + 1) * sizeof(int32_t));
    incidences(op, t->a, k, na, size, cnt, 1);
    const int64_t *tb = t->b;
    for (int64_t i = 0; i < nbk; i++)
        op->tab[i] = (int16_t)tb[i];
    if (k == 1) {
        op->pre1 = rows;
        for (int64_t y = 0; y < nb; y++)
            put(op->pre1 + tb[y] * w, y);
    } else if (k == 2) {
        op->pre1 = rows, op->pre2 = rows + nb * nb * w, op->fix1 = op->pre2 + nb * nb * w;
        op->fix2 = op->fix1 + nb * w, op->dpre = op->fix2 + nb * w;
        for (int64_t a = 0; a < nb; a++)
            for (int64_t y = 0; y < nb; y++) {
                const int64_t c = tb[a * nb + y];
                put(op->pre1 + (a * nb + c) * w, y);
                put(op->pre2 + (y * nb + c) * w, a);
                if (c == y)
                    put(op->fix1 + a * w, y);
                if (c == a)
                    put(op->fix2 + y * w, a);
                if (a == y)
                    put(op->dpre + c * w, y);
            }
    }
    return 0;
}

/* A copy of o's data, C-contiguous int32, in *n items; NULL with an
 * exception set */
static int32_t *int32_copy(PyObject *o, Py_ssize_t *n)
{
    Py_buffer b;
    if (PyObject_GetBuffer(o, &b, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
        return NULL;
    int32_t *out = NULL;
    if (!of_type(&b, 4, "i"))
        PyErr_SetString(PyExc_ValueError, "a side condition is three int32 arrays");
    else if (!(out = PyMem_Malloc(b.len + 1)))
        PyErr_NoMemory();
    else {
        memcpy(out, b.buf, b.len);
        *n = b.len / 4;
    }
    PyBuffer_Release(&b);
    return out;
}

/* every one of the n values of s lies in [lo, hi) */
static int in_range(const int32_t *s, Py_ssize_t n, int64_t lo, int64_t hi)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (s[i] < lo || s[i] >= hi)
            return 0;
    return 1;
}

/* The side condition (side, span, members), or None */
static int read_side(Engine *e, PyObject *side)
{
    if (side == Py_None)
        return 0;
    if (!PyTuple_Check(side) || PyTuple_GET_SIZE(side) != 3) {
        PyErr_SetString(PyExc_TypeError, "a side condition is (side, span, members)");
        return -1;
    }
    Py_ssize_t n_side = 0, n_span = 0, n_members = 0;
    if (!(e->side = int32_copy(PyTuple_GET_ITEM(side, 0), &n_side))
        || !(e->span = int32_copy(PyTuple_GET_ITEM(side, 1), &n_span))
        || !(e->members = int32_copy(PyTuple_GET_ITEM(side, 2), &n_members)))
        return -1;
    e->n_side = n_side / 3;
    e->n_rows = n_span / 2;
    int ok = n_side % 3 == 0 && n_span % 2 == 0 && e->n_side <= e->n
             && in_range(e->members, n_members, 0, e->n) && in_range(e->span, n_span, 0, n_members + 1);
    for (int64_t v = 0; ok && v < e->n_side; v++) {
        const int32_t *s = e->side + 3 * v;
        ok = s[0] >= 0 && s[1] >= -1 && s[1] < 64 * e->W && (s[2] == 0 || s[2] == 1);
    }
    for (int64_t r = 0; ok && r < e->n_rows; r++)
        ok = e->span[2 * r] <= e->span[2 * r + 1];
    if (!ok)
        PyErr_SetString(PyExc_ValueError, "a side condition needs rows (first, value, keep) for "
                                          "some of the variables, spans of two within the "
                                          "members, and members among the variables");
    return ok ? 0 : -1;
}

/* The Engine's calls. Each one first checks the state that numpy may have
 * written (check), so that the search reads within its tables whatever it
 * is given: every row holds values of its own target only, and, past
 * root, none is empty. The frames end with any call but search. */

/* 0 when every row holds values of its target only and none is empty; 1
 * when one is empty; -1, with ValueError, when one holds a value past its
 * target */
static int check(const Engine *e)
{
    int empty_row = 0;
    for (int64_t i = 0; i < e->n_pairs; i++) {
        const cpair *q = e->pairs + i;
        const word past = q->nb % 64 ? ~(word)0 << q->nb % 64 : 0;
        for (int64_t v = q->offset; v < q->offset + q->n; v++) {
            const word *d = e->dom + v * e->W;
            int64_t k = q->w;
            while (k < e->W && !d[k])
                k++;
            if (k < e->W || d[q->w - 1] & past) {
                PyErr_SetString(PyExc_ValueError, "a domain holds a value past its target");
                return -1;
            }
            empty_row |= empty(d, q->w);
        }
    }
    return empty_row;
}

/* check, where an empty row is an error too */
static int readable(Engine *e)
{
    e->depth = 0;
    e->state = DONE;
    const int bad = check(e);
    if (bad > 0)
        PyErr_SetString(PyExc_ValueError, "a domain is empty");
    return bad;
}

/* a variable from o, in [0, n) */
static int64_t variable(const Engine *e, PyObject *o)
{
    const Py_ssize_t v = PyLong_AsSsize_t(o);
    if ((v < 0 || v >= e->n) && !PyErr_Occurred())
        PyErr_Format(PyExc_IndexError, "variable %zd out of range", v);
    return PyErr_Occurred() ? -1 : v;
}

/* a budget from o: None (no limit, -1) or a count of nodes */
static int64_t budget_of(PyObject *o)
{
    if (o == Py_None)
        return -1;
    const long long b = PyLong_AsLongLong(o);
    if (b < 0 && !PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "a budget is a count of nodes, or None");
    return PyErr_Occurred() ? -2 : b;
}

/* (used, the solution's values as a tuple, or None) */
static PyObject *outcome(const Engine *e, int found, int64_t used)
{
    PyObject *sol = found ? PyTuple_New(e->n) : Py_NewRef(Py_None);
    for (int64_t v = 0; found && sol && v < e->n; v++) {
        PyObject *o = PyLong_FromLongLong(top(e->dom + v * e->W, e->W));
        if (!o)
            Py_CLEAR(sol);
        else
            PyTuple_SET_ITEM(sol, v, o);
    }
    return sol ? Py_BuildValue("(LN)", (long long)used, sol) : NULL;
}

static PyObject *engine_root(Engine *e, PyObject *unused)
{
    (void)unused;
    e->depth = 0;
    e->state = DONE;
    const int bad = check(e);
    if (bad)
        return bad < 0 ? NULL : Py_NewRef(Py_False);
    e->nq = 0;
    for (int64_t v = 0; v < e->n; v++)
        if (is_fixed(e->dom + v * e->W, e->W))
            e->queue[e->nq++] = (int32_t)v;
    const int go = propagate(e);
    if (go < 0)
        return NULL;
    e->state = go ? READY : DONE;
    return PyBool_FromLong(go);
}

static PyObject *engine_search(Engine *e, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 1)
        return PyErr_Format(PyExc_TypeError, "search takes 1 argument, not %zd", nargs);
    const int64_t budget = budget_of(args[0]);
    if (budget < -1)
        return NULL;
    if (e->state == STOPPED) {
        PyErr_SetString(PyExc_RuntimeError, "the search stopped at its budget or an error");
        return NULL;
    }
    const int bad = e->state == DONE ? 0 : check(e);
    if (bad) {
        if (bad > 0)
            PyErr_SetString(PyExc_ValueError, "a domain is empty");
        e->state = STOPPED;
        return NULL;
    }
    int64_t used = 0;
    const int r = search(e, budget, &used);
    return r < 0 ? NULL : outcome(e, r == 1, used);
}

static PyObject *engine_first_without(Engine *e, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "first_without takes 3 arguments, not %zd", nargs);
    const int64_t var = variable(e, args[0]), budget = budget_of(args[2]);
    if (var < 0 || budget < -1)
        return NULL;
    const Py_ssize_t val = PyLong_AsSsize_t(args[1]);
    if (val < 0 || val >= pair_of(e, var)->nb)
        return PyErr_Occurred() ? NULL
                                : PyErr_Format(PyExc_ValueError, "value %zd past the target", val);
    if (readable(e))
        return NULL;
    word m[MAX_WORDS];
    memset(m, 0xff, e->W * sizeof(word));
    drop(m, val);
    const int64_t mark = e->nt;
    int64_t used = 0;
    int r = restrict_to(e, var, m);
    if (r > 0) {
        e->state = READY;
        r = search(e, budget, &used);
    }
    PyObject *out = r < 0 ? NULL : outcome(e, r == 1, used);
    undo(e, mark);
    e->depth = 0;
    e->state = DONE;
    return out;
}

static PyObject *engine_settle(Engine *e, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "settle takes 2 arguments, not %zd", nargs);
    const int64_t var = variable(e, args[0]);
    if (var < 0 || readable(e))
        return NULL;
    Py_buffer b;
    if (PyObject_GetBuffer(args[1], &b, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
        return NULL;
    const int64_t w = pair_of(e, var)->w;
    word m[MAX_WORDS];
    int r = -1;
    if (!of_type(&b, 8, "LQ") || b.len != w * 8)
        PyErr_Format(PyExc_ValueError, "settle needs %lld uint64 words", (long long)w);
    else {
        memset(m, 0, e->W * sizeof(word));
        memcpy(m, b.buf, b.len);
        r = restrict_to(e, var, m);
    }
    PyBuffer_Release(&b);
    return r < 0 ? NULL : PyBool_FromLong(r);
}

static PyObject *engine_propagate(Engine *e, PyObject *queue)
{
    PyObject *list = PySequence_Fast(queue, "propagate takes a sequence of variables");
    if (!list)
        return NULL;
    const Py_ssize_t nq = PySequence_Fast_GET_SIZE(list);
    int r = -1;
    if (nq > e->n)
        PyErr_SetString(PyExc_ValueError, "propagate takes at most one entry per variable");
    else if (!readable(e)) {
        e->nq = 0;
        for (Py_ssize_t i = 0; i < nq; i++) {
            const int64_t v = variable(e, PySequence_Fast_GET_ITEM(list, i));
            if (v < 0)
                goto done;
            e->queue[e->nq++] = (int32_t)v;
        }
        r = propagate(e);
    }
done:
    Py_DECREF(list);
    return r < 0 ? NULL : PyBool_FromLong(r);
}

/* the trail, as a list of (variable, row before the change as a tuple of
 * W words) */
static PyObject *engine_trail(Engine *e, void *unused)
{
    (void)unused;
    PyObject *out = PyList_New(e->nt);
    for (int64_t i = 0; out && i < e->nt; i++) {
        PyObject *words = PyTuple_New(e->W), *rec = NULL;
        for (int64_t k = 0; words && k < e->W; k++) {
            PyObject *o = PyLong_FromUnsignedLongLong(e->told[i * e->W + k]);
            if (!o)
                Py_CLEAR(words);
            else
                PyTuple_SET_ITEM(words, k, o);
        }
        if (words)
            rec = Py_BuildValue("(iN)", e->tvar[i], words);
        if (!rec)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, rec);
    }
    return out;
}

static PyObject *engine_queue(Engine *e, void *unused)
{
    (void)unused;
    PyObject *out = PyList_New(e->nq);
    for (int64_t i = 0; out && i < e->nq; i++) {
        PyObject *o = PyLong_FromLong(e->queue[i]);
        if (!o)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, o);
    }
    return out;
}

static int engine_getbuffer(Engine *e, Py_buffer *view, int flags)
{
    view->obj = Py_NewRef(e);
    view->buf = e->dom;
    view->len = e->n * e->W * sizeof(word);
    view->readonly = 0;
    view->itemsize = sizeof(word);
    view->format = flags & PyBUF_FORMAT ? "Q" : NULL;
    view->ndim = 2;
    view->shape = flags & PyBUF_ND ? e->shape : NULL;
    view->strides = (flags & PyBUF_STRIDES) == PyBUF_STRIDES ? e->strides : NULL;
    view->suboffsets = NULL;
    view->internal = NULL;
    return 0;
}

static void engine_dealloc(Engine *e)
{
    PyMem_Free(e->dom);
    PyMem_Free(e->queue);
    PyMem_Free(e->tvar);
    PyMem_Free(e->told);
    PyMem_Free(e->frames);
    PyMem_Free(e->rest);
    PyMem_Free(e->side);
    PyMem_Free(e->span);
    PyMem_Free(e->members);
    for (int64_t i = 0; e->pairs && i < e->n_pairs; i++) {
        for (int64_t h = 0; e->pairs[i].ops && h < e->pairs[i].n_ops; h++)
            PyMem_Free(e->pairs[i].ops[h].mem);
        PyMem_Free(e->pairs[i].ops);
    }
    PyMem_Free(e->pairs);
    Py_TYPE(e)->tp_free((PyObject *)e);
}

static PyMethodDef engine_methods[] = {
    {"root", (PyCFunction)engine_root, METH_NOARGS,
     "root(): queue the singletons and propagate; False when the domains admit no solution. "
     "A search starts here."},
    {"search", (PyCFunction)(void (*)(void))engine_search, METH_FASTCALL,
     "search(budget): (nodes used, the next solution as a tuple of values, or None once the "
     "search is exhausted); it stops at the node past budget (None: no limit), so that used > "
     "budget means the budget ran out."},
    {"first_without", (PyCFunction)(void (*)(void))engine_first_without, METH_FASTCALL,
     "first_without(var, val, budget): (nodes used, the first solution with val removed from "
     "var's domain, or None); the state is restored either way."},
    {"settle", (PyCFunction)(void (*)(void))engine_settle, METH_FASTCALL,
     "settle(var, words): keep only the values of the uint64 words (as many as var's target "
     "needs) in var's domain, and propagate, for good; False on a wipeout."},
    {"propagate", (PyCFunction)engine_propagate, METH_O,
     "propagate(queue): propagate with the queue set to these variables; False on a wipeout."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef engine_getset[] = {
    {"trail", (getter)engine_trail, NULL, "the trail: (variable, row before the change)", NULL},
    {"queue", (getter)engine_queue, NULL, "the variables queued and not yet propagated", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyBufferProcs engine_buffer = {(getbufferproc)engine_getbuffer, NULL};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "homfactor._native_ext.Engine",
    .tp_basicsize = sizeof(Engine),
    .tp_dealloc = (destructor)engine_dealloc,
    .tp_as_buffer = &engine_buffer,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One search engine: its compiled operations, domains (exported as n rows of W "
              "uint64 words), trail, queue and frames.",
    .tp_methods = engine_methods,
    .tp_getset = engine_getset,
};

/* Compile pair i of the engine, (n, nb, ops) with ops as tables_read
 * takes them, at the offset of the variables before it, into e->pairs[i];
 * *cnt as compile_op needs it. 0, or -1 with an exception set. */
static int compile_pair(Engine *e, Py_ssize_t i, PyObject *t, int32_t **cnt)
{
    if (!PyTuple_Check(t) || PyTuple_GET_SIZE(t) != 3) {
        PyErr_SetString(PyExc_TypeError, "a pair is (|A|, |B|, operations)");
        return -1;
    }
    cpair *q = e->pairs + i;
    const Py_ssize_t n = PyLong_AsSsize_t(PyTuple_GET_ITEM(t, 0)),
                     nb = PyLong_AsSsize_t(PyTuple_GET_ITEM(t, 1));
    if (n < 0 || n > INT16_MAX || nb < 1 || nb > 64 * MAX_WORDS) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "a pair needs |A| in [0, %d] and |B| in [1, %d]",
                         INT16_MAX, 64 * MAX_WORDS);
        return -1;
    }
    q->offset = e->n, q->n = n, q->nb = nb, q->w = (nb + 63) / 64;
    e->n += n;
    e->W = q->w > e->W ? q->w : e->W;
    tables_t tables;
    if (tables_read(&tables, PyTuple_GET_ITEM(t, 2), n, nb))
        return -1;
    int32_t *more = PyMem_Realloc(*cnt, (n + 1) * sizeof(int32_t));
    int ok = more && (q->ops = PyMem_Calloc(tables.n_ops + 1, sizeof(cop)));
    if (more)
        *cnt = more;
    if (!ok)
        PyErr_NoMemory();
    for (Py_ssize_t h = 0; ok && h < tables.n_ops; h++)
        if (tables.ops[h].arity)
            ok = !compile_op(q->ops + q->n_ops++, tables.ops + h, n, nb, q->w, *cnt);
    tables_release(&tables);
    return ok ? 0 : -1;
}

/* engine(pairs, side, domains, lexicographic): an Engine over pairs, a
 * sequence of (|A|, |B|, operations), one per (A, B) pair laid side by
 * side, with the side condition side or None; its domains copied from
 * domains, one C-contiguous uint64 array per pair of |A| rows of the
 * pair's w words; branching in lexicographic order when lexicographic is
 * true, else MRV within each pair. */
static PyObject *py_engine(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "engine takes 4 arguments, not %zd", nargs);
    const int lex = PyObject_IsTrue(args[3]);
    if (lex < 0)
        return NULL;
    PyObject *pairs = PySequence_Fast(args[0], "engine takes a sequence of pairs");
    if (!pairs)
        return NULL;
    PyObject *list = PySequence_Fast(args[2], "engine takes a sequence of domain arrays");
    Engine *e = list ? (Engine *)EngineType.tp_alloc(&EngineType, 0) : NULL;
    int32_t *cnt = NULL;
    if (!e)
        goto fail;
    e->n_pairs = PySequence_Fast_GET_SIZE(pairs);
    e->W = 1;
    e->lex = lex, e->state = DONE;
    if (!(e->pairs = PyMem_Calloc(e->n_pairs + 1, sizeof(cpair)))) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < e->n_pairs; i++)
        if (compile_pair(e, i, PySequence_Fast_GET_ITEM(pairs, i), &cnt))
            goto fail;
    if (PySequence_Fast_GET_SIZE(list) != e->n_pairs) {
        PyErr_Format(PyExc_ValueError, "%lld pairs, %zd domain arrays", (long long)e->n_pairs,
                     PySequence_Fast_GET_SIZE(list));
        goto fail;
    }
    if (read_side(e, args[1]))
        goto fail;
    const int64_t n = e->n, W = e->W, rows = n ? n : 1;
    e->cap = rows;
    e->shape[0] = n, e->shape[1] = W;
    e->strides[0] = W * sizeof(word), e->strides[1] = sizeof(word);
    e->dom = PyMem_Calloc(rows * W, sizeof(word));
    e->queue = PyMem_Malloc(2 * rows * sizeof(int32_t));
    e->tvar = PyMem_Malloc(rows * sizeof(int32_t));
    e->told = PyMem_Malloc(rows * W * sizeof(word));
    e->frames = PyMem_Malloc(rows * sizeof(frame));
    e->rest = PyMem_Malloc(rows * W * sizeof(word));
    if (!e->dom || !e->queue || !e->tvar || !e->told || !e->frames || !e->rest) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int64_t i = 0; i < e->n_pairs; i++) {
        const cpair *q = e->pairs + i;
        Py_buffer b;
        if (PyObject_GetBuffer(PySequence_Fast_GET_ITEM(list, i), &b,
                               PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
            goto fail;
        const int fits = of_type(&b, 8, "LQ") && b.len == q->n * q->w * 8;
        for (int64_t x = 0; fits && x < q->n; x++)
            memcpy(e->dom + (q->offset + x) * W, (const word *)b.buf + x * q->w,
                   q->w * sizeof(word));
        PyBuffer_Release(&b);
        if (!fits) {
            PyErr_Format(PyExc_ValueError, "engine needs %lld rows of %lld uint64 words for pair "
                         "%lld", (long long)q->n, (long long)q->w, (long long)i);
            goto fail;
        }
    }
    PyMem_Free(cnt);
    Py_DECREF(list);
    Py_DECREF(pairs);
    return (PyObject *)e;
fail:
    PyMem_Free(cnt);
    Py_XDECREF(e);
    Py_XDECREF(list);
    Py_DECREF(pairs);
    return NULL;
}

static PyMethodDef methods[] = {
    {"root", (PyCFunction)(void (*)(void))py_root, METH_FASTCALL,
     "root(nb, ops, d): root arc consistency on the uint64 domain words d, in place; "
     "the number of pairs removed, or -1 minus it on a wipeout."},
    {"hom", (PyCFunction)(void (*)(void))py_hom, METH_FASTCALL,
     "hom(values, nb, ops): whether the map values is a homomorphism for the (arity, table "
     "of A, table of B) operations."},
    {"outside", (PyCFunction)(void (*)(void))py_outside, METH_FASTCALL,
     "outside(table, n): whether some entry of the flat int64 table lies outside [0, n)."},
    {"restrict", (PyCFunction)(void (*)(void))py_restrict, METH_FASTCALL,
     "restrict(n, subset, ops): the (arity, table) operations' tables restricted to subset, "
     "one bytes object each, or (operation, tuple index) at the first value outside it."},
    {"engine", (PyCFunction)(void (*)(void))py_engine, METH_FASTCALL,
     "engine(pairs, side, domains, lexicographic): a search engine over the (|A|, |B|, "
     "operations) pairs and the side condition, from one uint64 domain array per pair."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "homfactor._native_ext", NULL, -1,
                                    methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__native_ext(void)
{
    return PyType_Ready(&EngineType) ? NULL : PyModule_Create(&module);
}
