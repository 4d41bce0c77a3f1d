/* The C half of homfactor.solver, one CPython extension module built on
 * first import by homfactor._native. It holds two functions:
 *
 * root(nb, ops, d): root arc consistency for homomorphisms A -> B over
 * operation tables, behind homfactor.solver._consistent_domains;
 * propagate(dom, trail, queue, props, w): the search engine's propagation
 * to a fixpoint, for every engine, on domains of w uint64 words.
 *
 * Root arc consistency.
 *
 * A domain is a row of w = ceil(|B| / 64) uint64 words: value y is bit
 * y % 64 of word y / 64. Row x of d is the domain of element x of A. The
 * tables are the algebras' own flat int64 tables (row-major, n**k entries
 * for arity k), read in place and assumed valid.
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

static inline void join(word *t, const word *s, int64_t w)
{
    for (int64_t k = 0; k < w; k++)
        t[k] |= s[k];
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

/* Root arc consistency over the n_ops operations in ops, on the domains d
 * (na rows of w words), narrowed in place. work holds
 * (4 * na + nb + 2) * w + 3 * na words: four more rows of na domains, nb
 * rows, two single rows and three int64 per element (stamps and two
 * orders), O((|A| + |B|) * w) in all. Returns the number of (element,
 * value) pairs removed, or -1 minus that number when a domain is empty
 * after the last sweep. */
typedef struct {
    int64_t arity;
    const int64_t *a, *b; /* the tables of A and B */
} op_t;

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
 * uint64 words (na rows of w), for ops, a list of (arity, table of A,
 * table of B) with the tables flat int64 arrays, read through the buffer
 * protocol. The scratch comes from PyMem_Malloc, which tracemalloc sees.
 * Returns root_pass's count. */
static PyObject *py_root(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "root takes 3 arguments, not %zd", nargs);
    const Py_ssize_t nb = PyLong_AsSsize_t(args[0]);
    if (nb < 1)
        return PyErr_Occurred() ? NULL : PyErr_Format(PyExc_ValueError, "root needs nb >= 1");
    PyObject *list = PySequence_Fast(args[1], "root takes a sequence of operations");
    if (!list)
        return NULL;
    const Py_ssize_t n_ops = PySequence_Fast_GET_SIZE(list), w = (nb + 63) / 64;
    Py_buffer dbuf, *bufs = PyMem_Calloc(2 * n_ops + 1, sizeof(Py_buffer));
    op_t *ops = PyMem_Calloc(n_ops + 1, sizeof(op_t));
    word *work = NULL;
    Py_ssize_t held = 0, na = 0;
    PyObject *out = NULL;
    int have_d = 0;
    if (!bufs || !ops) {
        PyErr_NoMemory();
        goto done;
    }
    if (PyObject_GetBuffer(args[2], &dbuf, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
        goto done;
    have_d = 1;
    if (dbuf.itemsize != 8 || (dbuf.len / 8) % w) {
        PyErr_SetString(PyExc_ValueError, "root needs domains of uint64 words, w per row");
        goto done;
    }
    na = dbuf.len / 8 / w;
    for (Py_ssize_t i = 0; i < n_ops; i++) {
        PyObject *op = PySequence_Fast_GET_ITEM(list, i);
        if (!PyTuple_Check(op) || PyTuple_GET_SIZE(op) != 3) {
            PyErr_SetString(PyExc_TypeError, "each operation is (arity, table, table)");
            goto done;
        }
        const Py_ssize_t k = PyLong_AsSsize_t(PyTuple_GET_ITEM(op, 0));
        if (k < 0 || k > 62) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "arity out of range");
            goto done;
        }
        ops[i].arity = k;
        for (int side = 0; side < 2; side++) {
            Py_buffer *b = &bufs[held];
            if (PyObject_GetBuffer(PyTuple_GET_ITEM(op, 1 + side), b,
                                   PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
                goto done;
            held++;
            /* the table of a k-ary operation holds n**k entries */
            Py_ssize_t need = 1;
            for (Py_ssize_t j = 0; j < k && need <= b->len; j++)
                need *= side ? nb : na;
            if (b->itemsize != 8 || !b->format || (b->format[0] != 'l' && b->format[0] != 'q')
                || b->format[1] || b->len / 8 != need) {
                PyErr_SetString(PyExc_ValueError, "root needs flat int64 tables of n**k entries");
                goto done;
            }
            if (side)
                ops[i].b = b->buf;
            else
                ops[i].a = b->buf;
        }
    }
    work = PyMem_Malloc(((4 * na + nb + 2) * w + 3 * na) * sizeof(word));
    if (!work) {
        PyErr_NoMemory();
        goto done;
    }
    out = PyLong_FromLongLong(root_pass(na, nb, n_ops, ops, dbuf.buf, work));
done:
    PyMem_Free(work);
    while (held)
        PyBuffer_Release(&bufs[--held]);
    if (have_d)
        PyBuffer_Release(&dbuf);
    PyMem_Free(bufs);
    PyMem_Free(ops);
    Py_DECREF(list);
    return out;
}

/* Propagation.
 *
 * propagate(dom, trail, queue, props, w) is the search engine's
 * propagation to a fixpoint, on the engine's own lists (see _Engine in
 * homfactor.solver): dom, the domains as int bitmasks; trail, the (var,
 * mask before the change) records; queue, the stack of variables newly
 * fixed; props, each variable's list of compiled 5-tuples (kind, i, j,
 * tab, aux). Every mask is a nonnegative int of at most w uint64 words,
 * w = ceil(widest target / 64), read into a row of w words laid out like
 * the root pass's domains; a negative mask, or one wider than w words,
 * raises OverflowError. A variable is queued once, when its domain becomes
 * a singleton, so each popped variable is newly fixed and reaches its
 * entries once. The queue is popped from its end and a variable's entries
 * run in their list's order, side condition first: node counts depend on
 * both. Each narrowing appends (var, old mask) to the trail, and var to
 * the queue if it is a singleton now. tests/python_propagate.py holds the
 * same loop in Python, the reference that it must match state for state.
 */

#if PY_BIG_ENDIAN
#error "propagate reads a mask's little-endian bytes as native words"
#endif

enum { ROW, PAIR, PRE, TABLE, EACH }; /* solver's _ROW, _PAIR, _PRE, _TABLE, _EACH */
enum { MAX_WORDS = 64 };              /* 4,096 values, solver._MAX_CARRIER */

typedef struct {
    PyObject *dom, *trail, *queue;
} engine;

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

/* d.bit_length() - 1: a singleton's value */
static inline Py_ssize_t top(const word *s, int64_t w)
{
    for (int64_t k = w - 1; k >= 0; k--)
        if (s[k])
            return 64 * k + 63 - __builtin_clzll(s[k]);
    return -1;
}

/* item i of the list seq (borrowed), negative i counted from the end */
static inline PyObject *item(PyObject *seq, Py_ssize_t i)
{
    if (!PyList_Check(seq)) {
        PyErr_SetString(PyExc_TypeError, "propagate reads lists");
        return NULL;
    }
    const Py_ssize_t n = PyList_GET_SIZE(seq);
    if (i < 0)
        i += n;
    if (i < 0 || i >= n) {
        PyErr_SetString(PyExc_IndexError, "propagate read past a list");
        return NULL;
    }
    return PyList_GET_ITEM(seq, i);
}

/* the int o as the w words m; a negative int, or one past w words, raises
 * OverflowError. At w = 1, PyLong_AsUnsignedLong reads the digits whole
 * where PyLong_AsUnsignedLongLong copies an int past 2**30 byte by byte */
static inline int as_mask(PyObject *o, word *m, int64_t w)
{
    if (!o)
        return -1;
    if (w == 1) {
#if ULONG_MAX == UINT64_MAX
        *m = PyLong_AsUnsignedLong(o);
#else
        *m = PyLong_AsUnsignedLongLong(o);
#endif
        return *m == (word)-1 && PyErr_Occurred() ? -1 : 0;
    }
    if (!PyLong_Check(o)) {
        PyErr_SetString(PyExc_TypeError, "a mask is an int");
        return -1;
    }
#if PY_VERSION_HEX >= 0x030D0000 /* 3.13 added with_exceptions */
    return _PyLong_AsByteArray((PyLongObject *)o, (unsigned char *)m, w * sizeof(word), 1, 0, 1);
#else
    return _PyLong_AsByteArray((PyLongObject *)o, (unsigned char *)m, w * sizeof(word), 1, 0);
#endif
}

/* the mask seq[i] */
static inline int mask_at(PyObject *seq, Py_ssize_t i, word *m, int64_t w)
{
    return as_mask(item(seq, i), m, w);
}

/* the mask seq[i][k] */
static inline int mask_at2(PyObject *seq, Py_ssize_t i, Py_ssize_t k, word *m, int64_t w)
{
    PyObject *row = item(seq, i);
    return row ? mask_at(row, k, m, w) : -1;
}

/* a variable: an index into dom, which narrow writes without a check */
static inline int as_var(PyObject *o, Py_ssize_t *x)
{
    *x = PyLong_AsSsize_t(o);
    if (*x >= 0)
        return 0;
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_IndexError, "propagate read a negative variable");
    return -1;
}

/* Narrow variable x (the int xo) to the mask m, a nonempty proper subset
 * of its domain: record (x, old mask) on the trail, and queue x if m is a
 * singleton. */
static int narrow(const engine *e, PyObject *xo, Py_ssize_t x, const word *m, int64_t w)
{
    PyObject *mo = w == 1 ? PyLong_FromUnsignedLongLong(*m)
                          : _PyLong_FromByteArray((const unsigned char *)m, w * sizeof(word), 1, 0);
    PyObject *rec = PyTuple_New(2);
    if (!mo || !rec) {
        Py_XDECREF(mo);
        Py_XDECREF(rec);
        return -1;
    }
    Py_INCREF(xo);
    PyTuple_SET_ITEM(rec, 0, xo);
    PyTuple_SET_ITEM(rec, 1, PyList_GET_ITEM(e->dom, x)); /* the list's reference moves */
    PyList_SET_ITEM(e->dom, x, mo);
    const int failed = PyList_Append(e->trail, rec);
    Py_DECREF(rec);
    if (failed)
        return -1;
    return is_fixed(m, w) ? PyList_Append(e->queue, xo) : 0;
}

/* One entry of the variable v, fixed to the value a, on masks of w words:
 * 1 to go on, 0 on a wipeout, -1 on an error. */
static inline __attribute__((always_inline)) int
run_entry(const engine *e, PyObject *entry, Py_ssize_t v, Py_ssize_t a, int64_t w)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 5) {
        PyErr_SetString(PyExc_TypeError, "an entry is a 5-tuple");
        return -1;
    }
    PyObject *io = PyTuple_GET_ITEM(entry, 1), *jo = PyTuple_GET_ITEM(entry, 2),
             *tab = PyTuple_GET_ITEM(entry, 3), *aux = PyTuple_GET_ITEM(entry, 4), *xo = io;
    const Py_ssize_t kind = PyLong_AsSsize_t(PyTuple_GET_ITEM(entry, 0));
    Py_ssize_t i, j, x = 0;
    word d1[MAX_WORDS], d2[MAX_WORDS], m[MAX_WORDS], ay[MAX_WORDS];
    const word *dx = d1;
    /* each kind but _EACH ends in narrowing x from dx to m */
    switch (kind) {
    case ROW: /* (o, u, rows, pres): rows[a][u] = o */
        if (as_var(io, &i) || as_var(jo, &j) || mask_at(e->dom, i, d1, w)
            || mask_at(e->dom, j, d2, w))
            return -1;
        x = i;
        if (is_fixed(d2, w)) {
            if (mask_at2(tab, a, top(d2, w), m, w))
                return -1;
            meet(m, d1, w);
            break;
        }
        /* j free: keep the values whose image is in i's domain */
        if (is_fixed(d1, w)) {
            if (mask_at2(aux, a, top(d1, w), ay, w))
                return -1;
            meet(ay, d2, w);
            memcpy(m, d1, w * sizeof(word));
        } else {
            PyObject *row = item(tab, a);
            if (!row)
                return -1;
            memset(ay, 0, w * sizeof(word));
            memset(m, 0, w * sizeof(word));
            FOR_EACH(y, d2, w) {
                word c[MAX_WORDS];
                if (mask_at(row, y, c, w))
                    return -1;
                if (meets(d1, c, w)) {
                    put(ay, y);
                    join(m, c, w);
                }
            }
        }
        if (empty(ay, w))
            return 0;
        if (!same(ay, d2, w) && narrow(e, jo, j, ay, w))
            return -1;
        break;
    case PRE: /* (x, -, pre, -): x within pre[a] */
        if (as_var(io, &x) || mask_at(e->dom, x, d1, w) || mask_at(tab, a, m, w))
            return -1;
        meet(m, d1, w);
        break;
    case PAIR: /* (x1, x2, pre1, pre2): v is the output of (x1, x2) */
        if (as_var(io, &i) || as_var(jo, &j) || mask_at(e->dom, i, d1, w)
            || mask_at(e->dom, j, d2, w))
            return -1;
        if (!is_fixed(d1, w)) {
            if (!is_fixed(d2, w))
                return 1; /* two free inputs: checked later */
            x = i;
            if (mask_at2(aux, top(d2, w), a, m, w))
                return -1;
            meet(m, d1, w);
        } else {
            if (mask_at2(tab, top(d1, w), a, m, w))
                return -1;
            if (is_fixed(d2, w))
                return meets(m, d2, w);
            xo = jo, x = j, dx = d2;
            meet(m, d2, w);
        }
        break;
    case EACH: { /* (-, -, group, masks): each u in group[a] but v within masks[a] */
        PyObject *group = item(tab, a);
        if (!group || mask_at(aux, a, m, w))
            return -1;
        if (!PyList_Check(group)) {
            PyErr_SetString(PyExc_TypeError, "propagate reads lists");
            return -1;
        }
        for (Py_ssize_t k = 0; k < PyList_GET_SIZE(group); k++) {
            xo = PyList_GET_ITEM(group, k);
            if (as_var(xo, &x) || mask_at(e->dom, x, d1, w))
                return -1;
            if (x != v && !within(d1, m, w)) {
                meet(d1, m, w);
                if (empty(d1, w))
                    return 0;
                if (narrow(e, xo, x, d1, w))
                    return -1;
            }
        }
        return 1;
    }
    case TABLE: { /* (inputs, o, table, strides): arity 3 or more */
        if (!PyTuple_Check(io) || !PyTuple_Check(aux)
            || PyTuple_GET_SIZE(io) != PyTuple_GET_SIZE(aux)) {
            PyErr_SetString(PyExc_TypeError, "a table entry's inputs and strides are tuples "
                                             "of one length");
            return -1;
        }
        /* at: the offset of the fixed inputs; the one free input, if any
         * (repeats allowed), moves by step */
        Py_ssize_t at = 0, free = -1, step = 0;
        PyObject *free_o = NULL;
        for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(io); k++) {
            PyObject *yo = PyTuple_GET_ITEM(io, k);
            const Py_ssize_t stride = PyLong_AsSsize_t(PyTuple_GET_ITEM(aux, k));
            Py_ssize_t y;
            if ((stride == -1 && PyErr_Occurred()) || as_var(yo, &y)
                || mask_at(e->dom, y, d1, w))
                return -1;
            if (is_fixed(d1, w))
                at += top(d1, w) * stride;
            else if (y == free)
                step += stride;
            else if (free < 0)
                free = y, free_o = yo, step = stride;
            else
                return 1; /* two distinct free inputs: checked later */
        }
        xo = jo, dx = d2;
        if (as_var(jo, &x) || mask_at(e->dom, x, d2, w))
            return -1;
        if (free < 0) { /* narrow the output to the image */
            if (mask_at(tab, at, m, w))
                return -1;
            meet(m, d2, w);
            break;
        }
        /* keep the values of the free input whose image lies in the
         * output's domain (or, when it is the output, contains it), and
         * narrow the output to those images */
        if (mask_at(e->dom, free, d1, w))
            return -1;
        memset(ay, 0, w * sizeof(word));
        memset(m, 0, w * sizeof(word));
        FOR_EACH(y, d1, w) {
            word c[MAX_WORDS];
            if (mask_at(tab, at + (Py_ssize_t)y * step, c, w))
                return -1;
            if (free == x ? has(c, y) : meets(d2, c, w)) {
                put(ay, y);
                join(m, c, w);
            }
        }
        if (empty(ay, w))
            return 0;
        if (!same(ay, d1, w) && narrow(e, free_o, free, ay, w))
            return -1;
        if (free == x)
            return 1;
        break;
    }
    default:
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "unknown entry kind %zd", kind);
        return -1;
    }
    if (!same(m, dx, w)) {
        if (empty(m, w))
            return 0;
        if (narrow(e, xo, x, m, w))
            return -1;
    }
    return 1;
}

/* The loop over the queue: 1 at a fixpoint, 0 on a wipeout, -1 on an
 * error. Inlined twice, so that the code for one word is compiled with
 * w = 1 known. */
static inline __attribute__((always_inline)) int run(const engine *e, PyObject *props,
                                                     int64_t w)
{
    Py_ssize_t n;
    while ((n = PyList_GET_SIZE(e->queue))) {
        Py_ssize_t v;
        word dv[MAX_WORDS];
        if (as_var(PyList_GET_ITEM(e->queue, n - 1), &v)
            || PyList_SetSlice(e->queue, n - 1, n, NULL) || mask_at(e->dom, v, dv, w))
            return -1;
        const Py_ssize_t a = top(dv, w);
        PyObject *entries = item(props, v);
        if (!entries || !PyList_Check(entries)) {
            if (entries)
                PyErr_SetString(PyExc_TypeError, "propagate reads lists");
            return -1;
        }
        Py_INCREF(entries);
        int go = 1;
        for (Py_ssize_t k = 0; k < PyList_GET_SIZE(entries) && go > 0; k++)
            go = run_entry(e, PyList_GET_ITEM(entries, k), v, a, w);
        Py_DECREF(entries);
        if (go <= 0)
            return go;
    }
    return 1;
}

static PyObject *py_propagate(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError, "propagate takes 5 arguments, not %zd", nargs);
    const engine e = {args[0], args[1], args[2]};
    const Py_ssize_t w = PyLong_AsSsize_t(args[4]);
    if (w < 1 || w > MAX_WORDS)
        return PyErr_Occurred() ? NULL
                                : PyErr_Format(PyExc_ValueError, "propagate reads masks of 1 to "
                                                                 "%d words, not %zd", MAX_WORDS, w);
    if (!PyList_Check(e.dom) || !PyList_Check(e.trail) || !PyList_Check(e.queue)) {
        PyErr_SetString(PyExc_TypeError, "propagate reads lists");
        return NULL;
    }
    const int go = w == 1 ? run(&e, args[3], 1) : run(&e, args[3], w);
    if (go < 0)
        return NULL;
    return PyBool_FromLong(go);
}

static PyMethodDef methods[] = {
    {"root", (PyCFunction)(void (*)(void))py_root, METH_FASTCALL,
     "root(nb, ops, d): root arc consistency on the uint64 domain words d, in place; "
     "the number of pairs removed, or -1 minus it on a wipeout."},
    {"propagate", (PyCFunction)(void (*)(void))py_propagate, METH_FASTCALL,
     "propagate(dom, trail, queue, props, w): the engine's propagation to a fixpoint on "
     "these lists, masks of at most w words; False on a wipeout."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "homfactor._native_ext", NULL, -1,
                                    methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__native_ext(void) { return PyModule_Create(&module); }
