/* The C half of homfactor.solver, one CPython extension module built on
 * first import by homfactor._native. It holds two functions:
 *
 * root(nb, ops, d): root arc consistency for homomorphisms A -> B over
 * operation tables, behind homfactor.solver._consistent_domains;
 * propagate(dom, trail, queue, props, check): the search engine's
 * propagation to a fixpoint, _Engine.propagate, for engines whose targets
 * have at most 64 elements.
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
 * propagate(dom, trail, queue, props, check) is _Engine.propagate in
 * homfactor.solver, on the engine's own lists: dom, the domains as int
 * bitmasks; trail, the (var, mask before the change) records; queue, the
 * stack of variables newly fixed; props, each variable's list of compiled
 * 5-tuples (kind, i, j, tab, aux). The caller guarantees that every target
 * has at most 64 elements, so each mask is one uint64 word; a table's mask
 * is read modulo 2**64, which keeps the negative masks ~(1 << c) of the
 * side conditions. The entries run in their list's order, the queue is
 * popped from its end, and each narrowing appends the same trail record
 * and queue entry as the Python loop, so the two leave equal states. A
 * _TABLE entry (arity 3 or more) is checked by calling back
 * check(dom, trail, queue, i, j, tab, aux). */

enum { ROW, PAIR, PRE, TABLE, EACH }; /* solver's _ROW, _PAIR, _PRE, _TABLE, _EACH */

typedef struct {
    PyObject *dom, *trail, *queue;
} engine;

static inline int is_fixed(word d) { return !(d & (d - 1)); }

/* d.bit_length() - 1: a singleton's value */
static inline Py_ssize_t top(word d) { return d ? 63 - __builtin_clzll(d) : -1; }

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

static inline int as_mask(PyObject *o, word *m)
{
    if (!o)
        return -1;
    *m = PyLong_AsUnsignedLongLongMask(o);
    return *m == (word)-1 && PyErr_Occurred() ? -1 : 0;
}

/* the mask seq[i] */
static inline int mask_at(PyObject *seq, Py_ssize_t i, word *m) { return as_mask(item(seq, i), m); }

/* the mask seq[i][k] */
static inline int mask_at2(PyObject *seq, Py_ssize_t i, Py_ssize_t k, word *m)
{
    PyObject *row = item(seq, i);
    return row ? mask_at(row, k, m) : -1;
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
static int narrow(const engine *e, PyObject *xo, Py_ssize_t x, word m)
{
    PyObject *mo = PyLong_FromUnsignedLongLong(m), *rec = PyTuple_New(2);
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
    return is_fixed(m) ? PyList_Append(e->queue, xo) : 0;
}

/* One entry of the variable v, fixed to the value a: 1 to go on, 0 on a
 * wipeout, -1 on an error. */
static int run_entry(const engine *e, PyObject *check, PyObject *entry, Py_ssize_t v,
                     Py_ssize_t a)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 5) {
        PyErr_SetString(PyExc_TypeError, "an entry is a 5-tuple");
        return -1;
    }
    PyObject *io = PyTuple_GET_ITEM(entry, 1), *jo = PyTuple_GET_ITEM(entry, 2),
             *tab = PyTuple_GET_ITEM(entry, 3), *aux = PyTuple_GET_ITEM(entry, 4), *xo;
    const long kind = PyLong_AsLong(PyTuple_GET_ITEM(entry, 0));
    Py_ssize_t i, j, x;
    word dx, m;
    /* each kind but _EACH and _TABLE ends in narrowing x from dx to m */
    switch (kind) {
    case ROW: { /* (o, w, rows, pres): rows[a][w] = o */
        word dw;
        if (as_var(io, &i) || as_var(jo, &j) || mask_at(e->dom, i, &dx)
            || mask_at(e->dom, j, &dw))
            return -1;
        xo = io, x = i;
        if (is_fixed(dw)) {
            if (mask_at2(tab, a, top(dw), &m))
                return -1;
            m &= dx;
            break;
        }
        /* j free: keep the values whose image is in i's domain */
        word ay = 0;
        if (is_fixed(dx)) {
            if (mask_at2(aux, a, top(dx), &ay))
                return -1;
            ay &= dw;
            m = dx;
        } else {
            PyObject *row = item(tab, a);
            if (!row)
                return -1;
            m = 0;
            for (word rest = dw; rest; rest &= rest - 1) {
                word c;
                if (mask_at(row, __builtin_ctzll(rest), &c))
                    return -1;
                if (dx & c) {
                    ay |= rest & -rest;
                    m |= c;
                }
            }
        }
        if (!ay)
            return 0;
        if (ay != dw && narrow(e, jo, j, ay))
            return -1;
        break;
    }
    case PRE: /* (x, -, pre, -): x within pre[a] */
        if (as_var(io, &i) || mask_at(e->dom, i, &dx) || mask_at(tab, a, &m))
            return -1;
        xo = io, x = i;
        m &= dx;
        break;
    case PAIR: { /* (x1, x2, pre1, pre2): v is the output of (x1, x2) */
        word d1, d2;
        if (as_var(io, &i) || as_var(jo, &j) || mask_at(e->dom, i, &d1)
            || mask_at(e->dom, j, &d2))
            return -1;
        if (!is_fixed(d1)) {
            if (!is_fixed(d2))
                return 1; /* two free inputs: checked later */
            xo = io, x = i, dx = d1;
            if (mask_at2(aux, top(d2), a, &m))
                return -1;
            m &= d1;
        } else if (!is_fixed(d2)) {
            xo = jo, x = j, dx = d2;
            if (mask_at2(tab, top(d1), a, &m))
                return -1;
            m &= d2;
        } else {
            if (mask_at2(tab, top(d1), a, &m))
                return -1;
            return (m & d2) != 0;
        }
        break;
    }
    case EACH: { /* (-, -, group, masks): each w in group[a] but v within masks[a] */
        PyObject *group = item(tab, a);
        if (!group || mask_at(aux, a, &m))
            return -1;
        if (!PyList_Check(group)) {
            PyErr_SetString(PyExc_TypeError, "propagate reads lists");
            return -1;
        }
        for (Py_ssize_t k = 0; k < PyList_GET_SIZE(group); k++) {
            xo = PyList_GET_ITEM(group, k);
            if (as_var(xo, &x) || mask_at(e->dom, x, &dx))
                return -1;
            if ((dx & m) != dx && x != v) {
                if (!(dx & m))
                    return 0;
                if (narrow(e, xo, x, dx & m))
                    return -1;
            }
        }
        return 1;
    }
    case TABLE: {
        PyObject *argv[7] = {e->dom, e->trail, e->queue, io, jo, tab, aux};
        Py_INCREF(entry); /* the callback may drop the last other reference */
        PyObject *r = PyObject_Vectorcall(check, argv, 7, NULL);
        Py_DECREF(entry);
        if (!r)
            return -1;
        const int ok = PyObject_IsTrue(r);
        Py_DECREF(r);
        return ok;
    }
    default:
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "unknown entry kind %ld", kind);
        return -1;
    }
    if (m != dx) {
        if (!m)
            return 0;
        if (narrow(e, xo, x, m))
            return -1;
    }
    return 1;
}

static PyObject *py_propagate(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError, "propagate takes 5 arguments, not %zd", nargs);
    const engine e = {args[0], args[1], args[2]};
    PyObject *props = args[3], *check = args[4];
    if (!PyList_Check(e.dom) || !PyList_Check(e.trail) || !PyList_Check(e.queue)) {
        PyErr_SetString(PyExc_TypeError, "propagate reads lists");
        return NULL;
    }
    Py_ssize_t n;
    while ((n = PyList_GET_SIZE(e.queue))) {
        Py_ssize_t v;
        word dv;
        if (as_var(PyList_GET_ITEM(e.queue, n - 1), &v)
            || PyList_SetSlice(e.queue, n - 1, n, NULL) || mask_at(e.dom, v, &dv))
            return NULL;
        const Py_ssize_t a = top(dv);
        PyObject *entries = item(props, v);
        if (!entries || !PyList_Check(entries)) {
            if (entries)
                PyErr_SetString(PyExc_TypeError, "propagate reads lists");
            return NULL;
        }
        Py_INCREF(entries);
        for (Py_ssize_t k = 0; k < PyList_GET_SIZE(entries); k++) {
            const int go = run_entry(&e, check, PyList_GET_ITEM(entries, k), v, a);
            if (go <= 0) {
                Py_DECREF(entries);
                if (go < 0)
                    return NULL;
                Py_RETURN_FALSE;
            }
        }
        Py_DECREF(entries);
    }
    Py_RETURN_TRUE;
}

static PyMethodDef methods[] = {
    {"root", (PyCFunction)(void (*)(void))py_root, METH_FASTCALL,
     "root(nb, ops, d): root arc consistency on the uint64 domain words d, in place; "
     "the number of pairs removed, or -1 minus it on a wipeout."},
    {"propagate", (PyCFunction)(void (*)(void))py_propagate, METH_FASTCALL,
     "propagate(dom, trail, queue, props, check): _Engine.propagate on these lists, "
     "for targets of at most 64 elements."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "homfactor._native_ext", NULL, -1,
                                    methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__native_ext(void) { return PyModule_Create(&module); }
