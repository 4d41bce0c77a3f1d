/* Root arc consistency for homomorphisms A -> B over operation tables: the
 * revision behind homfactor.solver._consistent_domains, built on first
 * import by homfactor._native.
 *
 * A domain is a row of w = ceil(|B| / 64) uint64 words: value y is bit
 * y % 64 of word y / 64. Row x of d is the domain of element x of A. The
 * tables are the algebras' own flat int64 tables (row-major, n**k entries
 * for arity k), read in place and assumed valid.
 *
 * hf_root applies the diagonal rule once, then sweeps the unary and binary
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

/* Root arc consistency over n_ops operations, given as triples (arity,
 * address of A's table, address of B's table) in ops, on the domains in
 * the first na * w words of work, narrowed in place. work holds
 * (5 * na + nb + 2) * w + 3 * na words: the domains, four more rows of na
 * domains, nb rows, two single rows and three int64 per element (stamps
 * and two orders), O((|A| + |B|) * w) in all. Returns the number of
 * (element, value) pairs removed, or -1 minus that number when a domain is
 * empty after the last sweep. */
int64_t hf_root(int64_t na, int64_t nb, int64_t n_ops, const int64_t *ops, word *work)
{
    const int64_t w = (nb + 63) / 64, cells = na * w;
    word *d = work, *prev = d + cells, *src = prev + cells, *acc = src + cells,
         *mask = acc + cells, *rows = mask + cells, *tmp = rows + nb * w;
    int64_t *stamp = (int64_t *)(tmp + 2 * w), *order = stamp + na, *spare = order + na;
    const int64_t before = count(d, cells);
    int alive;
    for (int64_t i = 0; i < n_ops; i++)
        diagonal(ops[3 * i], (const int64_t *)(intptr_t)ops[3 * i + 1],
                 (const int64_t *)(intptr_t)ops[3 * i + 2], na, nb, w, d, tmp);
    do {
        memcpy(prev, d, cells * sizeof(word));
        for (int64_t i = 0; i < n_ops; i++) {
            const int64_t *ta = (const int64_t *)(intptr_t)ops[3 * i + 1];
            const int64_t *tb = (const int64_t *)(intptr_t)ops[3 * i + 2];
            if (ops[3 * i] == 1)
                unary(ta, tb, na, w, d, src, acc, tmp);
            else if (ops[3 * i] == 2)
                binary(ta, tb, na, nb, w, d, src, acc, rows, mask, tmp, stamp, order, spare);
        }
        alive = 1; /* a row meets itself iff it is not empty */
        for (int64_t x = 0; x < na && alive; x++)
            alive = meets(d + x * w, d + x * w, w);
    } while (alive && memcmp(prev, d, cells * sizeof(word)));
    const int64_t removed = before - count(d, cells);
    return alive ? removed : -1 - removed;
}
