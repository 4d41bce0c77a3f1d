"""The numpy root pass, kept as a reference for the C routine behind
solver._consistent_domains: the same sweeps over bool domain matrices,
with one matrix product per gather or count.

numpy_root returns what the C routine must: the pruned domains (None on a
wipeout) and the number of (element, value) pairs removed, counted where
the sweep that emptied a domain ended. root runs the C routine on bool
matrices, for comparison.
"""

import functools

import numpy as np

from homfactor.solver import _bools, _consistent_domains, _words


def root(a, b, d, max_arity, stats=None):
    """_consistent_domains on a bool matrix, with a bool matrix out."""
    out = _consistent_domains(a, b, _words(d), max_arity, stats=stats)
    return None if out is None else _bools(out, b.size)


def _incidence(values, n):
    """Float32 one-hot matrix M[i, values[i]] = 1: a product with it
    gathers or counts along a table in one matrix multiply."""
    m = np.zeros((len(values), n), dtype=np.float32)
    m[np.arange(len(values)), values] = 1
    return m


def _keep_images(d, reach, pre):
    """Output image: value c of z survives only if every tuple t with
    op_A(t) = z has some value tuple op_B sends to c (reach[t, c])."""
    return d & ~(pre @ (~reach).astype(np.float32) > 0)


def _revise_unary(ta, tb, pre, img_b, d):
    d = d & d.take(ta, axis=0).take(tb, axis=1)  # input support
    return _keep_images(d, d.astype(np.float32) @ img_b > 0, pre)


def _revise_binary(ta, tb, pre, img_b, d):
    na, nb = d.shape
    df = d.astype(np.float32)
    # input support: u of x1 needs, for every x2, some v in D[x2] with
    # tb[u, v] in D[ta[x1, x2]]; position 2 the same way round. One product
    # per position counts the supports of every (output, value, other
    # argument): by_x2[o, u, x2] = #{v in D[x2] : tb[u, v] in D[o]}, then
    # read at o = ta[x1, x2]; by_x1 likewise with the arguments swapped.
    rows = np.arange(na)
    by_x2 = (df.take(tb, axis=1).reshape(na * nb, nb) @ df.T).reshape(na, nb, na)
    by_x1 = (df.take(tb.T, axis=1).reshape(na * nb, nb) @ df.T).reshape(na, nb, na)
    sup1 = (by_x2[ta, :, rows] > 0).all(axis=1)  # [x1, x2, u], all over x2
    sup2 = (by_x1[ta.T, :, rows] > 0).all(axis=1)  # [x2, x1, v], all over x1
    d = d & sup1 & sup2
    df = d.astype(np.float32)
    # reach[x1, x2, c]: some (u, v) in D[x1] x D[x2] has tb[u, v] = c
    by_u = (df @ img_b).reshape(na, nb, nb)  # [x2, u, c]
    reach = df @ by_u.transpose(1, 0, 2).reshape(nb, na * nb)
    return _keep_images(d, reach.reshape(na * na, nb) > 0, pre)


def _revision(ta, tb, arity, na, nb):
    """The revision step of one unary or binary operation, of the domains."""
    pre = _incidence(ta, na).T  # pre[z, t] = 1 iff op_A(t) = z
    if arity == 1:
        return functools.partial(_revise_unary, ta, tb, pre, _incidence(tb, nb))
    # img_b[v, (u, c)] = 1 iff tb[u, v] = c
    img_b = _incidence(tb, nb).reshape(nb, nb, nb).transpose(1, 0, 2).reshape(nb, nb * nb)
    return functools.partial(_revise_binary, ta.reshape(na, na), tb.reshape(nb, nb),
                             pre, img_b)


def _fixed_points(alg, name, arity):
    """Mask of the elements x with op(x, …, x) = x: entry x·(1 + n + … +
    n^(k−1)) of a flat table of arity k; at arity 0, the constant."""
    n = alg.size
    return alg.table(name)[np.arange(n) * sum(n**i for i in range(arity))] == np.arange(n)


def numpy_root(a, b, d, max_arity):
    """(pruned bool domains or None, pairs removed) for homomorphisms a -> b
    from the bool domains d: the diagonal rule over the operations of arity
    at most max_arity, then their unary and binary revisions in sweeps, with
    the wipeout and unchanged tests after each full sweep."""
    before = int(d.sum())
    revisions = []
    for name, arity in a.signature.ops:
        if arity > max_arity:
            continue
        d = d & (~_fixed_points(a, name, arity)[:, None] | _fixed_points(b, name, arity))
        if arity in (1, 2):
            revisions.append(_revision(a.table(name), b.table(name), arity, a.size, b.size))
    while True:
        prev = d
        for revise in revisions:
            d = revise(d)
        alive = d.any(axis=1).all()
        if not alive or np.array_equal(d, prev):
            break
    return (d if alive else None), before - int(d.sum())
