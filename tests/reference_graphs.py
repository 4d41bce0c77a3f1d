"""The graph oracles' search as it was before candidate sets became bit masks:
the reference that tests/test_graphs.py compares homfactor.graphs._homs,
graph_retract and graph_core with, sequence for sequence and pair for pair.

_homs tries every vertex of h for each vertex of g in index order and checks
each earlier vertex's edges one by one; graph_retract tries every injective
homomorphism as the embedding, induced or not; graph_core searches with this
_homs. All three are kept verbatim, and share no code with homfactor.graphs
beyond the Graph type and the directedness check.
"""

import itertools

from homfactor.graphs import Graph, _check_directedness


def _homs(g: Graph, h: Graph, *, strong=False, injective=False, induced=False,
          seed=None, allowed=None):
    """Yield all edge-preserving maps in lexicographic order.

    strong: both directions of the edge condition; induced (with injective):
    non-edges must map to non-edges; seed: dict of pinned values; allowed:
    the vertices of h that unpinned vertices may map to (default: all).
    """
    phi = [-1] * g.n
    used = [False] * h.n
    seed = seed or {}
    values = range(h.n) if allowed is None else sorted(allowed)

    def consistent(v, w):
        for u in range(g.n):
            x = phi[u]
            if x < 0:
                continue
            for a, b, fa, fb in ((u, v, x, w), (v, u, w, x)):
                ge = (a, b) in g.edges
                he = (fa, fb) in h.edges
                if ge and not he:
                    return False
                if (strong or (induced and injective)) and he and not ge:
                    return False
        ge = (v, v) in g.edges
        he = (w, w) in h.edges
        if ge and not he:
            return False
        if (strong or (induced and injective)) and he and not ge:
            return False
        return True

    def rec(v):
        if v == g.n:
            yield tuple(phi)
            return
        for w in [seed[v]] if v in seed else values:
            if injective and used[w]:
                continue
            if consistent(v, w):
                phi[v] = w
                used[w] = True
                yield from rec(v + 1)
                used[w] = False
                phi[v] = -1

    if g.n == 0:
        yield ()
        return
    yield from rec(0)


def graph_retract(g: Graph, h: Graph):
    """Pair (into, back) of homs with back∘into = id_G, or None."""
    _check_directedness(g, h)
    for into in _homs(g, h, injective=True):
        seed = {into[v]: v for v in range(g.n)}
        back = next(_homs(h, g, seed=seed), None)
        if back is not None:
            return into, back
    return None


def graph_core(g: Graph) -> Graph:
    """Minimum-size retract, reindexed; ties broken by least vertex set."""
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            # a retraction onto subset: a hom g -> g fixing it, image inside it
            if next(_homs(g, g, seed={v: v for v in subset}, allowed=subset), None) is not None:
                index = {v: i for i, v in enumerate(subset)}
                edges = {
                    (index[u], index[v])
                    for u, v in g.edges
                    if u in index and v in index
                }
                return Graph(g.directed, size, frozenset(edges))
    return g
