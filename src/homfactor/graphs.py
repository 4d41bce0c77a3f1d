"""Finite graphs and exhaustive graph-level oracles.

Undirected graphs store both orientations of every edge. These oracles
validate every reduction and are intended for desk-scale inputs only; they
share no code with the solver.

One backtracking search, _homs, serves every oracle. Each vertex's
candidates are one int bit mask over h's vertices, narrowed with h's out-
and in-neighbour masks and its loop mask. Vertices are assigned in index
order and candidates taken lowest bit first, so the maps come in
lexicographic order, and every witness returned (graph_hom,
strong_graph_hom, subgraph_embedding, graph_retract, graph_core's retract)
is the lexicographically least one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = [
    "Graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "validate_graph",
    "is_graph_hom",
    "is_strong_graph_hom",
    "graph_hom",
    "strong_graph_hom",
    "subgraph_embedding",
    "graph_retract",
    "graph_core",
    "graphs_isomorphic",
    "enumerate_graphs",
    "graph_catalog",
]


@dataclass(frozen=True)
class Graph:
    directed: bool
    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def undirected(n: int, edges) -> "Graph":
        sym = set()
        for u, v in edges:
            sym.add((int(u), int(v)))
            sym.add((int(v), int(u)))
        return Graph(False, n, frozenset(sym))

    @staticmethod
    def digraph(n: int, edges) -> "Graph":
        return Graph(True, n, frozenset((int(u), int(v)) for u, v in edges))

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    @property
    def loop_free(self) -> bool:
        return all(u != v for u, v in self.edges)

    def undirected_pairs(self) -> list[tuple[int, int]]:
        """Each undirected edge once, (min, max); loops once."""
        return sorted({(min(u, v), max(u, v)) for u, v in self.edges})

    def is_connected(self) -> bool:
        """Weak connectivity; vacuously true for n <= 1."""
        if self.n <= 1:
            return True
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def as_directed(self) -> "Graph":
        """Symmetric digraph with both orientations of every edge."""
        return Graph(True, self.n, self.edges)

    def with_isolated_vertex(self) -> tuple["Graph", int]:
        """Same graph plus one new vertex with no edges; returns (graph, vertex)."""
        return Graph(self.directed, self.n + 1, self.edges), self.n


def complete_graph(n: int) -> Graph:
    return Graph.undirected(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.undirected(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.undirected(n, [(i, i + 1) for i in range(n - 1)])


def validate_graph(
    g: Graph, *, loop_free=False, connected=False, min_vertices=0
) -> list[str]:
    """Report violated requirements; empty report means all hold."""
    problems = []
    for u, v in g.edges:
        if not (0 <= u < g.n and 0 <= v < g.n):
            problems.append(f"edge ({u},{v}) out of range")
    if not g.directed:
        for u, v in g.edges:
            if (v, u) not in g.edges:
                problems.append(f"undirected graph missing reverse of ({u},{v})")
    if loop_free and not g.loop_free:
        problems.append("graph has a loop")
    if connected and not g.is_connected():
        problems.append("graph is not connected")
    if g.n < min_vertices:
        problems.append(f"graph has {g.n} vertices, need at least {min_vertices}")
    return problems


def _check_directedness(g: Graph, h: Graph):
    if g.directed != h.directed:
        raise ValueError("mixed directedness")


def is_graph_hom(phi, g: Graph, h: Graph) -> bool:
    return all((phi[u], phi[v]) in h.edges for u, v in g.edges)


def is_strong_graph_hom(phi, g: Graph, h: Graph) -> bool:
    for u in range(g.n):
        for v in range(g.n):
            if ((u, v) in g.edges) != ((phi[u], phi[v]) in h.edges):
                return False
    return True


def _masks(h: Graph):
    """Out-neighbour and in-neighbour masks of h's vertices, and its loop mask."""
    out = [0] * h.n
    inn = [0] * h.n
    loops = 0
    for u, v in h.edges:
        out[u] |= 1 << v
        inn[v] |= 1 << u
        if u == v:
            loops |= 1 << u
    return out, inn, loops


def _homs(g: Graph, h: Graph, *, strong=False, injective=False, induced=False,
          seed=None, allowed=None):
    """Yield all edge-preserving maps in lexicographic order.

    strong: both directions of the edge condition; induced (with injective):
    non-edges must map to non-edges; seed: dict of pinned values; allowed:
    the vertices of h that unpinned vertices may map to (default: all).

    Each vertex v's candidates are one bit mask over h's vertices: its seed
    or allowed mask, narrowed by h's loop mask, by the images used so far
    (injective), and by one AND per direction for each earlier vertex u with
    image x: x's out-neighbour mask if u → v is an arc of g, x's
    in-neighbour mask if v → u is, and under the strict rule (strong, or
    induced with injective) the complemented mask where g has no such arc.
    Vertices are assigned in index order and values lowest bit first, so the
    maps come in lexicographic order.
    """
    n = g.n
    if n == 0:
        yield ()
        return
    seed = seed or {}
    strict = strong or (induced and injective)
    out, inn, loops = _masks(h)
    if strict:
        not_out = [~o for o in out]
        not_in = [~i for i in inn]
    arcs = g.edges
    free = (1 << h.n) - 1 if allowed is None else sum(1 << w for w in set(allowed))
    base = []
    cons = []
    for v in range(n):
        m = 1 << seed[v] if v in seed else free
        if (v, v) in arcs:
            m &= loops
        elif strict:
            m &= ~loops
        base.append(m)
        links = []
        for u in range(v):
            if (u, v) in arcs:
                links.append((u, out))
            elif strict:
                links.append((u, not_out))
            if (v, u) in arcs:
                links.append((u, inn))
            elif strict:
                links.append((u, not_in))
        cons.append(links)

    phi = [0] * n
    rest = [0] * n  # the candidates of each assigned vertex not yet tried
    used = [0] * n  # the images of the vertices before each one
    last = n - 1
    v = 0
    m = base[0]
    while True:
        if m:
            low = m & -m
            rest[v] = m ^ low
            phi[v] = low.bit_length() - 1
            if v == last:
                yield tuple(phi)
                m = rest[v]
                continue
            v += 1
            m = base[v]
            if injective:
                used[v] = used[v - 1] | low
                m &= ~used[v]
            for u, tab in cons[v]:
                m &= tab[phi[u]]
        else:
            v -= 1
            if v < 0:
                return
            m = rest[v]


def graph_hom(g: Graph, h: Graph):
    """Lexicographically least edge-preserving vertex map, or None."""
    _check_directedness(g, h)
    return next(_homs(g, h), None)


def strong_graph_hom(g: Graph, h: Graph):
    """Lexicographically least map with (u,v) in E_G iff (image) in E_H, or None."""
    _check_directedness(g, h)
    return next(_homs(g, h, strong=True), None)


def subgraph_embedding(g: Graph, h: Graph, induced: bool = False):
    """Injective edge-preserving map; with induced=True also reflects non-edges."""
    _check_directedness(g, h)
    return next(_homs(g, h, injective=True, induced=induced), None)


def graph_retract(g: Graph, h: Graph):
    """Pair (into, back) of homs with back∘into = id_G, or None.

    The pair returned has the lexicographically least `into` that some `back`
    completes, and the least such `back`. Only induced embeddings are tried
    as `into`, which skips no pair: back∘into = id_G makes back, restricted
    to into's image, the inverse of into and a homomorphism from the
    subgraph of h that the image induces to g. So into is an isomorphism
    onto that induced subgraph, loops included, and every `into` that a
    `back` completes is an induced embedding.
    """
    _check_directedness(g, h)
    for into in _homs(g, h, injective=True, induced=True):
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


def graphs_isomorphic(g: Graph, h: Graph) -> bool:
    if g.directed != h.directed or g.n != h.n or len(g.edges) != len(h.edges):
        return False
    for perm in itertools.permutations(range(g.n)):
        if all((perm[u], perm[v]) in h.edges for u, v in g.edges):
            if len({(perm[u], perm[v]) for u, v in g.edges}) == len(h.edges):
                return True
    return False


def _edge_slots(n: int, directed: bool) -> list[tuple[int, int]]:
    if directed:
        return [(u, v) for u in range(n) for v in range(n) if u != v]
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def enumerate_graphs(n: int, *, directed=False, connected=None) -> list[Graph]:
    """All loop-free graphs on exactly n vertices, one per isomorphism class.

    Canonical order: by edge count, then by least edge bitmask. connected
    filters the representatives (weak connectivity for digraphs).
    """
    slots = _edge_slots(n, directed)
    m = len(slots)
    slot_index = {e: i for i, e in enumerate(slots)}
    perms = list(itertools.permutations(range(n)))
    perm_maps = []
    for p in perms:
        perm_maps.append([slot_index[(p[u], p[v]) if directed else (min(p[u], p[v]), max(p[u], p[v]))] for u, v in slots])

    seen = bytearray(1 << m)
    reps = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        bits = [i for i in range(m) if mask >> i & 1]
        orbit_masks = set()
        for pm in perm_maps:
            pm_mask = 0
            for i in bits:
                pm_mask |= 1 << pm[i]
            orbit_masks.add(pm_mask)
        for om in orbit_masks:
            seen[om] = 1
        canon = min(orbit_masks)
        reps.append((len(bits), canon))
    reps.sort()
    out = []
    for _, mask in reps:
        edges = [slots[i] for i in range(m) if mask >> i & 1]
        g = Graph.digraph(n, edges) if directed else Graph.undirected(n, edges)
        if connected is not None and g.is_connected() != connected:
            continue
        out.append(g)
    return out


def graph_catalog(min_n: int, max_n: int, *, directed=False, connected=None) -> list[Graph]:
    out = []
    for n in range(min_n, max_n + 1):
        out.extend(enumerate_graphs(n, directed=directed, connected=connected))
    return out
