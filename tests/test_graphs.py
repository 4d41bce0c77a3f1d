import itertools

import hypothesis
import hypothesis.strategies as st
import pytest
import reference_graphs as reference

from homfactor.graphs import (
    Graph,
    _homs,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    graph_catalog,
    graph_core,
    graph_hom,
    graph_retract,
    graphs_isomorphic,
    is_graph_hom,
    is_strong_graph_hom,
    path_graph,
    strong_graph_hom,
    subgraph_embedding,
    validate_graph,
)

K2, K3, K4 = complete_graph(2), complete_graph(3), complete_graph(4)
C4, P3 = cycle_graph(4), path_graph(3)


def test_validate_graph():
    assert validate_graph(K2, loop_free=True, connected=True, min_vertices=2) == []
    assert validate_graph(Graph.undirected(1, []), min_vertices=2)
    assert validate_graph(Graph.undirected(2, []), connected=True)
    loop = Graph.undirected(2, [(0, 0)])
    assert validate_graph(loop, loop_free=True)


def test_graph_hom_examples():
    assert graph_hom(K2, K2) == (0, 1)
    assert graph_hom(K3, K2) is None
    w = graph_hom(C4, K2)
    assert w == (0, 1, 0, 1)
    assert is_graph_hom(w, C4, K2)


def test_graph_hom_mixed_directedness():
    with pytest.raises(ValueError):
        graph_hom(K2, K2.as_directed())


def test_strong_hom_examples():
    assert strong_graph_hom(K2, K2) == (0, 1)
    assert strong_graph_hom(K3, K2) is None
    w = strong_graph_hom(C4, K2)
    assert w == (0, 1, 0, 1)
    assert is_strong_graph_hom(w, C4, K2)


def test_strong_hom_matches_bruteforce_on_small_pairs():
    for g, h in itertools.product(graph_catalog(1, 3), repeat=2):
        expected = any(
            is_strong_graph_hom(phi, g, h)
            for phi in itertools.product(range(h.n), repeat=g.n)
        )
        assert (strong_graph_hom(g, h) is not None) == expected


def test_subgraph_embedding_examples():
    assert subgraph_embedding(K2, K3) == (0, 1)
    assert subgraph_embedding(K3, C4) is None
    assert subgraph_embedding(P3, C4, induced=False) is not None
    # P3 into K3 embeds loosely but not as an induced subgraph
    assert subgraph_embedding(P3, K3, induced=False) is not None
    assert subgraph_embedding(P3, K3, induced=True) is None


def test_graph_retract_examples():
    assert graph_retract(K2, C4) is not None
    assert graph_retract(K3, C4) is None
    into, back = graph_retract(C4, C4)
    assert into == back == (0, 1, 2, 3)
    into, back = graph_retract(K2, C4)
    assert all(back[into[v]] == v for v in range(2))
    assert is_graph_hom(into, K2, C4) and is_graph_hom(back, C4, K2)


def test_graph_core_examples():
    assert graph_core(K4) == K4
    assert graphs_isomorphic(graph_core(C4), K2)
    assert graph_core(K2) == K2
    assert graphs_isomorphic(graph_core(path_graph(4)), K2)


def _least_endomorphism_image(g):
    """Exhaustive scan of all n**n vertex maps; the core's size is the least image."""
    return min(
        len(set(phi))
        for phi in itertools.product(range(g.n), repeat=g.n)
        if is_graph_hom(phi, g, g)
    )


def test_graph_core_size_is_least_endomorphism_image():
    digraphs = [g for n in range(1, 4) for g in enumerate_graphs(n, directed=True)]
    for g in graph_catalog(1, 5) + digraphs:
        assert graph_core(g).n == _least_endomorphism_image(g), g


def test_graph_core_idempotent():
    for g in graph_catalog(1, 4):
        core = graph_core(g)
        assert graphs_isomorphic(graph_core(core), core)


def test_embedding_implies_hom():
    for g, h in itertools.product(graph_catalog(1, 3), repeat=2):
        if subgraph_embedding(g, h) is not None:
            assert graph_hom(g, h) is not None


def test_retract_implies_homs_both_ways():
    for g, h in itertools.product(graph_catalog(1, 3), repeat=2):
        if graph_retract(g, h) is not None:
            assert graph_hom(g, h) is not None
            assert graph_hom(h, g) is not None


def test_strong_implies_hom_on_loop_free():
    for g, h in itertools.product(graph_catalog(2, 3), repeat=2):
        w = strong_graph_hom(g, h)
        if w is not None:
            assert is_graph_hom(w, g, h)


def test_catalog_counts():
    # unlabeled loop-free graphs: 1, 2, 4, 11, 34, 156 for n = 1..6
    assert [len(enumerate_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    # weakly-connected loop-free digraphs: 2, 13, 199 for n = 2..4
    assert [
        len(enumerate_graphs(n, directed=True, connected=True)) for n in (2, 3, 4)
    ] == [2, 13, 199]


def test_catalog_deduplicates_up_to_isomorphism():
    cat = enumerate_graphs(3)
    for g, h in itertools.combinations(cat, 2):
        assert not graphs_isomorphic(g, h)


def test_undirected_graphs_store_both_orientations():
    g = Graph.undirected(3, [(0, 1)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.undirected_pairs() == [(0, 1)]
    assert validate_graph(g) == []


def test_as_directed_and_isolated_vertex():
    d = K2.as_directed()
    assert d.directed and d.has_edge(0, 1) and d.has_edge(1, 0)
    aug, w = K2.with_isolated_vertex()
    assert aug.n == 3 and w == 2 and not aug.is_connected()


# ------------------------------------------------ the bit-mask search against the reference

_FLAGS = {
    "plain": {},
    "strong": {"strong": True},
    "injective": {"injective": True},
    "induced": {"injective": True, "induced": True},
}


@st.composite
def _graph_pair(draw):
    """Two random graphs of one directedness with up to 5 vertices each, loops
    allowed, with a random seed and allowed set for a search from the first
    to the second."""
    directed = draw(st.booleans())

    def graph():
        n = draw(st.integers(0, 5))
        arcs = [(u, v) for u in range(n) for v in range(n) if directed or u <= v]
        edges = draw(st.lists(st.sampled_from(arcs), unique=True)) if arcs else []
        return Graph.digraph(n, edges) if directed else Graph.undirected(n, edges)

    g, h = graph(), graph()
    seed, allowed = {}, None
    if h.n:
        pinned = draw(st.lists(st.integers(0, g.n - 1), unique=True)) if g.n else []
        seed = {v: draw(st.integers(0, h.n - 1)) for v in pinned}
        allowed = draw(st.none() | st.frozensets(st.integers(0, h.n - 1)))
    return g, h, seed, allowed


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
@hypothesis.given(_graph_pair())
def test_homs_yield_the_reference_sequence(case):
    g, h, seed, allowed = case
    for name, flags in _FLAGS.items():
        got = list(_homs(g, h, seed=seed, allowed=allowed, **flags))
        want = list(reference._homs(g, h, seed=seed, allowed=allowed, **flags))
        assert got == want, name


def test_retract_and_core_match_the_reference_on_the_catalogs():
    for cat in (graph_catalog(1, 4), graph_catalog(1, 3, directed=True)):
        for g in cat:
            assert graph_core(g) == reference.graph_core(g)
            for h in cat:
                assert graph_retract(g, h) == reference.graph_retract(g, h)


# ------------------------------------------------ graph_retract by brute force

def _small_graphs_with_loops(directed):
    """One graph per isomorphism class with at most 3 vertices, loops allowed."""
    out = []
    for n in range(4):
        arcs = [(u, v) for u in range(n) for v in range(n) if directed or u <= v]
        seen = set()
        for mask in range(1 << len(arcs)):
            edges = [a for i, a in enumerate(arcs) if mask >> i & 1]
            g = Graph.digraph(n, edges) if directed else Graph.undirected(n, edges)
            forms = {
                frozenset((p[u], p[v]) for u, v in g.edges)
                for p in itertools.permutations(range(n))
            }
            if not forms & seen:
                seen |= forms
                out.append(g)
    return out


def _all_homs(g, h):
    """Every edge-preserving map from g to h, in lexicographic order."""
    return [
        phi for phi in itertools.product(range(h.n), repeat=g.n)
        if all((phi[u], phi[v]) in h.edges for u, v in g.edges)
    ]


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_graph_retract_is_the_least_retraction_pair(directed):
    graphs = _small_graphs_with_loops(directed)
    assert len(graphs) == (117 if directed else 29)
    homs = {(i, j): _all_homs(g, h) for i, g in enumerate(graphs) for j, h in enumerate(graphs)}
    for i, g in enumerate(graphs):
        for j, h in enumerate(graphs):
            least = next((
                (into, back)
                for into in homs[i, j]
                for back in homs[j, i]
                if all(back[into[v]] == v for v in range(g.n))
            ), None)
            got = graph_retract(g, h)
            assert got == least, (g, h)
            if got is not None:
                into = got[0]
                assert len(set(into)) == g.n
                assert all(
                    ((u, v) in g.edges) == ((into[u], into[v]) in h.edges)
                    for u in range(g.n) for v in range(g.n)
                )
