import itertools

import pytest

from homfactor.graphs import (
    Graph,
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
