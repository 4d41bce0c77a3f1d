"""networkx's VF2 matchers as a second, independent oracle for the graph
embedding and isomorphism checks. Test-only: networkx is no dependency of
the package, and the module is skipped when it is missing."""

import itertools

import pytest

from homfactor.graphs import graph_catalog, graphs_isomorphic, subgraph_embedding

nx = pytest.importorskip("networkx")


def _nx(g):
    out = nx.DiGraph() if g.directed else nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def _is_embedding(phi, g, h, induced):
    """phi is injective and keeps every edge; induced: every non-edge too."""
    if len(set(phi)) != g.n:
        return False
    for u, v in itertools.permutations(range(g.n), 2):
        edge, image_edge = (u, v) in g.edges, (phi[u], phi[v]) in h.edges
        if edge and not image_edge or induced and image_edge and not edge:
            return False
    return True


@pytest.mark.parametrize("directed, max_n", [(False, 5), (True, 3)])
def test_embeddings_and_isomorphism_match_networkx(directed, max_n):
    graphs = graph_catalog(1, max_n, directed=directed)
    matcher = nx.isomorphism.DiGraphMatcher if directed else nx.isomorphism.GraphMatcher
    nxs = [_nx(g) for g in graphs]
    for (g, gx), (h, hx) in itertools.product(zip(graphs, nxs), repeat=2):
        # GraphMatcher(H, G) asks whether G embeds into H
        m = matcher(hx, gx)
        for induced, expected in ((True, m.subgraph_is_isomorphic()),
                                  (False, m.subgraph_is_monomorphic())):
            phi = subgraph_embedding(g, h, induced=induced)
            assert (phi is not None) == expected, (g, h, induced)
            assert phi is None or _is_embedding(phi, g, h, induced)
        assert graphs_isomorphic(g, h) == matcher(hx, gx).is_isomorphic(), (g, h)
