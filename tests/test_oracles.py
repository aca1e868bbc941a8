"""networkx as an independent oracle for tree counts and planarity."""

import pytest

from rotorsand import catalog, sandpile
from rotorsand.multigraph import Multigraph, complete_graph

nx = pytest.importorskip("networkx")


def to_networkx(g: Multigraph):
    out = nx.MultiGraph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.ends(e) for e in g.edges)
    return out


def test_tree_counts_match_networkx():
    graphs = catalog.connected_multigraphs(6)
    assert len(graphs) == 156
    for g in graphs:
        expected = round(nx.number_of_spanning_trees(to_networkx(g)))
        assert len(g.spanning_trees()) == sandpile.tree_count(g) == expected


def k33() -> Multigraph:
    return Multigraph(
        ["a0", "a1", "a2", "b0", "b1", "b2"],
        {f"a{i}b{j}": (f"a{i}", f"b{j}") for i in range(3) for j in range(3)},
    )


def k5_minus_edge() -> Multigraph:
    g = complete_graph(5)
    return g.delete(g.edges[0])


@pytest.mark.parametrize(
    "g, plane",
    [(complete_graph(4), True), (k5_minus_edge(), True), (complete_graph(5), False), (k33(), False)],
    ids=["K4", "K5-minus-an-edge", "K5", "K3,3"],
)
def test_planarity_matches_networkx(g, plane):
    found = bool(catalog.rotation_systems(g, plane_only=True))
    is_planar, _ = nx.check_planarity(to_networkx(g))
    assert found == is_planar == plane
