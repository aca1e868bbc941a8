"""networkx as an independent oracle for tree counts, planarity and
2-connectivity; Tutte's census of rooted planar maps and an orbit count of
rotation systems for the catalog."""

from fractions import Fraction
from math import factorial, prod

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


def test_two_connectivity_matches_networkx():
    graphs = catalog.connected_multigraphs(7)
    assert len(graphs) == 489
    mismatches = []
    for g in graphs:
        simple = nx.Graph(to_networkx(g))
        expected = len(g.vertices) <= 2 or nx.is_biconnected(simple)
        ix = {v: i for i, v in enumerate(g.vertices)}
        pairs = [(ix[a], ix[b]) for a, b in map(g.ends, g.edges)]
        candidate = catalog._two_connected(len(g.vertices), pairs)
        cuts = set(nx.articulation_points(simple))
        if not (g.is_two_connected() == candidate == expected and g.cut_vertices() == cuts):
            mismatches.append(g.to_json())
    assert mismatches == []
    assert sum(g.is_two_connected() for g in graphs) == 59


def rooted_count(maps, m: int) -> Fraction:
    """Rooted maps: each m-edge map has 2m rootings, one per dart, and its
    automorphisms, one per dart order canonical_labelling returns, identify
    them exactly."""
    return sum(Fraction(2 * m, len(rg.canonical_labelling()[1])) for rg in maps)


def test_plane_catalog_matches_tutte_census():
    # rooted loopless planar maps with m edges (Tutte 1963; OEIS A000260)
    census = [2 * factorial(4 * m + 1) // (factorial(m + 1) * factorial(3 * m + 2)) for m in range(1, 9)]
    assert census == [1, 3, 13, 68, 399, 2530, 16965, 118668]
    for m, expected in enumerate(census, start=1):
        maps = catalog.plane_graphs(m)[len(catalog.plane_graphs(m - 1)):]
        assert rooted_count(maps, m) == expected
        # negative control: a catalog missing any one map falls short
        assert rooted_count(maps[:-1], m) < expected


def automorphism_count(g: Multigraph) -> int:
    """|Aut(g)| acting on darts: the simple graph's automorphisms that keep
    edge multiplicities (networkx), times each parallel class's permutations."""
    simple = nx.Graph()
    simple.add_nodes_from(g.vertices)
    for a, b in map(g.ends, g.edges):
        m = simple.get_edge_data(a, b, {"m": 0})["m"]
        simple.add_edge(a, b, m=m + 1)
    same = nx.algorithms.isomorphism.numerical_edge_match("m", 0)
    matcher = nx.algorithms.isomorphism.GraphMatcher(simple, simple, edge_match=same)
    perms = sum(1 for _ in matcher.isomorphisms_iter())
    return perms * prod(factorial(m) for *_, m in simple.edges(data="m"))


def map_orbits(maps) -> Fraction:
    """Each map counted once per labelled rotation system it stands for,
    over |Aut(g)|: 1/|Aut| with |Aut| its dart orders from canonical_labelling."""
    return sum(Fraction(1, len(rg.canonical_labelling()[1])) for rg in maps)


def test_rotation_systems_match_orbit_count():
    # orbit-stabilizer over the labelled rotation systems of g, which number
    # prod_v (deg v - 1)!: the catalog's maps on g, each weighted 1/|Aut|,
    # sum to that product over |Aut(g)|
    graphs = catalog.connected_multigraphs(7)
    assert len(graphs) == 489
    for g in graphs:
        maps = catalog.rotation_systems(g)
        labelled = prod(factorial(g.degree(v) - 1) for v in g.vertices)
        expected = Fraction(labelled, automorphism_count(g))
        assert map_orbits(maps) == expected, g.to_json()
        # negative control: dropping any one rotation system falls short
        assert map_orbits(maps[1:]) < expected
