import hashlib
import json
from itertools import combinations_with_replacement, permutations, product

from rotorsand.catalog import (
    connected_multigraphs,
    graph_canonical_key,
    plane_graphs,
    ribbon_graphs,
    rotation_systems,
)
from rotorsand.multigraph import Multigraph, banana_graph, complete_graph, cycle_graph
from rotorsand.ribbon import RibbonGraph


def brute_connected_multigraphs(m):
    """Reference enumeration: all edge multisets on up to m+1 vertices,
    canonicalized by trying every vertex permutation."""
    found = set()
    for n in range(2, m + 2):
        pairs = list(combinations_with_replacement(range(n), 2))
        pairs = [p for p in pairs if p[0] != p[1]]
        for multi in combinations_with_replacement(pairs, m):
            used = {x for p in multi for x in p}
            if used != set(range(n)):
                continue
            g = Multigraph(
                [str(i) for i in range(n)],
                {f"e{k}": (str(a), str(b)) for k, (a, b) in enumerate(multi)},
            )
            if not g.is_connected():
                continue
            best = min(
                tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in multi))
                for perm in permutations(range(n))
            )
            found.add((n, best))
    return found


def test_multigraph_counts_match_brute_force():
    for m in range(1, 6):
        ours = connected_multigraphs(m, min_edges=m)
        assert len(ours) == len(brute_connected_multigraphs(m))


def test_multigraph_enumeration_has_no_duplicates():
    keys = [graph_canonical_key(g) for g in connected_multigraphs(6)]
    assert len(keys) == len(set(keys))


def test_known_families_present():
    for m in range(1, 7):
        keys = {graph_canonical_key(g) for g in connected_multigraphs(m, min_edges=m)}
        assert graph_canonical_key(banana_graph(m)) in keys
        assert graph_canonical_key(cycle_graph(m)) in keys
    assert graph_canonical_key(complete_graph(4)) in {
        graph_canonical_key(g) for g in connected_multigraphs(6, min_edges=6)
    }


def brute_rotation_count(g):
    """Count rotation systems up to ribbon isomorphism the slow way."""
    per_vertex = []
    for v in g.vertices:
        inc = sorted(g.incident(v))
        per_vertex.append([(inc[0],) + p for p in permutations(inc[1:])])
    seen = set()
    for combo in product(*per_vertex):
        rg = RibbonGraph(g, dict(zip(g.vertices, combo)))
        seen.add(rg.canonical_form())
    return len(seen)


def test_rotation_systems_match_unnormalized_enumeration():
    for g in connected_multigraphs(5):
        assert len(rotation_systems(g)) == brute_rotation_count(g)


def test_triple_edge_structures():
    systems = rotation_systems(banana_graph(3))
    assert len(systems) == 2
    genera = sorted(rg.euler_genus() for rg in systems)
    assert genera == [0, 1]


def test_plane_graphs_all_plane():
    for rg in plane_graphs(5):
        assert rg.is_plane()


def test_ribbon_counts_small():
    assert len(ribbon_graphs(1)) == 1
    assert len(ribbon_graphs(2, min_edges=2)) == 2
    assert len(ribbon_graphs(3, min_edges=3)) == 6
    assert len(plane_graphs(3, min_edges=3)) == 5


def test_two_connected_filter():
    for rg in plane_graphs(5, two_connected=True):
        assert rg.graph.is_two_connected()


# sha256 of ribbon_graphs(6) as a JSON pair: the to_json list, then the
# canonical_form list.  Pins the catalog's order, labels and canonical forms.
RIBBON_6_SHA256 = "2b764491a6489750866a1150c007d1b084e07b3667ca7366b1d87ca281ecce17"


def test_ribbon_catalog_pinned():
    gs = ribbon_graphs(6)
    text = json.dumps([[rg.to_json() for rg in gs], [list(rg.canonical_form()) for rg in gs]])
    assert hashlib.sha256(text.encode()).hexdigest() == RIBBON_6_SHA256
