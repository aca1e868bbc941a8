import json
from itertools import combinations

import pytest

from rotorsand import sandpile
from rotorsand.catalog import connected_multigraphs
from rotorsand.multigraph import Multigraph, banana_graph, cycle_graph


def graph_from_json(text: str) -> Multigraph:
    return Multigraph.from_obj(json.loads(text))


def brute_spanning_trees(g):
    n = len(g.vertices)
    out = []
    for combo in combinations(g.edges, n - 1):
        if g.is_spanning_tree(combo):
            out.append(frozenset(combo))
    return out


def test_no_loops_allowed():
    with pytest.raises(ValueError):
        Multigraph(["a"], {"e": ("a", "a")})


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        Multigraph(["a", "b"], {"e": ("a", "z")})


class CountedId(str):
    """A vertex id that counts the equality tests made on it."""

    compared = 0

    def __eq__(self, other):
        CountedId.compared += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_building_and_contracting_a_long_path_is_linear():
    # endpoints are looked up, not scanned for: a scan of the vertex tuple
    # makes about n * n / 2 comparisons on an n-vertex path
    n = 2000
    vs = [CountedId(f"v{i:05d}") for i in range(n)]
    edges = {f"e{i:05d}": (vs[i], vs[i + 1]) for i in range(n - 1)}
    CountedId.compared = 0
    g = Multigraph(vs, edges)
    assert CountedId.compared < 4 * n
    CountedId.compared = 0
    h = g.contract("e00000")
    assert CountedId.compared < 8 * n
    assert len(h.vertices) == n - 1 and len(h.edges) == n - 2


def test_contract_triangle_gives_double_edge(triangle):
    got = triangle.contract("uv")
    assert len(got.vertices) == 2
    assert len(got.edges) == 2
    assert got.ends("vw") == got.ends("uw")


def test_contract_double_edge_removes_parallel():
    g = banana_graph(2)
    got = g.contract("e0")
    assert got.vertices == ("x",)
    assert got.edges == ()


def test_contract_tree_edge_of_five_edge_graph(fig_graph):
    for e in ("ab", "bc", "cd", "ac", "ad"):
        got = fig_graph.contract(e)
        # hand count: one vertex fewer, the contracted edge and its
        # parallels gone, nothing else
        assert len(got.vertices) == 3
        assert len(got.edges) == 4
        assert got.is_connected()


def test_delete_triangle_gives_path(triangle):
    got = triangle.delete("uv")
    assert got.is_connected()
    assert len(got.edges) == 2


def test_delete_unknown_edge(triangle):
    with pytest.raises(KeyError):
        triangle.delete("zz")


def test_spanning_trees_counts(fig_graph):
    assert len(fig_graph.spanning_trees()) == 8
    assert len(banana_graph(1).spanning_trees()) == 1
    assert len(cycle_graph(5).spanning_trees()) == 5


def test_spanning_trees_match_brute_force():
    for g in connected_multigraphs(5):
        assert g.spanning_trees() == sorted(
            brute_spanning_trees(g), key=lambda t: tuple(sorted(t))
        )


def test_spanning_tree_invariants(fig_graph):
    for t in fig_graph.spanning_trees():
        assert len(t) == len(fig_graph.vertices) - 1
        assert fig_graph.is_spanning_tree(t)


def test_spanning_trees_deterministic_lex_order(fig_graph):
    trees = fig_graph.spanning_trees()
    keys = [tuple(sorted(t)) for t in trees]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_tree_count_matches_reduced_laplacian_det():
    for g in connected_multigraphs(7):
        assert len(g.spanning_trees()) == sandpile.tree_count(g)


def test_contract_delete_commute():
    for g in connected_multigraphs(5):
        for e in g.edges:
            for f in g.edges:
                if f == e or g.ends(f) == g.ends(e):
                    continue
                a = g.delete(e).contract(f)
                b = g.contract(f).delete(e)
                assert a == b


def test_two_connected_and_cut_vertices(fig_graph):
    assert fig_graph.is_two_connected()
    assert cycle_graph(4).cut_vertices() == frozenset()
    bowtie = Multigraph(
        ["l1", "l2", "x", "r1", "r2"],
        {
            "a": ("l1", "l2"),
            "b": ("l1", "x"),
            "c": ("l2", "x"),
            "d": ("x", "r1"),
            "e": ("x", "r2"),
            "f": ("r1", "r2"),
        },
    )
    assert bowtie.cut_vertices() == frozenset({"x"})
    assert not bowtie.is_two_connected()
    assert bowtie.separates("x", "a", "f")
    assert bowtie.separates("x", "b", "d")
    assert not bowtie.separates("x", "a", "b")
    assert not bowtie.separates("l1", "c", "f")


def test_json_round_trip(fig_graph):
    text = fig_graph.to_json()
    assert graph_from_json(text) == fig_graph
    assert graph_from_json(text).to_json() == text


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        Multigraph.from_obj({"vertices": ["a"]})


def test_connectivity_is_cached(triangle, monkeypatch):
    assert triangle.is_connected() and triangle.is_two_connected()

    def boom(self, skip_vertex=None):
        raise AssertionError("components recomputed")

    monkeypatch.setattr(Multigraph, "_components", boom)
    assert triangle.is_connected() and triangle.is_two_connected()
