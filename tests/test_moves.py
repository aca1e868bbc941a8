import random
from collections import deque
from itertools import product

import pytest

from rotorsand import moves
from rotorsand.catalog import plane_graphs
from rotorsand.multigraph import Multigraph, complete_graph, cycle_graph
from rotorsand.ribbon import RibbonGraph
from rotorsand.moves import (
    TelescopeLabels,
    classify_pair,
    complements_are_trees,
    is_rotatable,
    is_single_step_tree,
    leaf_swap_path,
    matches_telescope,
    source_turn_neighbors,
    source_turn_path,
    telescope,
    verify_telescope_equivalence,
)
from rotorsand.rotor import route_chip, tree_to_rotors
from rotorsand.sandpile import chip
from rotorsand.torsor import TorsorAction


def precedes(g: Multigraph, tree, root: str, a: str, b: str) -> bool:
    """Is b on the tree path from a to the root (strictly)?"""
    if a == b:
        return False
    rotors = tree_to_rotors(g, tree, root)
    at = a
    while at != root:
        at = g.other(rotors[at], at)
        if at == b:
            return True
    return False


def simulate_pair(rg: RibbonGraph, tree, c: str, s: str):
    """Oracle for classify_pair: literally run the routing loop."""
    out, steps = route_chip(rg, tree, c, s, trace=True)
    return out, len(steps)


@pytest.fixture
def swap_ribbon():
    """The square with one diagonal carrying the three showcase pairs:
    a=(0,0), b=(2,0), c=(0,2), d=(2,2); tree = top, diagonal, bottom."""
    g = Multigraph(
        ["a", "b", "c", "d"],
        {
            "left": ("a", "c"),
            "right": ("b", "d"),
            "top": ("c", "d"),
            "diag": ("a", "d"),
            "bot": ("a", "b"),
        },
    )
    return RibbonGraph(
        g,
        {
            "a": ("bot", "diag", "left"),
            "b": ("right", "bot"),
            "c": ("top", "left"),
            "d": ("top", "diag", "right"),
        },
    )


SHOWCASE_TREE = frozenset({"top", "diag", "bot"})


def test_precedes_basic(swap_ribbon):
    g = swap_ribbon.graph
    t = SHOWCASE_TREE
    assert precedes(g, t, "c", "a", "d")  # path a -> d -> c
    assert not precedes(g, t, "c", "a", "b")
    assert not precedes(g, t, "c", "a", "a")


def test_precedes_matches_rotor_criterion(swap_ribbon):
    from rotorsand.rotor import tree_to_rotors

    g = swap_ribbon.graph
    for t in g.spanning_trees():
        for root in g.vertices:
            rho = tree_to_rotors(g, t, root)
            for e in t:
                x, y = g.ends(e)
                for a, b in ((x, y), (y, x)):
                    if a == root:
                        continue
                    assert precedes(g, t, root, a, b) == (rho[a] == e)


def test_showcase_source_turn(swap_ribbon):
    mv = classify_pair(swap_ribbon, SHOWCASE_TREE, "c", "a")
    assert mv.kind == "source-turn"
    assert (mv.removed, mv.added) == ("top", "left")


def test_showcase_single_step_only(swap_ribbon):
    mv = classify_pair(swap_ribbon, SHOWCASE_TREE, "a", "c")
    assert mv.kind == "single-step"
    assert (mv.removed, mv.added) == ("diag", "left")


def test_showcase_reverse_pair(swap_ribbon):
    assert classify_pair(swap_ribbon, SHOWCASE_TREE, "c", "d") is None
    mv = classify_pair(swap_ribbon, SHOWCASE_TREE, "d", "c")
    assert mv.kind == "reverse-single-step"
    assert (mv.removed, mv.added) == ("top", "left")


def test_classification_agrees_with_simulation():
    rng = random.Random(21)
    pool = [rg for rg in plane_graphs(6) if rg.graph.is_two_connected()]
    for rg in rng.sample(pool, min(30, len(pool))):
        g = rg.graph
        for t in g.spanning_trees():
            for c in g.vertices:
                for s in g.vertices:
                    if c == s:
                        continue
                    mv = classify_pair(rg, t, c, s)
                    out, n = simulate_pair(rg, t, c, s)
                    if mv is not None and mv.kind != "reverse-single-step":
                        assert n == 1 and out == mv.result
                    else:
                        assert n != 1


def test_source_turn_pairs_are_single_step():
    for rg in plane_graphs(5, two_connected=True):
        g = rg.graph
        for t in g.spanning_trees():
            for c in g.vertices:
                for s in g.vertices:
                    if c == s:
                        continue
                    mv = classify_pair(rg, t, c, s)
                    if mv is not None and mv.kind == "source-turn":
                        _, n = simulate_pair(rg, t, c, s)
                        assert n == 1


def test_reverse_pair_routes_to_swap(swap_ribbon):
    # acting by the reverse pair's class swaps the two edges directly
    act = TorsorAction(swap_ribbon)
    mv = classify_pair(swap_ribbon, SHOWCASE_TREE, "d", "c")
    got = act.act(chip("d", "c"), SHOWCASE_TREE)
    assert got == mv.result


def test_reverse_pairs_swap_everywhere():
    for rg in plane_graphs(5, two_connected=True):
        act = TorsorAction(rg)
        g = rg.graph
        for t in g.spanning_trees():
            for c in g.vertices:
                for s in g.vertices:
                    if c == s:
                        continue
                    mv = classify_pair(rg, t, c, s)
                    if mv is not None and mv.kind == "reverse-single-step":
                        assert act.act(chip(c, s), t) == mv.result


def test_rotatable_matches_pair_classification():
    for rg in plane_graphs(5, two_connected=True):
        g = rg.graph
        for t in g.spanning_trees():
            for root in g.vertices:
                for c in g.vertices:
                    if c == root:
                        continue
                    ok, removed, added = is_rotatable(rg, t, root, c)
                    if not ok:
                        continue
                    # a rotatable rotor realizes a single-step pair with the
                    # same edges for the sink across the entering edge
                    s = g.other(added, c)
                    mv = classify_pair(rg, t, c, s)
                    assert mv is not None and mv.kind != "reverse-single-step"
                    assert (mv.removed, mv.added) == (removed, added)


def test_rotation_into_parallel_cycle_not_rotatable():
    g = Multigraph(
        ["x", "y", "z"],
        {"p": ("x", "y"), "q": ("x", "y"), "r": ("y", "z"), "t": ("x", "z")},
    )
    rg = RibbonGraph(g, {"x": ("p", "q", "t"), "y": ("q", "p", "r"), "z": ("r", "t")})
    assert rg.is_plane()
    # rotor at x turns from t onto p while y points back along q: the two
    # parallel edges close a directed 2-cycle
    t = frozenset({"q", "t"})
    ok, removed, added = is_rotatable(rg, t, "z", "x")
    assert not ok and removed == "t" and added == "p"


def test_source_turn_path_identity(swap_ribbon):
    t = SHOWCASE_TREE
    assert source_turn_path(swap_ribbon, t, t) == []


def test_source_turn_path_all_pairs(square_ribbon):
    g = square_ribbon.graph
    trees = g.spanning_trees()
    for t1 in trees:
        for t2 in trees:
            seq = source_turn_path(square_ribbon, t1, t2)
            cur = t1
            for mv in seq:
                assert mv.tree == cur
                assert mv.kind == "source-turn"
                cur = mv.result
            assert cur == t2


def test_source_turn_moves_match_routing(square_ribbon):
    g = square_ribbon.graph
    trees = g.spanning_trees()
    for t1 in trees:
        for t2 in trees:
            for mv in source_turn_path(square_ribbon, t1, t2):
                routed, steps = route_chip(square_ribbon, mv.tree, mv.c, mv.s, trace=True)
                assert len(steps) == 1 and routed == mv.result


def test_source_turn_requires_two_connected():
    g = Multigraph(
        ["a", "b", "c"], {"ab": ("a", "b"), "ab2": ("a", "b"), "bc": ("b", "c")}
    )
    rg = RibbonGraph(g, {"a": ("ab", "ab2"), "b": ("ab", "ab2", "bc"), "c": ("bc",)})
    with pytest.raises(ValueError):
        source_turn_path(rg, frozenset({"ab", "bc"}), frozenset({"ab2", "bc"}))


def test_paths_reject_non_spanning_start_or_goal(square_ribbon):
    g = square_ribbon.graph
    tree, other = frozenset({"ac", "bc", "cs"}), g.spanning_trees()[-1]
    finders = (
        lambda a, b: source_turn_path(square_ribbon, a, b),
        lambda a, b: leaf_swap_path(g, a, b),
    )
    for bad in (frozenset({"ac", "bc"}), frozenset({"ab", "ac", "bc"}), frozenset({"ac", "bc", "xx"})):
        for find in finders:
            for start, goal in ((bad, tree), (tree, bad)):
                with pytest.raises(ValueError, match="inputs must be spanning trees"):
                    find(start, goal)
            # a search already run from tree still checks a goal it has not reached
            find(tree, other)
            with pytest.raises(ValueError, match="inputs must be spanning trees"):
                find(tree, bad)


def reference_tree_path(step, start, goal):
    """A breadth-first search per pair that stops at its goal: the path
    finder as it was before one search per start tree replaced it."""
    back = {start: None}
    frontier = deque([start])
    while frontier and goal not in back:
        t = frontier.popleft()
        for mv, t2 in step(t):
            if t2 not in back:
                back[t2] = (mv, t)
                frontier.append(t2)
    moves = []
    while back[goal] is not None:
        mv, goal = back[goal]
        moves.append(mv)
    return moves[::-1]


def reference_leaf_swaps(g, t):
    for c in g.vertices:
        inc = [e for e in t if c in g.ends(e)]
        if len(inc) != 1:
            continue
        for f in g.incident(c):
            if f != inc[0] and f not in t:
                t2 = t - {inc[0]} | {f}
                yield t2, t2


def test_paths_match_per_pair_search():
    # all ordered tree pairs of every 2-connected plane graph with at most 5
    # edges, source-turn paths first and then leaf-swap paths, as the moves
    # sweep asks for them
    pairs = 0
    for rg in plane_graphs(5, two_connected=True):
        g = rg.graph
        trees = g.spanning_trees()

        def turns(t):
            return ((mv, mv.result) for mv in source_turn_neighbors(rg, t))

        def swaps(t):
            return reference_leaf_swaps(g, t)

        for t1, t2 in product(trees, repeat=2):
            assert source_turn_path(rg, t1, t2) == reference_tree_path(turns, t1, t2)
        for t1, t2 in product(trees, repeat=2):
            assert leaf_swap_path(g, t1, t2) == [t1] + reference_tree_path(swaps, t1, t2)
            pairs += 1
    assert pairs == 356


def first_spanning_tree(g):
    """A spanning tree without listing them all: Kruskal in edge order."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    tree = set()
    for e in g.edges:
        a, b = (find(v) for v in g.ends(e))
        if a != b:
            root[a] = b
            tree.add(e)
    return frozenset(tree)


def test_single_path_queries_stop_at_their_goal():
    # a telescope with 56,592 spanning trees: a query for a near goal reads
    # only a few of them, where a full search from the start reads them all
    rg, _ = telescope(4, [1, 2, 1, 2, 1])
    g = rg.graph
    t = first_spanning_tree(g)
    assert source_turn_path(rg, t, t) == []
    assert leaf_swap_path(g, t, t) == [t]
    mv = source_turn_neighbors(rg, t)[0]
    far = source_turn_neighbors(rg, mv.result)[-1].result
    path = source_turn_path(rg, t, far)
    assert len(path) == 2 and path[0].tree == t and path[-1].result == far
    back, _ = moves._search(rg, g, moves._source_turns, t)
    assert len(back) < 1000


def test_one_shot_paths_stay_lazy(monkeypatch):
    # a telescope with 6,019,904 spanning trees: paths two moves long are
    # found without listing the trees, and the neighbour table holds only
    # the trees the search expanded
    rg, _ = telescope(6, [1, 2, 1, 2, 1, 2, 1])
    g = rg.graph
    t = first_spanning_tree(g)

    def two_apart(step):
        near = [t2 for _, t2 in step(t)]
        return next(t3 for _, t3 in step(near[0]) if t3 != t and t3 not in near)

    far_turn = two_apart(lambda x: moves._source_turns(rg, x))
    far_swap = two_apart(lambda x: moves._leaf_swaps(g, x))

    def refuse(self):
        raise AssertionError("a one-shot path listed every spanning tree")

    monkeypatch.setattr(Multigraph, "spanning_trees", refuse)
    path = source_turn_path(rg, t, far_turn)
    assert len(path) == 2 and path[0].tree == t and path[-1].result == far_turn
    assert len(moves._neighbours(rg, moves._source_turns)) < 100
    trees = leaf_swap_path(g, t, far_swap)
    assert len(trees) == 3 and trees[0] == t and trees[-1] == far_swap
    assert len(moves._neighbours(g, moves._leaf_swaps)) < 100


def test_moves_check_generates_each_trees_moves_once(monkeypatch):
    # the moves sweep asks for every ordered tree pair of a map; each tree's
    # source-turn and leaf-swap neighbours are still generated only once
    from collections import Counter

    from rotorsand import cli

    turns, swaps = Counter(), Counter()
    source_turns, leaf_swaps = moves.source_turn_neighbors, moves._leaf_swaps

    def counted_turns(rg, t):
        turns[t] += 1
        return source_turns(rg, t)

    def counted_swaps(g, t):
        swaps[t] += 1
        return leaf_swaps(g, t)

    monkeypatch.setattr(moves, "source_turn_neighbors", counted_turns)
    monkeypatch.setattr(moves, "_leaf_swaps", counted_swaps)
    maps = plane_graphs(6, two_connected=True)
    moves._neighbours.cache_clear()  # a table left by an earlier query
    for rg in maps:
        turns.clear()
        swaps.clear()
        trees = rg.graph.spanning_trees()
        assert cli._check_moves(rg) == (2 * len(trees) ** 2, [], [])
        # a map with a single tree asks only for the empty path
        expected = Counter(trees) if len(trees) > 1 else Counter()
        assert turns == expected and swaps == expected
    assert len(maps) == 29


def test_moves_check_reads_where_a_path_starts(monkeypatch):
    # paths patched to start at the first tree whatever the start asked for:
    # every pair from another start is a bad path, an empty one included
    from rotorsand import cli

    rg = next(rg for rg in plane_graphs(4, two_connected=True) if len(rg.graph.edges) == 4)
    trees = rg.graph.spanning_trees()
    path = moves.source_turn_path
    monkeypatch.setattr(moves, "source_turn_path", lambda rg, a, b: path(rg, trees[0], b))
    checked, violations, _ = cli._check_moves(rg)
    assert checked == 2 * len(trees) ** 2 and len(trees) > 2
    bad = [(t1, t2) for t1 in trees[1:] for t2 in trees]
    assert violations == [{"pair": [sorted(t1), sorted(t2)], "error": "bad path"} for t1, t2 in bad]


def test_interleaved_queries_match_per_pair_search():
    # queries from changing starts, in both move kinds, in a seeded order:
    # a resumed search gives the path a fresh one would
    rng = random.Random(8)
    for rg in [rg for rg in plane_graphs(5, two_connected=True) if len(rg.graph.edges) == 5]:
        g = rg.graph
        trees = g.spanning_trees()

        def turns(t):
            return ((mv, mv.result) for mv in source_turn_neighbors(rg, t))

        def swaps(t):
            return reference_leaf_swaps(g, t)

        for _ in range(60):
            t1, t2 = rng.choice(trees), rng.choice(trees)
            if rng.random() < 0.5:
                assert source_turn_path(rg, t1, t2) == reference_tree_path(turns, t1, t2)
            else:
                assert leaf_swap_path(g, t1, t2) == [t1] + reference_tree_path(swaps, t1, t2)


def test_leaf_swap_identity_and_c4():
    g = cycle_graph(4)
    trees = g.spanning_trees()
    assert leaf_swap_path(g, trees[0], trees[0]) == [trees[0]]
    for t1 in trees:
        for t2 in trees:
            path = leaf_swap_path(g, t1, t2)
            assert path[0] == t1 and path[-1] == t2
            for a, b in zip(path, path[1:]):
                gone = a - b
                assert len(gone) == 1 and len(b - a) == 1
                (e,) = gone
                leaf_sides = [v for v in g.ends(e) if sum(1 for x in a if v in g.ends(x)) == 1]
                assert leaf_sides, "removed edge must be a leaf edge"


def test_rotatability_survives_minors():
    # deleting an uninvolved non-tree edge or contracting an uninvolved tree
    # edge preserves rotatability with the same edge pair
    rng = random.Random(31)
    pool = [rg for rg in plane_graphs(6, two_connected=True)]
    for rg in rng.sample(pool, 20):
        g = rg.graph
        t = rng.choice(g.spanning_trees())
        root = rng.choice(g.vertices)
        for c in g.vertices:
            if c == root:
                continue
            ok, removed, added = is_rotatable(rg, t, root, c)
            if not ok:
                continue
            for e in g.edges:
                if e in (removed, added):
                    continue
                if e not in t:
                    sub = rg.delete(e)
                    if not sub.graph.is_two_connected():
                        continue
                    ok2, r2, a2 = is_rotatable(sub, t, root, c)
                    assert ok2 and (r2, a2) == (removed, added)
                elif e in t:
                    vmap = g.contraction_vertex_map(e)
                    if vmap[c] != c or c == vmap[root] or vmap[root] != root:
                        continue
                    sub = rg.contract(e)
                    if not sub.graph.is_two_connected():
                        continue
                    ok2, r2, a2 = is_rotatable(sub, t - {e}, root, c)
                    assert ok2 and (r2, a2) == (removed, added)


# -- telescopes -------------------------------------------------------------


def test_telescope_smallest_is_double_edge():
    rg, labels = telescope(0, [0])
    g = rg.graph
    assert len(g.vertices) == 2 and len(g.edges) == 2
    assert labels.x == labels.s


def test_telescope_drawn_instance_shape():
    rg, labels = telescope(5, [1, 0, 0, 2, 1, 0])
    g = rg.graph
    assert len(g.vertices) == 11
    assert len(g.edges) == 20
    assert rg.is_plane()
    assert rg.next_edge("c", "g") == "f"
    # stage three carries its two rungs between the chain pairs
    assert rg.rotation["z3"] == ("e3", "h3_1", "h3_2", "e4", "he4", "he3")


def test_telescope_hat_edges_share_a_side():
    from rotorsand.ribbon import classify_sides

    rg, lab = telescope(5, [1, 0, 0, 2, 1, 0])
    cyc = [("c", "g")] + [(f"z{i}", f"e{i + 1}") for i in range(5)] + [("z5", "f")]
    sides = classify_sides(rg, cyc)
    hats = {f"he{i}" for i in range(1, 6)}
    assert hats <= sides.left_edges or hats <= sides.right_edges


def test_telescope_edge_count_identity():
    for n in range(0, 3):
        for ks in product(range(3), repeat=n + 1):
            rg, _ = telescope(n, list(ks))
            g = rg.graph
            assert len(g.edges) == 2 * len(g.vertices) - 2


def test_single_step_trees_cross_checked_with_classifier():
    # definition-level oracle: the pair at c steps from g to f, or the
    # f-for-g swap of the tree steps back from g to f
    for n, ks in [(0, [1]), (1, [1, 0]), (1, [0, 1]), (2, [0, 1, 0])]:
        rg, lab = telescope(n, ks)
        g = rg.graph
        for t in g.spanning_trees():
            direct = is_single_step_tree(rg, t, lab)
            mv1 = classify_pair(rg, t, lab.c, lab.s)
            first = (
                mv1 is not None
                and mv1.kind != "reverse-single-step"
                and (mv1.removed, mv1.added) == (lab.g, lab.f)
            )
            second = False
            if lab.f in t and lab.g not in t:
                swapped = t - {lab.f} | {lab.g}
                if g.is_spanning_tree(swapped):
                    mv = classify_pair(rg, swapped, lab.c, lab.s)
                    second = (
                        mv is not None
                        and mv.kind != "reverse-single-step"
                        and (mv.removed, mv.added) == (lab.g, lab.f)
                    )
            assert direct == (first or second), (n, ks, sorted(t))


def test_telescope_complements_are_trees():
    for n in range(0, 3):
        for ks in product(range(3), repeat=n + 1):
            rg, lab = telescope(n, list(ks))
            assert complements_are_trees(rg, lab)
            assert matches_telescope(rg, lab)
            assert verify_telescope_equivalence(rg, lab)


def k4_with_labels():
    k4 = complete_graph(4)
    rot = {
        "v0": ("e0_1", "e0_3", "e0_2"),
        "v1": ("e1_2", "e1_3", "e0_1"),
        "v2": ("e0_2", "e2_3", "e1_2"),
        "v3": ("e2_3", "e0_3", "e1_3"),
    }
    rg = RibbonGraph(k4, rot)
    for t in k4.spanning_trees():
        for c in k4.vertices:
            for s in k4.vertices:
                if c == s:
                    continue
                mv = classify_pair(rg, t, c, s)
                if mv is not None and mv.kind == "source-turn":
                    x = k4.other(mv.removed, c)
                    return rg, TelescopeLabels(c, s, x, mv.added, mv.removed)
    raise AssertionError("no source-turn pair found")


def test_non_telescope_complement_fails():
    rg, lab = k4_with_labels()
    assert rg.is_plane()
    assert not matches_telescope(rg, lab)
    assert not complements_are_trees(rg, lab)
    assert verify_telescope_equivalence(rg, lab)


def test_five_edge_graph_single_step_complement_fails(square_ribbon):
    # an odd edge count can never split into two trees
    mv = None
    g = square_ribbon.graph
    for t in g.spanning_trees():
        got = classify_pair(square_ribbon, t, "c", "s")
        if got is not None and got.kind == "source-turn":
            mv = got
            break
    assert mv is not None
    lab = TelescopeLabels("c", "s", g.other(mv.removed, "c"), mv.added, mv.removed)
    assert not complements_are_trees(square_ribbon, lab)
