import random

import pytest

from rotorsand.catalog import plane_graphs, ribbon_graphs
from rotorsand.errors import InvariantViolation
from rotorsand.multigraph import Multigraph, banana_graph
from rotorsand.ribbon import RibbonGraph
from rotorsand.rotor import (
    RotorConfig,
    RouteStep,
    all_unicycles,
    arc_rearrangements,
    check_cycle_reversal,
    check_no_repeated_crossing,
    functional_cycles,
    make_unicycle,
    reverse_unicycle,
    rotate_one,
    rotors_to_tree,
    route_chip,
    route_divisor,
    tree_to_rotors,
    unicycle_orbit,
    unicycle_step,
    verify_full_spin,
    verify_reversal_equivalence,
)
from rotorsand.sandpile import Divisor, chip


def path_graph():
    return Multigraph(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c")})


def test_tree_to_rotors_path():
    g = path_graph()
    rho = tree_to_rotors(g, {"ab", "bc"}, "c")
    assert rho.rotor("a") == "ab"
    assert rho.rotor("b") == "bc"


def test_rotors_round_trip(fig_graph):
    for t in fig_graph.spanning_trees():
        for s in fig_graph.vertices:
            rho = tree_to_rotors(fig_graph, t, s)
            assert rotors_to_tree(fig_graph, rho) == t


def test_cyclic_rotors_give_none(triangle):
    rho = RotorConfig.make("w", {"u": "uv", "v": "uv"})
    assert rotors_to_tree(triangle, rho) is None


def test_rotate_one(square_ribbon):
    g = square_ribbon.graph
    rho = tree_to_rotors(g, {"ac", "bc", "cs"}, "s")
    # degree-2 vertex: two turns come back
    once = rotate_one(square_ribbon, rho, "b")
    assert once.rotor("b") == "ab"
    assert rotate_one(square_ribbon, once, "b").rotor("b") == "bc"
    with pytest.raises(ValueError):
        rotate_one(square_ribbon, rho, "s")


def test_route_chip_noop_when_chip_is_sink(square_ribbon):
    t = frozenset({"ac", "bc", "cs"})
    out, steps = route_chip(square_ribbon, t, "s", "s", trace=True)
    assert out == t and steps == []


def test_route_chip_drawn_example(square_ribbon):
    t = frozenset({"ac", "bc", "cs"})
    out, steps = route_chip(square_ribbon, t, "c", "s", trace=True)
    assert out == frozenset({"sa", "bc", "ac"})
    assert [(st.chip, st.new_rotor) for st in steps] == [("c", "ac"), ("a", "sa")]


def test_no_directed_edge_repeats_for_adjacent_endpoints():
    for rg in plane_graphs(5):
        g = rg.graph
        for t in g.spanning_trees():
            for e in g.edges:
                u, w = g.ends(e)
                for c, s in ((u, w), (w, u)):
                    _, steps = route_chip(rg, t, c, s, trace=True)
                    assert check_no_repeated_crossing(steps) == []


def test_route_divisor_zero_and_composition(square_ribbon):
    t = frozenset({"ac", "bc", "cs"})
    assert route_divisor(square_ribbon, t, Divisor({}), "s") == t
    twice = route_divisor(square_ribbon, t, 2 * chip("c", "s"), "s")
    once = route_chip(square_ribbon, t, "c", "s")[0]
    assert twice == route_chip(square_ribbon, once, "c", "s")[0]


def test_route_divisor_order_independent(fig_ribbon):
    rng = random.Random(1)
    g = fig_ribbon.graph
    for _ in range(20):
        s = rng.choice(g.vertices)
        d = Divisor({v: rng.randrange(0, 3) for v in g.vertices if v != s})
        d = d - Divisor({s: d.degree()})
        t = rng.choice(g.spanning_trees())
        base = route_divisor(fig_ribbon, t, d, s)
        # a second, explicitly shuffled chip order
        chips = [v for v in g.vertices if v != s for _ in range(d[v])]
        rng.shuffle(chips)
        cur = t
        for c in chips:
            cur, _ = route_chip(fig_ribbon, cur, c, s)
        assert cur == base


def test_route_divisor_matches_chip_by_chip_fold():
    # every tree and sink of every plane graph with at most 4 edges, on each
    # single chip and on seeded divisors of up to 2 chips per vertex
    rng = random.Random(23)
    for rg in plane_graphs(4):
        g = rg.graph
        for s in g.vertices:
            others = [v for v in g.vertices if v != s]
            divisors = [{c: 1} for c in others]
            divisors += [{v: rng.randrange(3) for v in others} for _ in range(3)]
            for t in g.spanning_trees():
                for chips in divisors:
                    cur = t
                    for c in others:
                        for _ in range(chips.get(c, 0)):
                            cur, _ = route_chip(rg, cur, c, s)
                    d = Divisor(chips) - Divisor({s: sum(chips.values())})
                    assert route_divisor(rg, t, d, s) == cur


def test_routing_asserts_acyclic_rotors(square_ribbon, monkeypatch):
    # rotors a -> b and b -> a along ab, c -> b along bc: the chip at c turns
    # onto cs and reaches the sink at once, leaving the a-b cycle in place
    cyclic = RotorConfig.make("s", {"a": "ab", "b": "ab", "c": "bc"})
    monkeypatch.setattr("rotorsand.rotor.tree_to_rotors", lambda g, tree, s: cyclic)
    t = frozenset({"ac", "bc", "cs"})
    with pytest.raises(InvariantViolation):
        route_chip(square_ribbon, t, "c", "s")
    with pytest.raises(InvariantViolation):
        route_divisor(square_ribbon, t, chip("c", "s"), "s")


def test_route_divisor_rejects_bad_input(square_ribbon):
    t = frozenset({"ac", "bc", "cs"})
    with pytest.raises(ValueError):
        route_divisor(square_ribbon, t, chip("c"), "s")
    with pytest.raises(ValueError):
        route_divisor(square_ribbon, t, Divisor({"a": -1, "c": 1}), "s")


def test_unicycle_step_and_full_spin(square_ribbon):
    g = square_ribbon.graph
    u = make_unicycle(
        g, {"a": "ac", "b": "bc", "c": "cs", "s": "sa"}, "a"
    )
    orbit = unicycle_orbit(square_ribbon, u, 2 * len(g.edges))
    assert len(orbit) == 2 * len(g.edges)
    assert unicycle_step(square_ribbon, orbit[-1]) == u


def test_full_spin_sweep_small():
    for rg in ribbon_graphs(5):
        rep = verify_full_spin(rg)
        assert rep["violations"] == [], rg
        assert rep["unicycles"] >= rep["orbits"]


def test_full_spin_counts_match_unicycle_enumeration():
    for rg in ribbon_graphs(4):
        unicycles = all_unicycles(rg.graph)
        orbits = {frozenset(unicycle_orbit(rg, u, 2 * len(rg.graph.edges))) for u in unicycles}
        rep = verify_full_spin(rg)
        assert (rep["unicycles"], rep["orbits"]) == (len(unicycles), len(orbits)), rg


def test_route_chip_matches_rotate_one_loop():
    """route_chip against routing spelled out with rotate_one and rotors_to_tree."""
    for rg in plane_graphs(4):
        g = rg.graph
        for tree in g.spanning_trees():
            for c in g.vertices:
                for s in g.vertices:
                    rho = tree_to_rotors(g, tree, s)
                    steps = []
                    x = c
                    while x != s:
                        rho = rotate_one(rg, rho, x)
                        e = rho.rotor(x)
                        steps.append(RouteStep(len(steps), x, x, e, g.other(e, x)))
                        x = g.other(e, x)
                    expected = (rotors_to_tree(g, rho), steps)
                    assert route_chip(rg, tree, c, s, trace=True) == expected


def test_plane_orbits_contain_reversal():
    for rg in plane_graphs(4):
        rep = verify_reversal_equivalence(rg)
        assert rep["plane"] and not rep["misses"]


def test_twisted_triple_edge_misses_a_reversal():
    tw = RibbonGraph(
        banana_graph(3), {"x": ("e0", "e1", "e2"), "y": ("e0", "e1", "e2")}
    )
    rep = verify_reversal_equivalence(tw)
    assert not rep["plane"]
    assert rep["misses"], "expected an orbit missing its reversal"
    assert rep["equivalence_holds"]


def test_reverse_unicycle_is_involution(fig_graph):
    for u in all_unicycles(fig_graph):
        assert reverse_unicycle(fig_graph, reverse_unicycle(fig_graph, u)) == u


def test_cycle_reversal_checks_exhaustive(triangle_ribbon, square_ribbon):
    for rg in (triangle_ribbon, square_ribbon):
        g = rg.graph
        for t in g.spanning_trees():
            for e in g.edges:
                u, w = g.ends(e)
                for c, s in ((u, w), (w, u)):
                    assert check_cycle_reversal(rg, t, c, s) == []


def test_cycle_reversal_requires_adjacency(square_ribbon):
    with pytest.raises(ValueError):
        check_cycle_reversal(square_ribbon, frozenset({"ac", "bc", "cs"}), "b", "s")


def test_arc_rearrangements_leave_output_unchanged():
    rng = random.Random(13)
    pool = plane_graphs(6)
    for rg in rng.sample(pool, 25):
        g = rg.graph
        trees = g.spanning_trees()
        t = rng.choice(trees)
        e = rng.choice(g.edges)
        u, w = g.ends(e)
        expected, _ = route_chip(rg, t, u, w)
        for variant in arc_rearrangements(rg, t, u, w, rng, samples=3):
            got, _ = route_chip(variant, t, u, w)
            assert got == expected


def naive_cycles(succ):
    """Node sets of the cycles: x is cyclic iff its walk comes back to it."""
    out = set()
    for x in range(len(succ)):
        seen = [x]
        y = succ[x]
        while y is not None and y != x and len(seen) <= len(succ):
            seen.append(y)
            y = succ[y]
        if y == x:
            out.add(frozenset(seen))
    return out


def test_functional_cycles_match_naive_enumeration():
    rng = random.Random(2203)
    for _ in range(500):
        n = rng.randint(1, 9)
        succ = [rng.choice([None, *range(n)]) for _ in range(n)]
        cycles = functional_cycles(succ)
        assert {frozenset(c) for c in cycles} == naive_cycles(succ)
        assert len(cycles) == len(naive_cycles(succ))
        for c in cycles:
            assert [succ[x] for x in c] == c[1:] + c[:1]
