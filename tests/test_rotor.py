import random
from itertools import product

import pytest

from rotorsand.catalog import plane_graphs, ribbon_graphs
from rotorsand.cli import reversal_instances
from rotorsand.errors import InvariantViolation
from rotorsand.multigraph import Multigraph, banana_graph
from rotorsand.ribbon import RibbonGraph, SideClassification, classify_sides
from rotorsand.rotor import (
    RouteStep,
    _check_unicycle_leftright,
    _heads,
    _orbits,
    _reversed,
    _route,
    _spin,
    _tree_darts,
    _tree_of,
    _unicycle_arrays,
    check_cycle_reversal,
    check_no_repeated_crossing,
    chip_rows,
    functional_cycles,
    route_chip,
    route_divisor,
    tree_to_rotors,
    verify_full_spin,
    verify_reversal_equivalence,
)
from rotorsand.sandpile import Divisor, chip


# -- an independent string oracle -----------------------------------------------
# Rotor maps {vertex: edge} turned by reading the rotation strings, kept
# separate from the dart arrays the package steps.


def turn(rg, x, e):
    """The edge after e counterclockwise at x, read off rg.rotation."""
    seq = rg.rotation[x]
    return seq[(seq.index(e) + 1) % len(seq)]


def string_cycles(g, rotor_map):
    """The directed cycles of a rotor map, each a frozenset of (vertex, edge)."""
    cycles = set()
    for v in rotor_map:
        walk, x = [], v
        while x in rotor_map and len(walk) <= len(rotor_map):
            walk.append((x, rotor_map[x]))
            x = g.other(rotor_map[x], x)
            if x == v:
                cycles.add(frozenset(walk))
                break
    return cycles


def string_unicycles(g):
    """Every (sorted rotor pairs, chip) with one cycle and the chip on it."""
    out = []
    for combo in product(*(g.incident(v) for v in g.vertices)):
        rotor_map = dict(zip(g.vertices, combo))
        cycles = string_cycles(g, rotor_map)
        if len(cycles) == 1:
            (cycle,) = cycles
            out += [(tuple(sorted(rotor_map.items())), v) for v, _ in sorted(cycle)]
    return out


def string_step(rg, u):
    rotors, chip = dict(u[0]), u[1]
    rotors[chip] = turn(rg, chip, rotors[chip])
    return tuple(sorted(rotors.items())), rg.graph.other(rotors[chip], chip)


def string_orbit(rg, u):
    """The orbit from u, up to and excluding its first return."""
    out = [u]
    for _ in range(2 * len(rg.graph.edges) + 1):
        nxt = string_step(rg, out[-1])
        if nxt == u:
            return out
        out.append(nxt)
    raise AssertionError("unicycle did not return")


def string_reverse(g, u):
    rotors = dict(u[0])
    (cycle,) = string_cycles(g, rotors)
    for v, e in cycle:
        rotors[g.other(e, v)] = e
    return tuple(sorted(rotors.items())), u[1]


def string_reversal(rg):
    """(unicycles, the set of those whose orbit misses their reversal)."""
    unicycles = string_unicycles(rg.graph)
    misses = set()
    for u in unicycles:
        if string_reverse(rg.graph, u) not in string_orbit(rg, u):
            misses.add(u)
    return len(unicycles), misses


def named(rg, rotors):
    """A dart array in the oracle's terms: (vertex, edge) pairs by vertex."""
    vs, edges = rg.graph.vertices, rg.graph.edges
    return tuple((vs[i], edges[d >> 1]) for i, d in enumerate(rotors))


def path_graph():
    return Multigraph(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c")})


def test_tree_to_rotors_path():
    assert tree_to_rotors(path_graph(), {"ab", "bc"}, "c") == {"a": "ab", "b": "bc"}


def test_rotors_round_trip(fig_graph):
    for t in fig_graph.spanning_trees():
        for s in fig_graph.vertices:
            rho = tree_to_rotors(fig_graph, t, s)
            assert s not in rho and len(rho) == len(fig_graph.vertices) - 1
            assert frozenset(rho.values()) == t
            assert not string_cycles(fig_graph, rho)


def test_cyclic_rotors_give_none(triangle_ribbon):
    # rotors u -> v and v -> u along uv close a cycle, so no tree is read off
    rg = triangle_ribbon
    rotors = [rg.dart("uv", "u"), rg.dart("uv", "v"), None]
    assert functional_cycles(_heads(rg, rotors)) == [[0, 1]]
    _route(rg, rotors, 2, 2)  # routing itself only bounds the chip's steps
    with pytest.raises(InvariantViolation, match="cyclic rotor configuration"):
        _tree_of(rg, rotors)


def test_rotate_one(square_ribbon):
    g = square_ribbon.graph
    rotors = _tree_darts(g, {"ac", "bc", "cs"}, "s")
    a, b, s = (g.vertices.index(v) for v in ("a", "b", "s"))
    # degree-2 vertex: two turns come back
    turned = []
    assert _spin(square_ribbon, rotors, b, 1, turned=turned) == a
    assert turned == [rotors[b]] == [square_ribbon.dart("ab", "b")]
    _spin(square_ribbon, rotors, b, 1)
    assert rotors[b] == square_ribbon.dart("bc", "b")
    # a chip at the sink does not move
    assert _spin(square_ribbon, rotors, s, 5, sink=s, turned=turned) == s
    assert len(turned) == 1


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
    rg = square_ribbon
    cyclic = [None] * len(rg.graph.vertices)
    for v, e in {"a": "ab", "b": "ab", "c": "bc"}.items():
        cyclic[rg.graph.vertices.index(v)] = rg.dart(e, v)
    monkeypatch.setattr("rotorsand.rotor._tree_darts", lambda g, tree, s: list(cyclic))
    t = frozenset({"ac", "bc", "cs"})
    with pytest.raises(InvariantViolation):
        route_chip(square_ribbon, t, "c", "s")
    with pytest.raises(InvariantViolation):
        route_divisor(square_ribbon, t, chip("c", "s"), "s")


def test_route_divisor_checks_acyclicity_once(fig_ribbon, monkeypatch):
    # the rotors of a many-chip divisor are read as a tree, and so checked,
    # once at the end; no chip runs a cycle search
    g = fig_ribbon.graph
    s, others = g.vertices[0], g.vertices[1:]
    d = Divisor({v: 2 for v in others}) - Divisor({s: 2 * len(others)})
    t = g.spanning_trees()[0]
    expected = route_divisor(fig_ribbon, t, d, s)
    checks = []
    is_spanning_tree = Multigraph.is_spanning_tree

    def counted(self, edge_set):
        checks.append(edge_set)
        return is_spanning_tree(self, edge_set)

    def no_cycle_search(succ):
        raise AssertionError("routing ran a cycle search")

    monkeypatch.setattr(Multigraph, "is_spanning_tree", counted)
    monkeypatch.setattr("rotorsand.rotor.functional_cycles", no_cycle_search)
    assert route_divisor(fig_ribbon, t, d, s) == expected
    assert checks == [expected]


def test_chip_rows_asserts_acyclic_rotors(square_ribbon, monkeypatch):
    # a routing step patched to leave rotors a -> b and b -> a along ab: the
    # chip still reaches the sink, and the lookup among the trees misses
    rg = square_ribbon
    a, b = (rg.graph.vertices.index(v) for v in "ab")

    def cyclic_spin(rg, rotors, *args):
        x = _spin(rg, rotors, *args)
        rotors[a], rotors[b] = rg.dart("ab", "a"), rg.dart("ab", "b")
        return x

    monkeypatch.setattr("rotorsand.rotor._spin", cyclic_spin)
    with pytest.raises(InvariantViolation, match="cyclic rotor configuration"):
        chip_rows(rg, rg.graph.spanning_trees(), "s")


def test_route_divisor_rejects_bad_input(square_ribbon):
    t = frozenset({"ac", "bc", "cs"})
    with pytest.raises(ValueError):
        route_divisor(square_ribbon, t, chip("c"), "s")
    with pytest.raises(ValueError):
        route_divisor(square_ribbon, t, Divisor({"a": -1, "c": 1}), "s")


def test_unicycle_step_and_full_spin(square_ribbon):
    g = square_ribbon.graph
    u = (tuple(sorted({"a": "ac", "b": "bc", "c": "cs", "s": "sa"}.items())), "a")
    orbit = string_orbit(square_ribbon, u)
    assert len(orbit) == 2 * len(g.edges)
    # the dart spin passes the oracle's states in the same order, and returns
    start = [square_ribbon.dart(e, v) for v, e in u[0]]
    rotors, seen, a = list(start), {}, g.vertices.index("a")
    assert _spin(square_ribbon, rotors, a, len(orbit), seen=seen) == a
    assert [(named(square_ribbon, r), g.vertices[x]) for r, x in seen] == orbit
    assert set(seen.values()) == {(tuple(start), a)}
    assert rotors == start


def test_full_spin_sweep_small():
    for rg in ribbon_graphs(5):
        rep = verify_full_spin(rg)
        assert rep["violations"] == [], rg
        assert rep["unicycles"] >= rep["orbits"]


def test_full_spin_counts_match_unicycle_enumeration():
    for rg in ribbon_graphs(4):
        unicycles = string_unicycles(rg.graph)
        orbits = {frozenset(string_orbit(rg, u)) for u in unicycles}
        rep = verify_full_spin(rg)
        assert (rep["unicycles"], rep["orbits"]) == (len(unicycles), len(orbits)), rg


def test_unicycle_arrays_index_the_product():
    # each single-cycle array sits at its place in the product of the darts
    # around each vertex, and pos and radix give that place back
    for rg in ribbon_graphs(4):
        g = rg.graph
        arrays, pos, radix, size = _unicycle_arrays(g)
        around = [[] for _ in g.vertices]
        for d, v in enumerate(rg.dart_vertex):
            around[v].append(d)
        members = list(product(*around))
        assert size == len(members)
        for index, rotors, cycle in arrays:
            assert members[index] == rotors
            assert sum(pos[d] * r for d, r in zip(rotors, radix)) == index
            assert functional_cycles(_heads(rg, rotors)) == [cycle]
        assert sum(len(c) for _, _, c in arrays) == len(string_unicycles(g))


def test_orbit_numbers_partition_the_unicycles():
    # every unicycle state gets the number of its orbit, each orbit holds
    # 2|E| states, and no other state is numbered
    for rg in ribbon_graphs(4):
        n = len(rg.graph.vertices)
        orbit, walks = _orbits(rg)
        arrays = _unicycle_arrays(rg.graph)[0]
        states = {index * n + c for index, _, cycle in arrays for c in cycle}
        assert {s for s, k in enumerate(orbit) if k} == states
        orbits = len(walks)
        assert sorted(orbit.count(k) for k in range(1, orbits + 1)) == [len(rg.sigma)] * orbits
        # each walk starts on a state of its own orbit and comes back to it
        assert [orbit[state] for state, _, _ in walks] == list(range(1, orbits + 1))
        assert all(end == state for state, end, _ in walks)


def split_rotation(rg, cycles):
    """A copy of rg whose sigma takes the given dart cycles instead."""
    bad = RibbonGraph(rg.graph, rg.rotation)
    sigma = list(bad.sigma)
    for cycle in cycles:
        for d, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[d] = nxt
    bad.sigma = tuple(sigma)
    return bad


def test_full_spin_flags_a_split_rotation():
    # negative control: the darts around x (0, 2, 4, 6 on the quadruple edge)
    # split into two cycles, so no orbit crosses every edge both ways
    rg = RibbonGraph(banana_graph(4), {v: ("e0", "e1", "e2", "e3") for v in "xy"})
    assert verify_full_spin(rg)["violations"] == []
    edge = "an edge was not crossed once per direction"
    rep = verify_full_spin(split_rotation(rg, [[0, 2], [4, 6]]))
    assert (rep["unicycles"], rep["orbits"], rep["violations"]) == (32, 4, [edge] * 4)
    # three darts and one fixed: the orbits no longer close after 2|E| moves
    rep = verify_full_spin(split_rotation(rg, [[0, 2, 4], [6]]))
    closed = "orbit did not close after a full sweep"
    assert (rep["unicycles"], rep["orbits"]) == (32, 5)
    assert rep["violations"] == [closed, edge] * 4 + [edge]
    # a double edge a-b with a pendant a-c: dart 0 fixed at a, so some
    # orbits also turn the rotors at a and b the wrong number of times
    g = Multigraph(["a", "b", "c"], {"e0": ("a", "b"), "e1": ("a", "b"), "e2": ("a", "c")})
    rg = RibbonGraph(g, {"a": ("e0", "e1", "e2"), "b": ("e0", "e1"), "c": ("e2",)})
    assert verify_full_spin(rg)["violations"] == []
    rep = verify_full_spin(split_rotation(rg, [[0], [2, 4]]))
    turn = "a rotor did not make one full turn"
    assert (rep["unicycles"], rep["orbits"]) == (12, 4)
    assert rep["violations"] == [closed, edge, turn] * 2 + [closed, edge] * 2


def test_route_chip_matches_string_loop():
    """route_chip against routing spelled out on the rotation strings."""
    for rg in plane_graphs(4):
        g = rg.graph
        for tree in g.spanning_trees():
            for c in g.vertices:
                for s in g.vertices:
                    rho = tree_to_rotors(g, tree, s)
                    steps = []
                    x = c
                    while x != s:
                        e = rho[x] = turn(rg, x, rho[x])
                        steps.append(RouteStep(len(steps), x, x, e, g.other(e, x)))
                        x = g.other(e, x)
                    assert not string_cycles(g, rho)
                    expected = (frozenset(rho.values()), steps)
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
    assert rep["misses"] == [
        ((x, y), c) for x, y in [(0, 3), (0, 5), (2, 1), (2, 5), (4, 1), (4, 3)] for c in (0, 1)
    ]
    assert rep["equivalence_holds"]


def test_reversal_counts_pinned_on_named_structures():
    counts = {}
    for rg, name in reversal_instances():
        rep = verify_reversal_equivalence(rg)
        assert rep["equivalence_holds"], name
        counts[name] = (rep["unicycles"], len(rep["misses"]))
    assert counts == {
        "triple edge, plane": (18, 0),
        "triple edge, genus 1": (18, 12),
        "complete graph on 4, plane": (192, 0),
        "complete graph on 4, genus 1": (192, 88),
    }


def test_reversal_matches_string_reference():
    for rg in ribbon_graphs(4):
        rep = verify_reversal_equivalence(rg)
        count, misses = string_reversal(rg)
        assert rep["unicycles"] == count, rg
        assert {(named(rg, r), rg.graph.vertices[c]) for r, c in rep["misses"]} == misses, rg
        assert len(rep["misses"]) == len(misses)


def test_reverse_unicycle_is_involution(fig_ribbon):
    g = fig_ribbon.graph
    for u in string_unicycles(g):
        rotors = [fig_ribbon.dart(e, v) for v, e in u[0]]
        cycle = functional_cycles(_heads(fig_ribbon, rotors))[0]
        reverse = _reversed(fig_ribbon, rotors, cycle)
        assert named(fig_ribbon, reverse) == string_reverse(g, u)[0]
        assert _reversed(fig_ribbon, reverse, cycle) == tuple(rotors)


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


def test_cycle_reversal_flags_a_twisted_double_edge():
    # off the plane a mid-run cycle need not come back reversed: a double
    # edge twisted against the triangle it hangs off
    g = Multigraph(
        ["v0", "v1", "v2"],
        {"e0": ("v0", "v1"), "e1": ("v0", "v1"), "e2": ("v0", "v2"), "e3": ("v1", "v2")},
    )
    rg = RibbonGraph(g, {"v0": ("e0", "e1", "e2"), "v1": ("e0", "e1", "e3"), "v2": ("e2", "e3")})
    assert not rg.is_plane()
    assert check_cycle_reversal(rg, {"e0", "e2"}, "v0", "v2") == [
        "cycle at step 2 never reverses: [('v0', 'e0'), ('v1', 'e1')]"
    ]
    assert check_cycle_reversal(rg, {"e0", "e2"}, "v2", "v0") == []


@pytest.mark.parametrize(
    "tree, cycle, expected",
    [
        # a-c-s closed by sa keeps ab and bc on its right: swapped, they
        # become a left side the run never sweeps
        (
            {"ac", "bc", "cs"},
            [("a", "ac"), ("c", "cs"), ("s", "sa")],
            ["missed a direction of left-side edge ab", "missed a direction of left-side edge bc"],
        ),
        # s-c-a closed by sa keeps them on its left: swapped, the run
        # crosses a right side
        (
            {"ab", "ac", "cs"},
            [("s", "cs"), ("c", "ac"), ("a", "sa")],
            ["crossed right-side edge ab", "crossed right-side edge bc"],
        ),
    ],
    ids=["left-side-empty", "right-side-empty"],
)
def test_leftright_sweep_flags_swapped_sides(square_ribbon, tree, cycle, expected):
    rg = square_ribbon
    vs = rg.graph.vertices
    sink, f = cycle[-1]
    rotors = _tree_darts(rg.graph, tree, sink)
    rotors[vs.index(sink)] = rg.dart(f, sink)
    positions = [vs.index(v) for v, _ in cycle]
    sides = classify_sides(rg, cycle)
    assert _check_unicycle_leftright(rg, list(rotors), positions, sides) == []
    swapped = SideClassification(sides.right_edges, sides.left_edges, frozenset(), frozenset())
    bad = _check_unicycle_leftright(rg, list(rotors), positions, swapped)
    assert sorted(bad) == [f"sink-free run {msg}" for msg in expected]


def arc_rearrangements(rg: RibbonGraph, tree, c: str, s: str, rng, samples: int = 4):
    """Ribbon structures that provably route (tree, c - s) to the same tree.

    At a vertex x the cyclic order splits into the arc strictly between the
    starting rotor and the finishing rotor and the complementary arc; both
    may be permuted freely without changing the routed output.  Yields
    sampled rearranged ribbon graphs for metamorphic testing.
    """
    g = rg.graph
    tree = frozenset(tree)
    out_tree, _ = route_chip(rg, tree, c, s)
    start = tree_to_rotors(g, tree, s)
    finish = tree_to_rotors(g, out_tree, s)
    for _ in range(samples):
        x = rng.choice([v for v in g.vertices if v != s])
        seq = list(rg.rotation[x])
        k = seq.index(start[x])
        seq = seq[k:] + seq[:k]
        if finish[x] == start[x]:
            head, mid, tail = seq[:1], [], seq[1:]
        else:
            j = seq.index(finish[x])
            head, mid, tail = seq[:1], seq[1:j], seq[j:]
        mid2 = list(mid)
        rng.shuffle(mid2)
        if finish[x] == start[x]:
            tail2 = list(tail)
            rng.shuffle(tail2)
            new_seq = head + tail2
        else:
            rest = tail[1:]
            rest2 = list(rest)
            rng.shuffle(rest2)
            new_seq = head + mid2 + [tail[0]] + rest2
        rot = dict(rg.rotation)
        rot[x] = tuple(new_seq)
        yield RibbonGraph(g, rot)


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
