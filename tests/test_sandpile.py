import random
from functools import lru_cache

import pytest

from rotorsand import moves, sandpile
from rotorsand.catalog import connected_multigraphs, plane_graphs
from rotorsand.multigraph import banana_graph, cycle_graph
from rotorsand.sandpile import Divisor, chip


@lru_cache(maxsize=None)
def reference_boost(g, q):
    """A zero-class divisor positive off q, independent of sandpile's lift.

    deg(v) chips on every v other than q, minus their stabilization by single
    fires of the first unstable vertex: what is left off q is a deficit of
    at least one chip per vertex.
    """
    start = Divisor({v: g.degree(v) for v in g.vertices if v != q})
    start = start - Divisor({q: start.degree()})
    cur = start
    while True:
        ready = [v for v in g.vertices if v != q and cur[v] >= g.degree(v)]
        if not ready:
            break
        cur = sandpile.fire(g, cur, ready[0])
    boost = start - cur
    assert all(boost[v] > 0 for v in g.vertices if v != q)
    return boost


def burning_reduce_reference(g, d, q):
    """The single-fire burning loop: burn outward from q, fire what is left once, repeat."""
    m = max((-d[v] for v in g.vertices if v != q), default=0)
    chips = (d + m * reference_boost(g, q) if m > 0 else d).to_dict()
    while True:
        burnt = {q}
        grew = True
        while grew:
            grew = False
            for v in g.vertices:
                into_fire = sum(1 for e in g.incident(v) if g.other(e, v) in burnt)
                if v not in burnt and chips.get(v, 0) < into_fire:
                    burnt.add(v)
                    grew = True
        unburnt = [v for v in g.vertices if v not in burnt]
        if not unburnt:
            return Divisor(chips)
        for v in unburnt:
            for e in g.incident(v):
                w = g.other(e, v)
                if w in burnt:
                    chips[v] = chips.get(v, 0) - 1
                    chips[w] = chips.get(w, 0) + 1


def test_divisor_arithmetic():
    d = Divisor({"a": 2, "b": -2})
    assert (d + chip("a", "b")).to_dict() == {"a": 3, "b": -3}
    assert (-d).to_dict() == {"a": -2, "b": 2}
    assert (3 * chip("a", "b")).degree() == 0
    assert Divisor({"a": 0}) == Divisor({})


def test_divisor_semantics_do_not_depend_on_insertion_order():
    d = Divisor({"b": -2, "z": 0, "a": 2, "c": 1})
    e = Divisor({"c": 1, "a": 2, "b": -2})
    assert d == e and hash(d) == hash(e)
    assert hash(d) == hash((("a", 2), ("b", -2), ("c", 1)))
    assert d["z"] == 0 and d["q"] == 0 and d.degree() == 1
    assert d.items() == (("a", 2), ("b", -2), ("c", 1))
    assert list(d.to_dict().items()) == [("a", 2), ("b", -2), ("c", 1)]
    assert repr(d) == "Divisor({a: 2, b: -2, c: 1})"
    assert d != Divisor({"a": 2, "b": -2}) and d != d.to_dict()
    assert len({d, e, Divisor({"a": 2, "b": -2, "c": 1, "d": 0})}) == 1
    assert (-d).items() == (("a", -2), ("b", 2), ("c", -1))
    f = Divisor({"c": -1, "d": 4})
    assert (d + f).items() == (("a", 2), ("b", -2), ("d", 4))
    assert (d - f).items() == (("a", 2), ("b", -2), ("c", 2), ("d", -4))
    assert (d - d).items() == () and d - d == Divisor()
    assert 0 * d == Divisor({}) and (2 * d).to_dict() == {"a": 4, "b": -4, "c": 2}


def test_fire_triangle(triangle):
    d = sandpile.fire(triangle, Divisor({}), "u")
    assert d.to_dict() == {"u": -2, "v": 1, "w": 1}


def test_fire_matches_laplacian_row(fig_graph):
    lap = sandpile.laplacian(fig_graph)
    vs = fig_graph.vertices
    for i, v in enumerate(vs):
        fired = sandpile.fire(fig_graph, Divisor({}), v)
        assert [fired[w] for w in vs] == [-lap[i][j] for j in range(len(vs))]


def test_firing_everything_is_a_zero_move(fig_graph):
    d = Divisor({"a": 1, "d": -1})
    out = d
    for v in fig_graph.vertices:
        out = sandpile.fire(fig_graph, out, v)
    assert out == d


def _check_reduce_against_reference(g, d, q):
    r = sandpile.reduce(g, d, q)
    assert r == burning_reduce_reference(g, d, q)
    assert sandpile.is_reduced(g, r, q)
    assert sandpile.laplacian_image_contains(g, d - r)


def test_reduce_matches_single_fire_loop_on_small_graphs():
    # every sink of every connected multigraph with at most 5 edges (parallel
    # edges included) and of every plane graph with at most 6 edges
    rng = random.Random(13)
    graphs = dict.fromkeys(connected_multigraphs(5))
    graphs.update(dict.fromkeys(rg.graph for rg in plane_graphs(6)))
    for g in graphs:
        for q in g.vertices:
            for amplitude in (1, 3):
                d = Divisor({v: rng.randint(-amplitude, amplitude) for v in g.vertices})
                _check_reduce_against_reference(g, d, q)


def test_reduce_matches_single_fire_loop_on_telescopes():
    rng = random.Random(17)
    for n in range(3, 11):
        g = moves.telescope(n, [rng.randrange(3) for _ in range(n + 1)])[0].graph
        for amplitude in (1, 3, 12, 50):
            for _ in range(2):
                d = Divisor({v: rng.randint(-amplitude, amplitude) for v in g.vertices})
                _check_reduce_against_reference(g, d, rng.choice(g.vertices))


def test_sink_boost_positive(triangle):
    d = sandpile.reduce(triangle, Divisor({"u": -1, "v": -1, "w": 2}), "u")
    assert d.degree() == 0
    assert all(d[v] >= 0 for v in ("v", "w"))


def test_move_to_sink(triangle):
    d = Divisor({"u": -1, "v": -1, "w": 2})
    out = sandpile.move_to_sink(triangle, d, "u")
    assert all(out[v] >= 0 for v in ("v", "w"))
    assert sandpile.same_class(triangle, out, d)
    already = Divisor({"w": 1, "u": -1})
    assert sandpile.move_to_sink(triangle, already, "u") == already


def _check_move_to_sink(g, d, s):
    out = sandpile.move_to_sink(g, d, s)
    assert out.degree() == 0
    assert all(out[v] >= 0 for v in g.vertices if v != s)
    assert sandpile.laplacian_image_contains(g, d - out)
    if all(d[v] >= 0 for v in g.vertices if v != s):
        assert out == d


def test_move_to_sink_on_every_sink():
    # every sink of every connected multigraph with at most 5 edges, then
    # seeded telescopes; each case lifts a random divisor, one with debt on
    # every vertex but the sink, and one already out of debt
    rng = random.Random(23)
    cases = [(g, s, a) for g in connected_multigraphs(5) for s in g.vertices for a in (1, 3)]
    for n in range(3, 11):
        g = moves.telescope(n, [rng.randrange(3) for _ in range(n + 1)])[0].graph
        cases += [(g, rng.choice(g.vertices), a) for a in (1, 3, 12, 50) for _ in range(2)]
    for g, s, amplitude in cases:
        chips = {v: rng.randint(-amplitude, amplitude) for v in g.vertices}
        debt = {v: -amplitude for v in g.vertices}
        clear = {v: abs(n) for v, n in chips.items()}
        for shape in (chips, debt, clear):
            d = Divisor(shape)
            _check_move_to_sink(g, d - Divisor({s: d.degree()}), s)


def test_reduce_is_idempotent_and_class_invariant():
    rng = random.Random(9)
    for g in connected_multigraphs(5):
        q = g.vertices[0]
        for _ in range(5):
            d = Divisor({v: rng.randrange(-3, 4) for v in g.vertices})
            d = d - Divisor({q: d.degree()})
            r = sandpile.reduce(g, d, q)
            assert sandpile.is_reduced(g, r, q)
            assert sandpile.reduce(g, r, q) == r
            x = rng.choice(g.vertices)
            assert sandpile.reduce(g, sandpile.fire(g, d, x), q) == r


def test_same_class_accepts_laplacian_shifts(fig_graph):
    rng = random.Random(2)
    for _ in range(25):
        d = Divisor({v: rng.randrange(-2, 3) for v in fig_graph.vertices})
        d = d - Divisor({"a": d.degree()})
        shift = d
        for v in fig_graph.vertices:
            for _ in range(rng.randrange(0, 3)):
                shift = sandpile.fire(fig_graph, shift, v)
        assert sandpile.same_class(fig_graph, d, shift)
        assert sandpile.laplacian_image_contains(fig_graph, d - shift)


def test_same_class_matches_lattice_membership():
    rng = random.Random(4)
    for g in connected_multigraphs(4):
        for _ in range(10):
            d1 = Divisor({v: rng.randrange(-2, 3) for v in g.vertices})
            d1 = d1 - Divisor({g.vertices[0]: d1.degree()})
            d2 = Divisor({v: rng.randrange(-2, 3) for v in g.vertices})
            d2 = d2 - Divisor({g.vertices[0]: d2.degree()})
            assert sandpile.same_class(g, d1, d2) == sandpile.laplacian_image_contains(
                g, d1 - d2
            )


def test_cycle_group_is_cyclic():
    for k in range(1, 7):
        s = sandpile.group_structure(cycle_graph(k))
        assert s.order == k
        assert s.invariant_factors == ((k,) if k > 1 else ())


def test_single_edge_trivial_group():
    s = sandpile.group_structure(banana_graph(1))
    assert s.order == 1 and s.invariant_factors == ()


def test_fig_graph_group_order_eight(fig_graph):
    s = sandpile.group_structure(fig_graph)
    assert s.order == 8
    assert s.invariant_factors == (8,)


def test_triangle_classes(triangle):
    # the group is cyclic of order three: D, 2D distinct, 3D trivial,
    # and -2D falls back onto D
    one = chip("u", "v")
    assert not sandpile.same_class(triangle, one, Divisor({}))
    assert not sandpile.same_class(triangle, one, 2 * one)
    assert sandpile.same_class(triangle, one, -2 * one)
    assert sandpile.same_class(triangle, 3 * one, Divisor({}))


def test_superstable_representatives_pairwise_distinct(fig_graph):
    # the eight drawn representatives, chips listed on (b, a, c, d)
    rows = [
        (0, 0, 0, 0),
        (-1, 0, 0, 1),
        (-1, 0, 1, 0),
        (-1, 1, 0, 0),
        (-2, 2, 0, 0),
        (-2, 0, 2, 0),
        (-2, 1, 0, 1),
        (-2, 0, 1, 1),
    ]
    divs = [Divisor({"b": r[0], "a": r[1], "c": r[2], "d": r[3]}) for r in rows]
    for i, d1 in enumerate(divs):
        assert sandpile.is_reduced(fig_graph, d1, "b")
        for d2 in divs[i + 1 :]:
            assert not sandpile.same_class(fig_graph, d1, d2)


def test_matrix_tree_small():
    for g in connected_multigraphs(6):
        assert sandpile.group_structure(g).order == len(g.spanning_trees())


def test_double_chip_class_nontrivial():
    # on a 2-connected graph, doubling a chip against a sink of degree >= 3
    # never lands on the identity; degree-2 endpoints genuinely can
    # (two degree-2 vertices of the five-edge graph do)
    for g in connected_multigraphs(6):
        if not g.is_two_connected():
            continue
        for s in g.vertices:
            if g.degree(s) < 3:
                continue
            for c in g.vertices:
                if c == s:
                    continue
                assert not sandpile.same_class(g, 2 * chip(c, s), Divisor({}))


def test_double_chip_can_vanish_between_degree_two_vertices(fig_graph):
    assert sandpile.same_class(fig_graph, 2 * chip("b", "d"), Divisor({}))


def test_enumerate_classes_sizes():
    for g in connected_multigraphs(5):
        classes, _ = sandpile.enumerate_classes(g)
        assert len(classes) == sandpile.group_structure(g).order
        assert len(set(classes)) == len(classes)


def reference_classes(g):
    """enumerate_classes as it was before it ran on the lattice's cosets:
    the breadth-first closure of the zero class over divisor sums, each sum
    keyed by canonical_class, and the closure's Cayley table."""
    q = g.vertices[0]
    gens = [chip(v, q) for v in g.vertices[1:]]
    order = [Divisor({})]
    seen = {sandpile.canonical_class(g, order[0]): 0}
    succ = []
    for d in order:
        row = []
        for gen in gens:
            c = d + gen
            key = sandpile.canonical_class(g, c)
            if key not in seen:
                seen[key] = len(order)
                order.append(c)
            row.append(seen[key])
        succ.append(tuple(row))
    return order, succ


def test_class_closure_matches_divisor_closure():
    # the same representatives, in the same order, and the same Cayley table
    graphs = classes = 0
    for g in connected_multigraphs(6):
        got, succ = sandpile.enumerate_classes(g)
        order, ref_succ = reference_classes(g)
        assert list(got) == order and list(succ) == ref_succ, g.to_json()
        graphs += 1
        classes += len(order)
    assert (graphs, classes) == (156, 688)


def test_move_to_sink_requires_degree_zero(triangle):
    with pytest.raises(ValueError):
        sandpile.move_to_sink(triangle, Divisor({"u": 1}), "u")


def test_move_to_sink_rejects_a_disconnected_graph_up_front():
    # two disjoint edges: {a: -1, c: 1} has no debt off the sink and was
    # once returned unchanged, while {a: 1, c: -1} raised
    from rotorsand.multigraph import Multigraph

    g = Multigraph(["a", "b", "c", "d"], {"ab": ("a", "b"), "cd": ("c", "d")})
    for d in (Divisor({"a": -1, "c": 1}), Divisor({"a": 1, "c": -1})):
        with pytest.raises(ValueError, match="graph must be connected"):
            sandpile.move_to_sink(g, d, "a")


def test_lattice_keys_split_like_burning():
    # every plane graph with at most 6 edges: each class representative, a
    # firing-shifted copy of it, and random divisors of any degree fall into
    # the same classes under lattice keys as under burning at vertices[0]
    rng = random.Random(11)
    for g in dict.fromkeys(rg.graph for rg in plane_graphs(6)):
        q = g.vertices[0]
        classes, _ = sandpile.enumerate_classes(g)
        assert all(d[v] >= 0 for d in classes for v in g.vertices[1:])
        divs = list(classes)
        divs += [sandpile.fire(g, d, rng.choice(g.vertices)) for d in classes]
        divs += [Divisor({v: rng.randrange(-3, 4) for v in g.vertices}) for _ in range(10)]
        lattice = [sandpile.canonical_class(g, d) for d in divs]
        burnt = [sandpile.reduce(g, d, q) for d in divs]
        assert len(set(lattice)) == len(set(burnt)) == len(set(zip(lattice, burnt)))
        assert len(set(lattice[: len(classes)])) == len(classes)


UNKNOWN_VERTEX_CALLS = {
    "reduce": lambda g, d: sandpile.reduce(g, d, "u"),
    "canonical_class": sandpile.canonical_class,
    "is_reduced": lambda g, d: sandpile.is_reduced(g, d, "u"),
    "laplacian_image_contains": sandpile.laplacian_image_contains,
    "move_to_sink": lambda g, d: sandpile.move_to_sink(g, d, "u"),
}


@pytest.mark.parametrize("entry", list(UNKNOWN_VERTEX_CALLS))
def test_unknown_divisor_vertices_are_named(triangle, entry):
    # chips on a vertex the graph lacks were once dropped: reduce answered
    # {v: 1} for {zz: 5, v: 1}
    cases = [({"zz": 5, "v": 1}, "'zz'"), ({"zz": 1, "v": -1}, "'zz'"), ({"yy": 2, "zz": -2}, "'yy', 'zz'")]
    for chips, named in cases:
        with pytest.raises(ValueError, match=f"not in the graph: {named}$"):
            UNKNOWN_VERTEX_CALLS[entry](triangle, Divisor(chips))


def test_reduce_rejects_unknown_sink(triangle):
    with pytest.raises(KeyError):
        sandpile.reduce(triangle, Divisor({"u": 1}), "zz")


def test_reduce_rejects_a_disconnected_graph_up_front():
    # two disjoint edges: this divisor has no debt off q, and once burnt
    # until the step guard; every divisor, the zero one included, raises
    from rotorsand.multigraph import Multigraph

    g = Multigraph(["a", "b", "c", "d"], {"ab": ("a", "b"), "cd": ("c", "d")})
    for d in (Divisor({"a": -(10**4), "c": 10**4}), Divisor({}), Divisor({"b": -3})):
        with pytest.raises(ValueError, match="graph must be connected"):
            sandpile.reduce(g, d, "a")


def _check_reduced_answer(g, d, q, r):
    # is_reduced, the class and the degree determine the answer uniquely
    assert r.degree() == d.degree()
    assert sandpile.is_reduced(g, r, q)
    assert sandpile.laplacian_image_contains(g, d - r)


def test_seeded_reduce_on_large_divisors():
    # amplitudes far above the 2|E| guard, any degree, at vertices[0] and at
    # other sinks; the seed alone leaves every vertex but vertices[0] and q
    # within its degree of 0
    rng = random.Random(29)
    cases = [(g, q) for g in connected_multigraphs(5) for q in g.vertices]
    for n in range(3, 11):
        g = moves.telescope(n, [rng.randrange(3) for _ in range(n + 1)])[0].graph
        cases += [(g, g.vertices[0]), (g, rng.choice(g.vertices[1:]))]
    for g, q in cases:
        vs, qi = g.vertices, g.vertices.index(q)
        for amplitude in (10**3, 10**6):
            d = Divisor({v: rng.randint(-amplitude, amplitude) for v in vs})
            chips = [d[v] for v in vs]
            sandpile._seed(g, chips, qi)
            assert sum(chips) == d.degree()
            rest = [(v, n) for i, (v, n) in enumerate(zip(vs, chips)) if i not in (0, qi)]
            assert all(abs(n) <= g.degree(v) for v, n in rest)
            _check_reduced_answer(g, d, q, sandpile.reduce(g, d, q))


def test_reduce_beyond_float_range_starts_from_the_chips():
    g = banana_graph(3)
    for d in (Divisor({"x": 10**400, "y": -(10**400)}), Divisor({"x": -(10**400), "y": 10**400 + 7})):
        chips = [d[v] for v in g.vertices]
        sandpile._seed(g, chips, 0)
        assert chips == [d[v] for v in g.vertices]
        for q in g.vertices:
            _check_reduced_answer(g, d, q, sandpile.reduce(g, d, q))


def test_seed_cuts_the_burn_rounds_of_a_telescope_query(monkeypatch):
    # one large-act-sized query (21 vertices, 40 edges): 22 burns from the
    # lift alone, 6 from the seed, with the same answer
    g = moves.telescope(9, [0, 1, 2, 0, 1, 2, 0, 1, 2, 1])[0].graph
    rng = random.Random(20)
    d = Divisor({v: rng.randint(-10, 10) for v in g.vertices})
    d = d - Divisor({g.vertices[0]: d.degree()})
    burns = []
    burn = sandpile._burn
    monkeypatch.setattr(sandpile, "_burn", lambda *args: burns.append(1) or burn(*args))
    seeded = sandpile.reduce(g, d, "c")
    assert (g.vertices[0], len(burns)) == ("c", 6)
    monkeypatch.setattr(sandpile, "_seed", lambda *args: None)
    assert sandpile.reduce(g, d, "c") == seeded and len(burns) == 6 + 22


def test_telescope_group_structure():
    g = moves.telescope(7, [1, 2, 1, 2, 1, 2, 1, 2])[0].graph
    s = sandpile.group_structure(g)
    assert s.invariant_factors == (4, 4, 4, 1504976)
    assert s.order == sandpile.tree_count(g) == 96_318_464
