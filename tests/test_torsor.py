import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from rotorsand import cli, sandpile
from rotorsand.errors import InvariantViolation
from rotorsand.catalog import plane_graphs
from rotorsand.moves import telescope
from rotorsand.multigraph import Multigraph, banana_graph, cycle_graph
from rotorsand.ribbon import (
    RibbonGraph,
    RibbonIsomorphism,
    canonical_labelling,
    is_ribbon_isomorphism,
)
from rotorsand.rotor import route_chip
from rotorsand.sandpile import Divisor, chip
from rotorsand import rotor, torsor
from rotorsand.torsor import (
    VARIANTS,
    TorsorAction,
    verify_consistency,
    verify_sink_invariance,
    verify_torsor_axioms,
)


def distinct_variant_count(rg: RibbonGraph) -> int:
    """How many of the four companion actions differ as full action tables."""
    return len({tuple(TorsorAction(rg, tag).table()) for tag in VARIANTS})


def contraction_vertex_map(g: Multigraph, e: str) -> dict[str, str]:
    """Where contracting e sends each vertex of g: e's second end to its first."""
    x, y = g.ends(e)
    return {v: (x if v == y else v) for v in g.vertices}


def ribbon_from_json(text: str) -> RibbonGraph:
    return RibbonGraph.from_obj(json.loads(text))


def c3_ribbon():
    g = cycle_graph(3)
    return RibbonGraph(g, {"v0": ("e0", "e2"), "v1": ("e0", "e1"), "v2": ("e1", "e2")})


def e3_plane():
    return RibbonGraph(
        banana_graph(3), {"x": ("e0", "e1", "e2"), "y": ("e2", "e1", "e0")}
    )


def e3_twisted():
    return RibbonGraph(
        banana_graph(3), {"x": ("e0", "e1", "e2"), "y": ("e0", "e1", "e2")}
    )


def test_identity_class_acts_trivially(square_ribbon):
    act = TorsorAction(square_ribbon)
    for t in square_ribbon.graph.spanning_trees():
        assert act.act(Divisor({}), t) == t


def test_action_reproduces_single_chip_routing(square_ribbon):
    act = TorsorAction(square_ribbon)
    t = frozenset({"ac", "bc", "cs"})
    assert act.act(chip("c", "s"), t) == frozenset({"sa", "bc", "ac"})


def test_orbit_covers_all_trees(square_ribbon):
    act = TorsorAction(square_ribbon)
    g = square_ribbon.graph
    trees = g.spanning_trees()
    t0 = trees[0]
    orbit = {act.act(d, t0) for d in sandpile.enumerate_classes(g)[0]}
    assert orbit == set(trees)


def test_action_requires_plane_input():
    with pytest.raises(ValueError):
        TorsorAction(e3_twisted())


def test_action_rejects_nonzero_degree(square_ribbon):
    act = TorsorAction(square_ribbon)
    with pytest.raises(ValueError):
        act.act(chip("c"), frozenset({"ac", "bc", "cs"}))


def test_tables_match_direct_routing(square_ribbon):
    act = TorsorAction(square_ribbon)
    g = square_ribbon.graph
    trees = g.spanning_trees()
    rows = act.table()
    for d, row in zip(sandpile.enumerate_classes(g)[0], rows):
        for t, j in zip(trees, row):
            assert trees[j] == act.act(d, t)


def sink_instances():
    """Every plane graph with at most 4 edges and the two genus-1 maps, where
    tables still exist at each sink."""
    instances = list(plane_graphs(4))
    return instances + [rg for rg, name in cli.reversal_instances() if name.endswith("genus 1")]


def test_chip_rows_match_route_chip():
    for rg in sink_instances():
        trees = rg.graph.spanning_trees()
        for tag in ("r", "rbar"):
            action = TorsorAction(rg, tag, require_plane=False)
            routing = rg if tag == "r" else rg.reverse()
            for s in rg.graph.vertices:
                for c in rg.graph.vertices:
                    row = action.chip_table(c, s)
                    for i, (t, j) in enumerate(zip(trees, row)):
                        want = t if c == s else route_chip(routing, t, c, s)[0]
                        assert trees[j] == want, (i, c, s)


def test_tables_at_every_sink_fold_reduced_divisors():
    # the rows at sink s, composed along the closure's words, against a
    # fold, chip by chip, of each class's s-reduced representative
    for rg in sink_instances():
        g = rg.graph
        classes, _ = sandpile.enumerate_classes(g)
        trees = g.spanning_trees()
        for tag in VARIANTS:
            action = TorsorAction(rg, tag, require_plane=False)
            for s in g.vertices:
                table = action.table(s=s)
                assert len(table) == len(classes)
                for d, row in zip(classes, table):
                    rep = sandpile.reduce(g, -d if tag in ("rinv", "rbarinv") else d, s)
                    perm = list(range(len(trees)))
                    for v, k in rep.items():
                        if v != s:
                            for _ in range(k):
                                perm = [action.chip_table(v, s)[x] for x in perm]
                    assert row == tuple(perm)


# sha256 over the full tables of all four variants on every plane graph with
# at most 6 edges, taken from the dict tables before they became index rows
TABLES_DIGEST = "83250565fcf66913c1dfc2a0156a3da954561aa1ac1cf46ebe6f3c26eb2b8075"


def test_action_tables_pinned():
    # catalog order, then VARIANTS order, then enumerate_classes order; a
    # change that moves every variant alike (swapping r and rbar, say) keeps
    # every verdict but not this digest
    h = hashlib.sha256()
    for rg in plane_graphs(6):
        g = rg.graph
        trees = g.spanning_trees()
        classes, _ = sandpile.enumerate_classes(g)
        keys = [list(sandpile.canonical_class(g, d)[1]) for d in classes]
        for tag in VARIANTS:
            for key, row in zip(keys, TorsorAction(rg, tag).table()):
                images = [[sorted(t), sorted(trees[j])] for t, j in zip(trees, row)]
                h.update(json.dumps([rg.to_json(), tag, key, images]).encode())
    assert h.hexdigest() == TABLES_DIGEST


def test_composed_rows_are_checked_against_routing(square_ribbon, monkeypatch):
    # a wrong generator row surfaces as an invariant violation, not as a
    # verdict computed on it
    action = TorsorAction(square_ribbon)
    plain = torsor.chip_rows

    def skewed(rg, trees, s):
        rows = plain(rg, trees, s)
        return [row[1:] + row[:1] if v else row for v, row in enumerate(rows)]

    monkeypatch.setattr(torsor, "chip_rows", skewed)
    with pytest.raises(InvariantViolation):
        action.table()


def test_plane_sweeps_burn_once_per_composed_row(monkeypatch):
    # each composed row a sweep uses is checked once, by burning its class
    # to reduced chips at vertices[0] and routing them: over the plane maps
    # with at most 5 edges, 216 rows in the torsor sweep, 622 in the
    # consistency sweep (minors included, from an empty minor cache) and
    # 216 in the sink sweep, all at the first vertex
    monkeypatch.setattr(torsor, "_minor_actions", {})
    sinks = []
    reduce_chips = sandpile.reduce_chips

    def counted(g, chips, q):
        sinks.append(g.vertices.index(q))
        return reduce_chips(g, chips, q)

    monkeypatch.setattr(sandpile, "reduce_chips", counted)
    counts = []
    for suite in ("torsor", "consistency", "sink-invariance"):
        sinks.clear()
        assert cli.sweep(suite, 5)["violations"] == []
        assert set(sinks) == {0}
        counts.append(len(sinks))
    assert counts == [216, 622, 216]


def test_inverse_variant_inverts(square_ribbon):
    r = TorsorAction(square_ribbon)
    rinv = TorsorAction(square_ribbon, "rinv")
    g = square_ribbon.graph
    rng = random.Random(0)
    for _ in range(15):
        d = rng.choice(sandpile.enumerate_classes(g)[0])
        t = rng.choice(g.spanning_trees())
        assert r.act(d, rinv.act(d, t)) == t


def test_mirror_variant_routes_on_reversed_structure(square_ribbon):
    rbar = TorsorAction(square_ribbon, "rbar")
    rev = TorsorAction(square_ribbon.reverse())
    g = square_ribbon.graph
    for d in sandpile.enumerate_classes(g)[0]:
        for t in g.spanning_trees():
            assert rbar.act(d, t) == rev.act(d, t)


def test_variant_distinctness_counts():
    assert distinct_variant_count(c3_ribbon()) == 2
    assert distinct_variant_count(e3_plane()) == 2
    g1 = RibbonGraph(banana_graph(1), {"x": ("e0",), "y": ("e0",)})
    assert distinct_variant_count(g1) == 1
    g2 = RibbonGraph(banana_graph(2), {"x": ("e0", "e1"), "y": ("e0", "e1")})
    assert distinct_variant_count(g2) == 1


def test_which_variants_split_where():
    # the mirror differs from the base on the triple edge, the inverse on
    # the triangle
    e3 = e3_plane()
    assert TorsorAction(e3, "r").table() != TorsorAction(e3, "rbar").table()
    assert TorsorAction(e3, "r").table() == TorsorAction(e3, "rbarinv").table()
    c3 = c3_ribbon()
    assert TorsorAction(c3, "r").table() != TorsorAction(c3, "rinv").table()
    assert TorsorAction(c3, "r").table() == TorsorAction(c3, "rbar").table()


def test_axioms_pass_on_small_planes(square_ribbon):
    for rg in (c3_ribbon(), square_ribbon):
        rep = verify_torsor_axioms(rg)
        assert rep.ok and rep.checked > 0


def test_axioms_pass_for_all_variants(square_ribbon):
    for tag in ("r", "rbar", "rinv", "rbarinv"):
        assert verify_torsor_axioms(square_ribbon, variant=tag).ok


def test_corrupted_action_fails():
    rg = c3_ribbon()
    base = TorsorAction(rg)
    trees = rg.graph.spanning_trees()
    t_a, t_b = trees[0], trees[1]

    def corrupted(d, t):
        out = base.act(d, t)
        if out == t_a:
            return t_b
        if out == t_b:
            return t_a
        return out

    rep = verify_torsor_axioms(rg, act=corrupted)
    assert not rep.ok
    axioms = {v["axiom"] for v in rep.violations}
    assert axioms & {"freeness", "additivity", "identity"}


def swap_two_outputs(rg, only_from=None):
    """rg's action with the first and last tree swapped among its outputs.

    With only_from, the swap happens only for divisors holding at least two
    chips on that vertex, so the answer depends on the representative.
    """
    base = TorsorAction(rg)
    trees = rg.graph.spanning_trees()
    swap = {trees[0]: trees[-1], trees[-1]: trees[0]}

    def act(d, t):
        out = base.act(d, t)
        if only_from is not None and d[only_from] < 2:
            return out
        return swap.get(out, out)

    return act


# verify_torsor_axioms(rg, act=...) on the corrupted actions above: checked,
# violation count and sha256 prefix of the JSON of (checked, violations,
# notes), taken before the additivity loop keyed one class per pair
CORRUPTED_REPORTS = {
    ("pairs", None): (584, 130, "fe770445729d3d1f"),
    ("pairs", "v2"): (584, 80, "a4041d87b7db5ed1"),
    ("generators", None): (42420, 842, "bb01201b2aed9450"),
    ("generators", "z2"): (42420, 432, "ddcd4165f462cf5c"),
}


@pytest.mark.parametrize("mode,only_from", sorted(CORRUPTED_REPORTS, key=str))
def test_corrupted_action_reports_pinned(mode, only_from):
    # the act= path asks act once per (class representative, tree), so even a
    # representative-dependent corruption reports the same violations
    if mode == "pairs":
        rg = max(plane_graphs(5), key=lambda rg: len(rg.graph.spanning_trees()))
    else:
        rg, _ = telescope(2, [1, 0, 1])
    rep = verify_torsor_axioms(rg, act=swap_two_outputs(rg, only_from))
    assert rep.notes == (["additivity on generator pairs only"] if mode == "generators" else [])
    text = json.dumps([rep.checked, rep.violations, rep.notes], sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (rep.checked, len(rep.violations), digest) == CORRUPTED_REPORTS[mode, only_from]


def test_sink_invariance_plane(square_ribbon):
    rep = verify_sink_invariance(square_ribbon)
    assert rep.ok and rep.checked > 0


def test_sink_invariance_single_edge():
    rg = RibbonGraph(banana_graph(1), {"x": ("e0",), "y": ("e0",)})
    assert verify_sink_invariance(rg).ok


def test_sink_dependence_of_twisted_triple_edge():
    rep = verify_sink_invariance(e3_twisted())
    assert not rep.ok
    # the disagreement is forced because [D] != [-D] off the identity
    assert len(rep.violations) > 0


def test_sink_invariance_composes_rows_only_where_generators_differ(monkeypatch):
    # on plane maps every sink's generator rows equal the first vertex's, so
    # no class row is composed away from it; checked still counts every
    # (sink, class, tree)
    tables = []
    table = TorsorAction.table

    def recorded(self, s=None):
        tables.append(s)
        return table(self, s)

    monkeypatch.setattr(TorsorAction, "table", recorded)
    for rg in plane_graphs(4):
        tables.clear()
        rep = verify_sink_invariance(rg)
        g = rg.graph
        trees = len(g.spanning_trees())
        assert rep.ok and rep.checked == (len(g.vertices) - 1) * trees * trees
        assert tables == [None]
    tables.clear()
    assert not verify_sink_invariance(e3_twisted()).ok
    assert tables == [None, "y"]


def test_sink_invariance_catches_a_reroot_that_skips_a_reversal(monkeypatch):
    # a re-root that leaves the dart past the new sink unreversed, on paths
    # of two or more darts, closes a 2-cycle into every such start array;
    # sink invariance must then fail on every plane map the skip changes
    good = rotor._reroot

    def skipping(rotors, x, dv):
        out = list(good(rotors, x, dv))
        y = dv[rotors[x] ^ 1]
        if rotors[y] is not None:
            out[y] = rotors[y]
        return tuple(out)

    monkeypatch.setattr(rotor, "_reroot", skipping)
    rotor._starts.cache_clear()
    outcomes = []
    try:
        for rg in plane_graphs(4):
            g, dv = rg.graph, rg.dart_vertex
            starts = rotor._starts(g, g.vertices[0])[0]  # oriented, not re-rooted
            sinks = range(1, len(g.vertices))
            skipped = any(skipping(r, x, dv) != good(r, x, dv) for r in starts for x in sinks)
            try:
                rep = verify_sink_invariance(rg)
                outcome = "violations" if rep.violations else "clean"
            except InvariantViolation:
                outcome = "raised"
            outcomes.append((skipped, outcome))
    finally:
        rotor._starts.cache_clear()
    assert Counter(outcomes) == {(True, "raised"): 10, (False, "clean"): 12}


def test_nonplane_map_without_a_witness_is_a_violation(monkeypatch, capsys):
    # generator rows patched to the first vertex's at every sink: a non-plane
    # map then shows no sink dependence, which Chan, Church and Grochow rule
    # out, so both the verifier and the sweep report it
    generators = TorsorAction._generators
    monkeypatch.setattr(
        TorsorAction, "_generators", lambda self, s: generators(self, self.graph.vertices[0])
    )
    assert verify_sink_invariance(e3_twisted()).violations == [torsor.NO_WITNESS]
    assert verify_sink_invariance(e3_plane()).ok
    rep = cli.sweep("sink-invariance", 3, include_nonplanar=True)
    assert rep["findings"] == []
    # the twisted triple edge is the one non-plane map with at most 3 edges
    (bad,) = rep["violations"]
    assert bad["detail"] == torsor.NO_WITNESS
    assert ribbon_from_json(bad["graph"]).euler_genus() == 1
    argv = ["verify", "sink-invariance", "--max-edges", "3", "--include-nonplanar", "--seed", "1"]
    assert cli.main(argv) == 3
    capsys.readouterr()


def test_consistency_small_planes(square_ribbon):
    for rg in (c3_ribbon(), e3_plane(), square_ribbon):
        rep = verify_consistency(rg)
        assert rep.ok and rep.checked > 0


def test_consistency_contract_instance(square_ribbon):
    # acting by [c - s] then contracting the shared tree edge bc commutes
    act = TorsorAction(square_ribbon)
    t = frozenset({"ac", "bc", "cs"})
    t2 = act.act(chip("c", "s"), t)
    assert "bc" in t and "bc" in t2
    sub = TorsorAction(square_ribbon.contract("bc"))
    vmap = contraction_vertex_map(square_ribbon.graph, "bc")
    got = sub.act(chip(vmap["c"], vmap["s"]), t - {"bc"})
    assert got == t2 - {"bc"}


def test_consistency_delete_instance(square_ribbon):
    act = TorsorAction(square_ribbon)
    t = frozenset({"ac", "bc", "cs"})
    t2 = act.act(chip("c", "s"), t)
    assert "ab" not in t and "ab" not in t2
    sub = TorsorAction(square_ribbon.delete("ab"))
    assert sub.act(chip("c", "s"), t) == t2


def pentagon_with_chord():
    """Five vertices on a wheel-less pentagon plus one chord, the known
    instance where acting by a non-adjacent class breaks contraction."""
    g = Multigraph(
        ["a", "c", "p", "s", "t"],
        {
            "A": ("a", "c"),
            "B": ("c", "p"),
            "E": ("p", "s"),
            "D": ("s", "t"),
            "F": ("t", "a"),
            "G": ("c", "t"),
        },
    )
    rot = {
        "a": ("A", "F"),
        "c": ("A", "G", "B"),
        "p": ("B", "E"),
        "s": ("E", "D"),
        "t": ("D", "G", "F"),
    }
    return RibbonGraph(g, rot)


def test_nonadjacent_relaxation_breaks_condition_one():
    rg = pentagon_with_chord()
    assert rg.is_plane()
    rep = verify_consistency(rg, relax_adjacency=True)
    assert any(
        v["condition"] == 1 and set(v["f"]) == {"c", "s"} for v in rep.violations
    )
    # with the adjacency requirement in force the same graph is clean
    assert verify_consistency(rg).ok


def test_nonadjacent_instance_matches_drawn_example():
    rg = pentagon_with_chord()
    g = rg.graph
    act = TorsorAction(rg)
    t = frozenset({"A", "E", "D", "G"})
    t2 = act.act(chip("c", "s"), t)
    assert t2 == frozenset({"A", "B", "E", "F"})
    assert "E" in t and "E" in t2
    sub = TorsorAction(rg.contract("E"))
    vmap = contraction_vertex_map(g, "E")
    got = sub.act(chip(vmap["c"], vmap["s"]), t - {"E"})
    assert got != t2 - {"E"}


def test_consistency_sweep_tiny():
    for rg in plane_graphs(4):
        assert verify_consistency(rg).ok


def minor_edge_map(rg, e, contract, vmap, tmap, rep):
    """The edge map onto rep's graph that vmap and tmap imply for rg's minor by e.

    An edge goes to the one edge of rep whose ends are its ends' images and
    whose trees are the images of its own; a parallel class is told apart
    by the trees, and no two edges of one class lie in the same trees.
    """
    g = rg.graph
    rep_trees = rep.graph.spanning_trees()
    mine = [(t, rep_trees[k]) for t, k in zip(g.spanning_trees(), tmap) if k is not None]
    emap = {}
    for f in g.edges:
        if f == e or (contract and f in g.parallel_class(e)):
            continue
        ends = {vmap[v] for v in g.ends(f)}
        (emap[f],) = [
            h
            for h in rep.graph.edges
            if set(rep.graph.ends(h)) == ends and all((f in t) == (h in r) for t, r in mine)
        ]
    return emap


def test_cached_minor_actions_match_direct_actions():
    # every contraction and connected deletion minor of every plane graph
    # with at most 5 edges, all four variants, every chip [c - s] (a superset
    # of those verify_consistency asks for, relaxed or not) and every tree:
    # the row read on the cached representative, with chips and trees moved
    # along the vertex and tree maps, equals a fresh direct action
    torsor._minor_actions.clear()
    minors = {}  # minor -> the first (graph, edge, contract?) that gives it
    for rg in plane_graphs(5):
        for e in rg.graph.edges:
            minors.setdefault(rg.contract(e), (rg, e, True))
            if rg.graph.delete(e).is_connected():
                minors.setdefault(rg.delete(e), (rg, e, False))
    transported = 0
    for tag in VARIANTS:
        for minor in sorted(minors, key=RibbonGraph.to_json):
            rg, e, contract = minors[minor]
            sub, vmap, tmap = torsor._minor_action(rg, e, contract, tag)
            direct = TorsorAction(minor, tag)
            transported += sub.rg != minor
            trees = rg.graph.spanning_trees()
            # each tree of the minor, as its tree of rg, with its index there
            cut = {e} if contract else set()
            at = {t - cut: i for i, t in enumerate(trees) if tmap[i] is not None}
            assert sorted(at, key=sorted) == sorted(minor.graph.spanning_trees(), key=sorted)
            vs = minor.graph.vertices
            for c, s in [(c, s) for c in vs for s in vs if c != s]:
                row = sub.pair_row(vmap[c], vmap[s])
                for t, i in at.items():
                    assert row[tmap[i]] == tmap[at[direct.act(chip(c, s), t)]]
    assert len(minors) > 100 and transported > 100
    # the cache keeps one representative per (code, variant)
    assert len(torsor._minor_actions) == len({m.canonical_form() for m in minors}) * 4


def test_minor_keys_on_darts_match_built_minors(monkeypatch):
    # every contraction and connected deletion of every plane map with at
    # most 5 edges: the code read off the minor's darts is the built minor's
    # canonical form, the vertex and tree maps come from an isomorphism onto
    # the representative, and a minor is built only on a cache miss
    torsor._minor_actions.clear()
    built = []
    for name in ("contract", "delete"):
        method = getattr(RibbonGraph, name)
        monkeypatch.setattr(
            RibbonGraph, name, lambda rg, e, method=method: built.append(e) or method(rg, e)
        )
    minors = 0
    for rg in plane_graphs(5):
        g = rg.graph
        for e in g.edges:
            for contract in (True, False):
                if not contract and not g.delete(e).is_connected():
                    continue
                minor = rg.contract(e) if contract else rg.delete(e)
                built.clear()
                _, sigma = rg.minor_darts(e, contract)
                code, _ = canonical_labelling(sigma, len(g.vertices) - contract)
                assert code == minor.canonical_form()
                known = (code, "r") in torsor._minor_actions
                sub, vmap, tmap = torsor._minor_action(rg, e, contract, "r")
                assert len(built) == (not known)
                emap = minor_edge_map(rg, e, contract, vmap, tmap, sub.rg)
                iso = RibbonIsomorphism({v: vmap[v] for v in minor.graph.vertices}, emap)
                assert is_ribbon_isomorphism(minor, sub.rg, iso)
                minors += 1
    assert minors > 500


def pendant_triangle():
    """A triangle b, c, d with pendant edges from a to b and from d to z."""
    g = Multigraph(
        ["a", "b", "c", "d", "z"],
        {"ab": ("a", "b"), "bc": ("b", "c"), "bd": ("b", "d"), "cd": ("c", "d"), "dz": ("d", "z")},
    )
    rot = {"a": ("ab",), "b": ("ab", "bd", "bc"), "c": ("bc", "cd"), "d": ("bd", "dz", "cd"), "z": ("dz",)}
    return RibbonGraph(g, rot)


def test_minor_vertex_map_covers_a_contracted_pendant_edge():
    # contracting a pendant edge removes the leaf's only dart: the leaf is
    # the merged vertex's lower end a in ab and its higher end z in dz, and
    # in both cases the two ends land on one vertex of the representative
    rg = pendant_triangle()
    assert rg.is_plane() and verify_consistency(rg).ok
    for e in ("ab", "dz"):
        torsor._minor_actions.clear()
        sub, vmap, tmap = torsor._minor_action(rg, e, True, "r")
        x, y = rg.graph.ends(e)
        assert set(vmap) == set(rg.graph.vertices)
        assert vmap[x] == vmap[y]
        assert set(vmap.values()) == set(sub.graph.vertices)
        # every tree holds a pendant edge, so each maps to the minor
        assert sorted(tmap) == list(range(len(sub.graph.spanning_trees())))


def test_minor_vertex_map_covers_a_banana_contracted_to_one_vertex():
    # contracting one edge of the triple edge takes its parallels with it:
    # no dart is left, and both ends go to the representative's one vertex
    torsor._minor_actions.clear()
    sub, vmap, tmap = torsor._minor_action(e3_plane(), "e1", True, "r")
    assert sub.graph.edges == () and len(sub.graph.vertices) == 1
    assert vmap == dict.fromkeys(("x", "y"), sub.graph.vertices[0])
    assert tmap == [None, 0, None]


CONDITION_3_RUN = """
import json
from rotorsand import torsor
from rotorsand.catalog import plane_graphs

# the plane graph with a cut vertex and at most 5 edges with the most trees,
# its own action corrupted by swapping the first and last tree's images
rg = max(
    (rg for rg in plane_graphs(5) if rg.graph.cut_vertices()),
    key=lambda rg: len(rg.graph.spanning_trees()),
)
plain = torsor.TorsorAction.pair_row


def swapped(self, c, s):
    row = list(plain(self, c, s))
    if self.rg == rg:
        row[0], row[-1] = row[-1], row[0]
    return tuple(row)


torsor.TorsorAction.pair_row = swapped
rep = torsor.verify_consistency(rg)
print(json.dumps([rep.checked, rep.violations]))
"""


def test_condition_3_violations_do_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", CONDITION_3_RUN], env=env, capture_output=True, text=True, check=True
        )
        outs.append(done.stdout)
    checked, violations = json.loads(outs[0])
    assert sum(v["condition"] == 3 for v in violations) > 1
    assert outs[0] == outs[1]
