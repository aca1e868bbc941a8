"""Acceptance suite: the headline guarantees, exhaustively at desk scale.

Each test prints one line `ACCEPTANCE <nn> <name>: PASS/FAIL (<details>)`.
Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
the whole suite is deterministic and needs no network.  Criteria 02-07, 09
and 11 run `rotorsand.cli.sweep`, the code behind `rotorsand verify`.
"""

import time

from rotorsand import sandpile
from rotorsand.catalog import connected_multigraphs, plane_graphs
from rotorsand.cli import reversal_instances, sweep
from rotorsand.matroid import (
    bby_act,
    bby_table,
    bby_vector,
    check_acyclic_pair,
    default_signatures,
    from_graph,
)
from rotorsand.lemmas import check_cycle_reversal
from rotorsand.moves import TelescopeLabels, telescope
from rotorsand.multigraph import Multigraph
from rotorsand.ribbon import RibbonGraph
from rotorsand.sandpile import chip
from rotorsand.telescopes import classify_pair, complements_are_trees, matches_telescope
from rotorsand.torsor import (
    VARIANTS,
    TorsorAction,
    verify_consistency,
    verify_sink_invariance,
)


def report(num, name, ok, details):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line)
    assert ok, line


def distinct_variant_count(rg: RibbonGraph) -> int:
    """How many of the four companion actions differ as full action tables."""
    return len({tuple(TorsorAction(rg, tag).table()) for tag in VARIANTS})


def contraction_vertex_map(g: Multigraph, e: str) -> dict[str, str]:
    """Where contracting e sends each vertex of g: e's second end to its first."""
    x, y = g.ends(e)
    return {v: (x if v == y else v) for v in g.vertices}


def named_structure(name):
    return next(rg for rg, label in reversal_instances() if label == name)


def test_01_matrix_tree(fig_graph):
    t0 = time.time()
    mismatches = 0
    graphs = connected_multigraphs(6)
    for g in graphs:
        if sandpile.group_structure(g).order != len(g.spanning_trees()):
            mismatches += 1
    ok = (
        mismatches == 0
        and sandpile.group_structure(fig_graph).order == 8
        and len(fig_graph.spanning_trees()) == 8
    )
    report(1, "matrix-tree", ok, f"{len(graphs)} graphs, {mismatches} mismatches, {time.time()-t0:.1f}s")


def test_02_torsor_axioms():
    t0 = time.time()
    v = sweep("torsor", 7)
    bad = len(v["violations"])
    report(2, "torsor-axioms", bad == 0, f"{v['instances']} plane graphs, {v['checked']} checks, {bad} violations, {time.time()-t0:.0f}s")


def test_03_sink_invariance():
    t0 = time.time()
    v = sweep("sink-invariance", 7)
    bad = len(v["violations"])
    forced = len(verify_sink_invariance(named_structure("triple edge, genus 1")).violations)
    ok = bad == 0 and forced > 0
    report(3, "sink-invariance", ok, f"{v['instances']} plane graphs clean, twisted triple edge forced {forced} disagreements, {time.time()-t0:.0f}s")


def test_04_consistency(square_ribbon):
    t0 = time.time()
    v = sweep("consistency", 7)
    bad = len(v["violations"])

    # the drawn contraction and deletion instances, bit-exact
    rg = square_ribbon
    g = rg.graph
    t = frozenset({"ac", "bc", "cs"})
    t2 = TorsorAction(rg).act(chip("c", "s"), t)
    vmap = contraction_vertex_map(g, "bc")
    contract_ok = (
        t2 == frozenset({"sa", "bc", "ac"})
        and TorsorAction(rg.contract("bc")).act(chip(vmap["c"], vmap["s"]), t - {"bc"})
        == frozenset({"sa", "ac"})
        and TorsorAction(rg.delete("ab")).act(chip("c", "s"), t) == t2
    )

    # the documented non-adjacent failure
    pent = Multigraph(
        ["a", "c", "p", "s", "t"],
        {"A": ("a", "c"), "B": ("c", "p"), "E": ("p", "s"), "D": ("s", "t"), "F": ("t", "a"), "G": ("c", "t")},
    )
    pent_rg = RibbonGraph(
        pent,
        {"a": ("A", "F"), "c": ("A", "G", "B"), "p": ("B", "E"), "s": ("E", "D"), "t": ("D", "G", "F")},
    )
    relaxed = verify_consistency(pent_rg, relax_adjacency=True)
    relax_ok = any(
        x["condition"] == 1 and set(x["f"]) == {"c", "s"} for x in relaxed.violations
    )

    ok = bad == 0 and contract_ok and relax_ok
    report(4, "consistency", ok, f"{v['instances']} plane graphs, {v['checked']} checks, {bad} violations, drawn instances exact, relaxation fails as documented, {time.time()-t0:.0f}s")


def test_05_variants():
    t0 = time.time()
    bad = 0
    for tag in ("rbar", "rinv", "rbarinv"):
        for suite in ("torsor", "consistency"):
            v = sweep(suite, 7, variant=tag)
            bad += len(v["violations"])

    miscounted = 0
    counted = 0
    for rg in plane_graphs(7, two_connected=True):
        g = rg.graph
        n, m = len(g.vertices), len(g.edges)
        if m <= 2:
            expected = 1
        elif n == 2 or all(g.degree(v) == 2 for v in g.vertices):
            expected = 2
        else:
            expected = 4
        counted += 1
        if distinct_variant_count(rg) != expected:
            miscounted += 1
    ok = bad == 0 and miscounted == 0
    report(5, "variants", ok, f"3 extra variants over {v['instances']} graphs, {counted} distinctness counts, {bad}+{miscounted} failures, {time.time()-t0:.0f}s")


def test_06_source_turn_reachability():
    t0 = time.time()
    v = sweep("moves", 7)
    failures = len(v["violations"])
    report(6, "source-turn-reachability", failures == 0, f"{v['instances']} graphs, {v['checked']} ordered pairs incl. leaf swaps, {failures} failures, {time.time()-t0:.0f}s")


def test_07_unicycles():
    t0 = time.time()
    v = sweep("unicycle", 8)
    bad = len(v["violations"])
    named = reversal_instances()
    plane_ok = all(rg.is_plane() == name.endswith(", plane") for rg, name in named)
    # the sweep covers every orbit: 57,675 ribbon graphs plus the named four
    ok = bad == 0 and plane_ok and (v["instances"], v["checked"]) == (57679, 766118)
    report(7, "unicycles", ok, f"{v['instances'] - len(named)} ribbon graphs, {v['checked']} orbits spun, {bad} violations, reversal equivalence on {len(named)} named structures, {time.time()-t0:.0f}s")


def test_08_rotor_lemmas():
    t0 = time.time()
    bad = 0
    instances = 0
    graphs = plane_graphs(7)
    for rg in graphs:
        g = rg.graph
        trees = g.spanning_trees()
        seen_pairs = set()
        for e in g.edges:
            u, w = g.ends(e)
            for c, s in ((u, w), (w, u)):
                if (c, s) in seen_pairs:
                    continue
                seen_pairs.add((c, s))
                for t in trees:
                    instances += 1
                    bad += len(check_cycle_reversal(rg, t, c, s))
    report(8, "rotor-lemmas", bad == 0, f"{len(graphs)} plane graphs, {instances} traced runs, {bad} violations, {time.time()-t0:.0f}s")


def test_09_telescopes():
    t0 = time.time()
    rg5, lab5 = telescope(5, [1, 0, 0, 2, 1, 0])
    structure_ok = (
        len(rg5.graph.vertices) == 11
        and len(rg5.graph.edges) == 20
        and rg5.is_plane()
        and rg5.next_edge("c", "g") == "f"
        and rg5.rotation["z3"] == ("e3", "h3_1", "h3_2", "e4", "he4", "he3")
        and set(rg5.graph.ends("g")) == {"c", "z0"}
        and set(rg5.graph.ends("f")) == {"c", "z5"}
    )
    v = sweep("telescope")
    fails = len(v["violations"])

    # a non-telescope plane graph with the same setup must break closure
    k4_rg = named_structure("complete graph on 4, plane")
    k4 = k4_rg.graph
    lab = None
    for t in k4.spanning_trees():
        for c in k4.vertices:
            for s in k4.vertices:
                if c == s:
                    continue
                mv = classify_pair(k4_rg, t, c, s)
                if mv is not None and mv.kind == "source-turn":
                    lab = TelescopeLabels(c, s, k4.other(mv.removed, c), mv.added, mv.removed)
                    break
            if lab:
                break
        if lab:
            break
    counterexample_ok = (
        lab is not None
        and not matches_telescope(k4_rg, lab)
        and not complements_are_trees(k4_rg, lab)
    )
    ok = structure_ok and fails == 0 and counterexample_ok
    report(9, "telescopes", ok, f"drawn instance exact, {v['instances'] - fails} equivalences, non-telescope complement fails, {time.time()-t0:.0f}s")


def test_10_bby():
    t0 = time.time()
    from rotorsand.matroid import RegularMatroid

    m = RegularMatroid(
        ["e1", "e2", "e3", "e4", "e5"],
        [[-1, 0, 0, -1, -1], [1, -1, 0, 0, 0], [0, 1, -1, 0, 1], [0, 0, 1, 1, 0]],
    )
    sig = default_signatures(m)
    worked_ok = (
        sorted(sig.circuits)
        == sorted([(1, 1, 0, 0, -1), (1, 1, 1, -1, 0), (0, 0, 1, -1, 1)])
        and len(sig.cocircuits) == 6
        and bby_vector(m, sig, frozenset({"e2", "e3", "e5"})) == (1, 0, 1, 0, 1)
        and m.class_of([1, 0, 2, 0, 1]) == m.class_of([1, 1, 0, 1, 1])
        and bby_act(m, sig, [0, 0, 1, 0, 0], frozenset({"e2", "e3", "e5"}))
        == frozenset({"e1", "e3", "e4"})
    )

    bad = 0
    graphs = connected_multigraphs(6)
    for g in graphs:
        gm = from_graph(g)
        pair = default_signatures(gm)
        if not check_acyclic_pair(pair):
            bad += 1
            continue
        if gm.group_order() != len(gm.bases()):
            bad += 1
            continue
        table = bby_table(gm, pair)  # raises if tags collide
        if len(table) != len(gm.bases()):
            bad += 1
    ok = worked_ok and bad == 0
    report(10, "bby", ok, f"worked example end-to-end, {len(graphs)} graphic matroids free+transitive, {bad} failures, {time.time()-t0:.0f}s")


def test_11_conjecture_harness():
    t0 = time.time()
    v = sweep("matroid", 6, max_elements=10)
    # completion plus a well-formed findings report is the acceptance bar;
    # a counterexample would be preserved verbatim in the findings list
    ok = v["checked"] > 0 and isinstance(v["findings"], list)
    note = (
        f"{v['instances']} instances, {v['checked']} checks incl. the "
        f"ten-element non-graphic matroid, {len(v['findings'])} findings, "
        f"{time.time()-t0:.0f}s"
    )
    report(11, "conjecture-harness", ok, note)
