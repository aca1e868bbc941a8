"""Command-line interface: one-shot computations and verification sweeps.

Output is deterministic JSON on stdout (DOT with --dot where offered).
Exit codes: 0 success, 2 malformed input (an InputError, raised where a
command reads its arguments), 3 a mathematical guarantee failed (either an
InvariantViolation or a verification suite with violations).  Any other
exception is a bug and ends in a traceback.
Reports carry a schema tag, the configuration echo, the seed, and wall time.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial
from itertools import product as iproduct
from operator import itemgetter

from . import catalog
from .errors import InvariantViolation
from .multigraph import Multigraph

SCHEMA = "rotorsand-report-v1"
# torsor.VARIANTS, spelled out so the parser loads no torsor code
VARIANTS = ("r", "rbar", "rinv", "rbarinv")


class InputError(ValueError):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _open_out(path):
    """Open path for writing; an unwritable path is an input error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_graph(path) -> Multigraph:
    try:
        return Multigraph.from_obj(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_ribbon(path) -> RibbonGraph:
    from .ribbon import RibbonGraph

    try:
        rg = RibbonGraph.from_obj(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _require_connected(rg.graph)
    return rg


def _load_tree(path):
    obj = _load_json(path)
    if isinstance(obj, dict):
        obj = obj.get("edges")
    if not isinstance(obj, list) or not all(isinstance(e, str) for e in obj):
        raise InputError("tree file must be a list of edge ids")
    return frozenset(obj)


def _load_spanning_tree(path, g: Multigraph):
    tree = _load_tree(path)
    if not g.is_spanning_tree(tree):
        raise InputError(f"{sorted(tree)} is not a spanning tree of the graph")
    return tree


def _require_connected(g: Multigraph):
    if not g.is_connected():
        raise InputError("graph must be connected")


def _require_vertex(g: Multigraph, v, what):
    if v not in g.vertices:
        raise InputError(f"unknown {what} {v!r}")


def _load_divisor(path, g: Multigraph) -> Divisor:
    from .sandpile import Divisor

    obj = _load_json(path)
    if not isinstance(obj, dict) or not all(type(n) is int for n in obj.values()):
        raise InputError("divisor file must map vertex ids to integers")
    unknown = sorted(set(obj) - set(g.vertices))
    if unknown:
        raise InputError(f"divisor names vertices not in the graph: {unknown}")
    return Divisor(obj)


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _dot_ribbon(rg: RibbonGraph) -> str:
    lines = ["graph {"]
    for v, seq in rg.rotation.items():
        lines.append(f'  "{v}";  // rotation: {" ".join(seq)}')
    for e in rg.graph.edges:
        u, w = rg.graph.ends(e)
        lines.append(f'  "{u}" -- "{w}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines)


def _dot_rotors(g: Multigraph, tree, s) -> str:
    from .rotor import tree_to_rotors

    lines = ["digraph {"]
    for v, e in sorted(tree_to_rotors(g, tree, s).items()):
        lines.append(f'  "{v}" -> "{g.other(e, v)}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines)


# -- one-shot commands ---------------------------------------------------------


def cmd_trees(args):
    g = _load_graph(args.graph)
    _require_connected(g)
    _emit([sorted(t) for t in g.spanning_trees()])


def cmd_group(args):
    from . import sandpile

    g = _load_graph(args.graph)
    _require_connected(g)
    s = sandpile.group_structure(g)
    _emit({"invariant_factors": list(s.invariant_factors), "order": s.order})


def cmd_genus(args):
    rg = _load_ribbon(args.graph)
    if args.dot:
        print(_dot_ribbon(rg))
        return
    _emit(
        {
            "faces": len(rg.faces()),
            "genus": rg.euler_genus(),
            "plane": rg.is_plane(),
        }
    )


def cmd_route(args):
    from .rotor import route_chip

    rg = _load_ribbon(args.graph)
    _require_vertex(rg.graph, args.chip, "chip")
    _require_vertex(rg.graph, args.sink, "sink")
    tree = _load_spanning_tree(args.tree, rg.graph)
    out, steps = route_chip(rg, tree, args.chip, args.sink, trace=args.trace)
    if args.dot:
        print(_dot_rotors(rg.graph, out, args.sink))
        return
    result = {"tree": sorted(out)}
    if args.trace:
        result["trace"] = [
            {
                "step": st.step,
                "chip": st.chip,
                "rotatedVertex": st.rotated_vertex,
                "newRotor": st.new_rotor,
            }
            for st in steps
        ]
    _emit(result)


def cmd_act(args):
    from . import torsor

    rg = _load_ribbon(args.graph)
    if not rg.is_plane():
        raise InputError("act needs a plane ribbon graph")
    tree = _load_spanning_tree(args.tree, rg.graph)
    d = _load_divisor(args.divisor, rg.graph)
    if d.degree() != 0:
        raise InputError(f"act needs a degree-0 divisor, this one has degree {d.degree()}")
    action = torsor.TorsorAction(rg, args.variant)
    _emit({"tree": sorted(action.act(d, tree)), "variant": args.variant})


def cmd_reduce(args):
    from . import sandpile

    g = _load_graph(args.graph)
    _require_connected(g)
    d = _load_divisor(args.divisor, g)
    q = g.vertices[0] if args.sink is None else args.sink
    _require_vertex(g, q, "sink")
    _emit({"reduced": sandpile.reduce(g, d, q).to_dict(), "sink": q})


def cmd_moves(args):
    from . import moves

    # leaf-swap paths read no rotation, so they take a plain graph
    rg = None if args.leaf_swap else _load_ribbon(args.graph)
    g = _load_graph(args.graph) if rg is None else rg.graph
    if not g.is_two_connected():
        raise InputError("move paths need a 2-connected graph")
    t1 = _load_spanning_tree(args.src, g)
    t2 = _load_spanning_tree(args.dst, g)
    if rg is None:
        _emit({"trees": [sorted(t) for t in moves.leaf_swap_path(g, t1, t2)]})
        return
    seq = moves.source_turn_path(rg, t1, t2)
    _emit(
        {
            "moves": [
                {"c": mv.c, "s": mv.s, "removed": mv.removed, "added": mv.added}
                for mv in seq
            ],
            "trees": [sorted(t1)] + [sorted(mv.result) for mv in seq],
        }
    )


def cmd_telescope(args):
    from . import moves

    try:
        ks = [int(x) for x in args.ks.split(",")] if args.ks else [0]
    except ValueError as exc:
        raise InputError(f"--ks must be comma-separated integers: {exc}") from exc
    if args.n < 0 or len(ks) != args.n + 1 or min(ks) < 0:
        raise InputError("telescope needs --n >= 0 and --ks of n+1 nonnegative counts")
    rg, labels = moves.telescope(args.n, ks)
    obj = rg.to_obj()
    obj["labels"] = {
        "c": labels.c,
        "s": labels.s,
        "x": labels.x,
        "f": labels.f,
        "g": labels.g,
    }
    if args.out:
        with _open_out(args.out) as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
    else:
        _emit(obj)


def _load_matroid(args):
    from .matroid import RegularMatroid

    try:
        return RegularMatroid.from_obj(_load_json(args.matroid))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_signatures(args, m):
    from .matroid import SignaturePair, check_acyclic_pair, default_signatures

    if not args.signatures:
        return default_signatures(m)
    obj = _load_json(args.signatures)
    try:
        pair = SignaturePair(
            tuple(tuple(v) for v in obj["circuits"]), tuple(tuple(v) for v in obj["cocircuits"])
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed signature file: {exc}") from exc
    if any(type(x) is not int for v in pair.circuits + pair.cocircuits for x in v):
        raise InputError("signature entries must be integers")
    _check_signature_choice(pair.circuits, set(m.circuits()), "circuit")
    _check_signature_choice(pair.cocircuits, set(m.cocircuits()), "cocircuit")
    if not check_acyclic_pair(pair):
        raise InputError("provided signatures are not acyclic")
    return pair


def _check_signature_choice(chosen, family, kind):
    seen = set()
    for v in chosen:
        base = v if v in family else tuple(-x for x in v)
        if base not in family:
            raise InputError(f"{list(v)} is not a signed {kind} of this matroid")
        if base in seen:
            raise InputError(f"both orientations of a {kind} were chosen")
        seen.add(base)
    if len(seen) != len(family):
        raise InputError(f"signature must choose one orientation per {kind}")


def _parts(text, sep):
    """The parts of text between the separators, stripped, empty ones left out."""
    return [part.strip() for part in text.split(sep) if part.strip()]


def cmd_bby(args):
    from .matroid import bby_act, bby_vector

    m = _load_matroid(args)
    pair = _load_signatures(args, m)
    basis = frozenset(_parts(args.basis, ","))
    if basis not in m.bases():
        raise InputError(f"{sorted(basis)} is not a basis of the matroid")
    if args.action == "vector":
        _emit({"vector": list(bby_vector(m, pair, basis))})
        return
    vec = [0] * m.size
    for part in _parts(args.cls, "+"):
        if part not in m.labels:
            raise InputError(f"unknown ground element {part!r}")
        vec[m.labels.index(part)] += 1
    _emit({"basis": sorted(bby_act(m, pair, vec, basis))})


# -- verification suites --------------------------------------------------------

SUITES = ("torsor", "sink-invariance", "consistency", "moves", "unicycle", "telescope", "matroid")
POOLED = SUITES[:5]  # checked one catalog graph per payload, through _pool_map
# verify options only some suites read: (default, those suites)
SUITE_OPTIONS = {
    "variant": ("r", ("torsor", "consistency")),
    "include_nonplanar": (False, ("sink-invariance",)),
    "max_elements": (6, ("matroid",)),
}
# largest --max-edges verify accepts, per suite and for sink-invariance with
# --include-nonplanar: the largest size that ran in under about 5 minutes on
# one core (telescope runs fixed instances; cli.sweep itself takes any size)
MAX_EDGES = {
    "torsor": 9,
    "sink-invariance": 8,
    "sink-invariance --include-nonplanar": 7,
    "consistency": 8,
    "moves": 9,
    "unicycle": 9,
    "matroid": 9,
}


def _check(suite, variant, rg):
    """Check one pooled instance; returns (checked, violations, notes)."""
    if suite == "unicycle":
        from .rotor import verify_full_spin

        rep = verify_full_spin(rg)
        return rep["orbits"], list(rep["violations"]), []
    if suite == "moves":
        return _check_moves(rg)
    from . import torsor

    if suite == "torsor":
        rep = torsor.verify_torsor_axioms(rg, variant=variant)
    elif suite == "consistency":
        rep = torsor.verify_consistency(rg, variant)
    else:
        rep = torsor.verify_sink_invariance(rg)
    return rep.checked, rep.violations, rep.notes


def _check_moves(rg):
    """Source-turn paths, then leaf-swap paths, between every ordered tree pair."""
    from . import moves

    g = rg.graph
    trees = g.spanning_trees()

    def turn_ends(a, b):
        """The trees a source-turn path from a to b starts and ends at."""
        seq = moves.source_turn_path(rg, a, b)
        return [seq[0].tree, seq[-1].result] if seq else [a]

    finders = (
        ("", "bad path", turn_ends),
        ("leaf swap: ", "bad leaf path", lambda a, b: moves.leaf_swap_path(g, a, b)),
    )
    checked = 0
    violations = []
    for prefix, bad, find in finders:
        for t1, t2 in iproduct(trees, repeat=2):
            checked += 1
            try:
                path = find(t1, t2)
            except InvariantViolation as exc:
                violations.append({"pair": [sorted(t1), sorted(t2)], "error": f"{prefix}{exc}"})
                continue
            if path[0] != t1 or path[-1] != t2:
                violations.append({"pair": [sorted(t1), sorted(t2)], "error": bad})
    return checked, violations, []


def _pool_map(fn, payloads, workers):
    if workers <= 1:
        return [fn(p) for p in payloads]
    from multiprocessing import Pool

    with Pool(workers) as pool:
        return list(pool.imap(fn, payloads, chunksize=4))


def sweep(suite, max_edges=5, variant="r", include_nonplanar=False, max_elements=6, workers=1):
    """Run one verification suite; return the verdict part of its report.

    The keys are `instances`, `checked`, `violations`, `findings` and `notes`.
    The pooled suites check one catalog graph per payload, in catalog order;
    only the graphs with violations or notes are then written as JSON text,
    which keys their violations and orders them, notes included.
    ``include_nonplanar`` runs sink-invariance over every ribbon graph in
    the same pass, and turns the non-plane maps' disagreements into
    findings, in catalog order; a non-plane map with no sink-dependence
    witness (``torsor.NO_WITNESS``) stays a violation.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    check = partial(_check, suite, variant)
    out = {"instances": 0, "checked": 0, "violations": [], "findings": [], "notes": []}
    nonplane = include_nonplanar and suite == "sink-invariance"
    if nonplane:
        from .torsor import NO_WITNESS
    if suite in POOLED:
        if suite == "unicycle" or nonplane:
            graphs = catalog.ribbon_graphs(max_edges)
        else:
            graphs = catalog.plane_graphs(max_edges, two_connected=suite == "moves")
        reported = []
        for rg, (checked, violations, notes) in zip(graphs, _pool_map(check, graphs, workers)):
            out["instances"] += 1
            out["checked"] += checked
            if nonplane and not rg.is_plane() and NO_WITNESS not in violations:
                if violations:
                    out["findings"].append(
                        {
                            "graph": rg.to_json(),
                            "disagreements": len(violations),
                            "expected": "sink dependence is forced off the plane",
                        }
                    )
            elif violations or notes:
                reported.append((rg.to_json(), violations, notes))
        for key, violations, notes in sorted(reported, key=itemgetter(0)):
            out["violations"].extend({"graph": key, "detail": v} for v in violations)
            out["notes"].extend(notes)
    if suite == "unicycle":
        from .rotor import verify_reversal_equivalence

        for rg, name in reversal_instances():
            out["instances"] += 1
            if not verify_reversal_equivalence(rg)["equivalence_holds"]:
                out["violations"].append({"graph": name, "detail": "reversal equivalence failed"})
    elif suite == "telescope":
        from . import moves

        for n in range(3):
            for ks in iproduct(range(3), repeat=n + 1):
                rg, labels = moves.telescope(n, list(ks))
                out["instances"] += 1
                out["checked"] += 1
                if not moves.verify_telescope_equivalence(rg, labels):
                    out["violations"].append({"telescope": [n, list(ks)]})
    elif suite == "matroid":
        from .matroid import conjecture_search

        found = conjecture_search(max_edges, include_r10=max_elements >= 10)
        out["instances"] = found["instances"]
        out["checked"] = found["checked"]
        out["findings"] = found["findings"]
        out["notes"].append("matroid consistency findings are reported, not asserted")
    return out


def cmd_verify(args):
    t0 = time.time()
    if args.suite != "telescope" and args.max_edges < 1:
        raise InputError(f"--max-edges must be at least 1, not {args.max_edges}")
    if args.workers is not None and args.workers < 0:
        raise InputError(f"--workers must be nonnegative, not {args.workers}")
    for name, (default, suites) in SUITE_OPTIONS.items():
        if getattr(args, name) != default and args.suite not in suites:
            raise InputError(f"--{name.replace('_', '-')} does nothing for the {args.suite} suite")
    sized = f"{args.suite} --include-nonplanar" if args.include_nonplanar else args.suite
    bound = MAX_EDGES.get(sized, args.max_edges)
    if args.max_edges > bound:
        raise InputError(f"--max-edges {args.max_edges} is over the bound of {bound} for {sized}")
    if args.report:
        _open_out(args.report).close()  # an unwritable path fails before the sweep
    seed = args.seed if args.seed is not None else random.randrange(2**32)
    workers = args.workers or 1
    config = {"suite": args.suite, "max_edges": args.max_edges, "seed": seed, "workers": workers}
    config.update((name, getattr(args, name)) for name in SUITE_OPTIONS)
    verdict = sweep(
        args.suite, args.max_edges, args.variant, args.include_nonplanar, args.max_elements, workers
    )
    report = {"schema": SCHEMA, "tool_version": _version(), "config": config, **verdict}
    report["wall_time_s"] = round(time.time() - t0, 3)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.report:
        with _open_out(args.report) as fh:
            fh.write(text + "\n")
    print(text)
    if report["violations"]:
        return 3
    return 0


def reversal_instances():
    """The named triple-edge and K4 structures, each plane and genus 1."""
    from .multigraph import banana_graph, complete_graph
    from .ribbon import RibbonGraph

    e3 = banana_graph(3)
    out = [
        (RibbonGraph(e3, {"x": ("e0", "e1", "e2"), "y": ("e2", "e1", "e0")}), "triple edge, plane"),
        (RibbonGraph(e3, {"x": ("e0", "e1", "e2"), "y": ("e0", "e1", "e2")}), "triple edge, genus 1"),
    ]
    k4 = complete_graph(4)
    plane_rot = {
        "v0": ("e0_1", "e0_3", "e0_2"),
        "v1": ("e1_2", "e1_3", "e0_1"),
        "v2": ("e0_2", "e2_3", "e1_2"),
        "v3": ("e1_3", "e2_3", "e0_3"),
    }
    genus1 = next(rg for rg in catalog.rotation_systems(k4) if rg.euler_genus() == 1)
    out.append((RibbonGraph(k4, plane_rot), "complete graph on 4, plane"))
    out.append((genus1, "complete graph on 4, genus 1"))
    return out


def _version():
    from . import __version__

    return __version__


def build_parser():
    p = argparse.ArgumentParser(prog="rotorsand", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("trees", help="list spanning trees")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_trees)

    sp = sub.add_parser("group", help="sandpile group structure")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_group)

    sp = sub.add_parser("genus", help="faces, genus, planarity of a ribbon graph")
    sp.add_argument("graph")
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(fn=cmd_genus)

    sp = sub.add_parser("route", help="route one chip to the sink")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tree", required=True)
    sp.add_argument("--chip", required=True)
    sp.add_argument("--sink", required=True)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(fn=cmd_route)

    sp = sub.add_parser("act", help="apply a sandpile class to a tree")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tree", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--variant", default="r", choices=list(VARIANTS))
    sp.set_defaults(fn=cmd_act)

    sp = sub.add_parser("reduce", help="canonical reduced divisor")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--sink", default=None)
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("moves", help="tree-to-tree move sequences")
    sp.add_argument("action", choices=["path"])
    sp.add_argument("--graph", required=True)
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp.add_argument("--leaf-swap", action="store_true")
    sp.set_defaults(fn=cmd_moves)

    sp = sub.add_parser("telescope", help="generate a telescope graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ks", default="")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_telescope)

    sp = sub.add_parser("bby", help="BBY vectors and action")
    sp.add_argument("action", choices=["act", "vector"])
    sp.add_argument("--matroid", required=True)
    sp.add_argument("--signatures", default=None)
    sp.add_argument("--class", dest="cls", default="")
    sp.add_argument("--basis", required=True)
    sp.set_defaults(fn=cmd_bby)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=SUITES)
    sp.add_argument("--max-edges", type=int, default=5)
    sp.add_argument("--max-elements", type=int, default=SUITE_OPTIONS["max_elements"][0])
    sp.add_argument("--variant", default=SUITE_OPTIONS["variant"][0], choices=list(VARIANTS))
    sp.add_argument("--include-nonplanar", action="store_true")
    sp.add_argument("--report", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.fn(args)
        return out if isinstance(out, int) else 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
