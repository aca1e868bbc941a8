"""Command-line interface: the parser, the verification sweeps and the exit codes.

The one-shot computations (trees, group, genus, route, act, reduce, moves,
telescope, bby) live in ``rotorsand.commands``, which ``main`` imports only
to run one of them, so a sweep never loads their code.
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

SCHEMA = "rotorsand-report-v1"
# torsor.VARIANTS, spelled out so the parser loads no torsor code
VARIANTS = ("r", "rbar", "rinv", "rbarinv")


class InputError(ValueError):
    pass


def _open_out(path):
    """Open path for writing; an unwritable path is an input error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


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
    "sink-invariance --include-nonplanar": 8,
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
        from .moves import verify_paths

        return verify_paths(rg)
    from . import torsor

    if suite == "torsor":
        rep = torsor.verify_torsor_axioms(rg, variant=variant)
    elif suite == "consistency":
        rep = torsor.verify_consistency(rg, variant)
    else:
        rep = torsor.verify_sink_invariance(rg)
    return rep.checked, rep.violations, rep.notes


def _pool_map(fn, payloads, workers):
    """fn of each payload, yielded in payload order as each is ready, so the
    caller holds one result at a time; the pool closes once all are read."""
    if workers <= 1:
        yield from map(fn, payloads)
        return
    from multiprocessing import Pool

    with Pool(workers) as pool:
        yield from pool.imap(fn, payloads, chunksize=4)


def sweep(suite, max_edges=5, variant="r", include_nonplanar=False, max_elements=6, workers=1):
    """Run one verification suite; return the verdict part of its report.

    The keys are `instances`, `checked`, `violations`, `findings` and `notes`.
    The pooled suites check one catalog graph per payload, in catalog order;
    only the graphs with violations or notes are then written as JSON text,
    which keys their violations and orders them, notes included.
    ``include_nonplanar`` runs sink-invariance over every ribbon graph in
    the same pass, and makes each non-plane map's first sink-dependence
    witness a finding, in catalog order; a non-plane map with no witness
    (``torsor.NO_WITNESS``) stays a violation.
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
        results = _pool_map(check, graphs, workers)
        # strict: zip reads results past the last one, which closes the pool
        for rg, (checked, violations, notes) in zip(graphs, results, strict=True):
            out["instances"] += 1
            out["checked"] += checked
            if nonplane and not rg.is_plane() and NO_WITNESS not in violations:
                expected = "sink dependence is forced off the plane"
                found = {"graph": rg.to_json(), "witness": violations[0], "expected": expected}
                out["findings"].append(found)
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
        from .moves import telescope
        from .telescopes import verify_telescope_equivalence

        for n in range(3):
            for ks in iproduct(range(3), repeat=n + 1):
                rg, labels = telescope(n, list(ks))
                out["instances"] += 1
                out["checked"] += 1
                if not verify_telescope_equivalence(rg, labels):
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
    if args.max_elements < 1:
        raise InputError(f"--max-elements must be at least 1, not {args.max_elements}")
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

    sp = sub.add_parser("group", help="sandpile group structure")
    sp.add_argument("graph")

    sp = sub.add_parser("genus", help="faces, genus, planarity of a ribbon graph")
    sp.add_argument("graph")
    sp.add_argument("--dot", action="store_true")

    sp = sub.add_parser("route", help="route one chip to the sink")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tree", required=True)
    sp.add_argument("--chip", required=True)
    sp.add_argument("--sink", required=True)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--dot", action="store_true")

    sp = sub.add_parser("act", help="apply a sandpile class to a tree")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tree", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--variant", default="r", choices=list(VARIANTS))

    sp = sub.add_parser("reduce", help="canonical reduced divisor")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--sink", default=None)

    sp = sub.add_parser("moves", help="tree-to-tree move sequences")
    sp.add_argument("action", choices=["path"])
    sp.add_argument("--graph", required=True)
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp.add_argument("--leaf-swap", action="store_true")

    sp = sub.add_parser("telescope", help="generate a telescope graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ks", default="")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("bby", help="BBY vectors and action")
    sp.add_argument("action", choices=["act", "vector"])
    sp.add_argument("--matroid", required=True)
    sp.add_argument("--signatures", default=None)
    sp.add_argument("--class", dest="cls", default="")
    sp.add_argument("--basis", required=True)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=SUITES)
    sp.add_argument("--max-edges", type=int, default=5)
    r10 = "matroid only: R10 joins at 10 or more; --max-edges alone bounds the graphic matroids"
    sp.add_argument("--max-elements", type=int, default=SUITE_OPTIONS["max_elements"][0], help=r10)
    sp.add_argument("--variant", default=SUITE_OPTIONS["variant"][0], choices=list(VARIANTS))
    sp.add_argument("--include-nonplanar", action="store_true")
    sp.add_argument("--report", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        fn = cmd_verify
    else:  # the one-shot commands load only for themselves
        from . import commands

        fn = getattr(commands, f"cmd_{args.command}")
    try:
        out = fn(args)
        return out if isinstance(out, int) else 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
