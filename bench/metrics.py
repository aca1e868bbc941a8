"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json is the list of bounded end-to-end metrics and of per-layer
metrics, with their units; this module reads it from there.  END_TO_END
metrics come from untraced runs, LAYER metrics from traced runs.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

# name -> unit; BENCHMARK.json bounds these on every workload it lists.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

# Reported and recorded, but not bounded: times and rates as measured
# swing with the host's speed (their normalised forms are bounded instead),
# fail_ratio is 0 on healthy workloads and the act latencies exist on
# large-act only.
REPORTED = {
    "wall_s": "s",
    "setup_wall_s": "s",
    "ops_per_s": "1/s",
    "fail_ratio": "ratio",
    "act_p50_ms": "ms",
    "act_tail_ms": "ms",
}

# name -> unit, in BENCHMARK.json order.
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

PLANE, RIBBON, MATROID, ACT = "plane-sweep", "ribbon-unicycle", "matroid-bby", "large-act"
_CATALOG = f"setup_s, norm_wall_s on {RIBBON}; none on {ACT}"
_RIBBON = f"setup_s, norm_wall_s on {RIBBON}"
_SANDPILE = f"norm_wall_s, norm_ops_per_s on {PLANE}, {ACT}; none on {RIBBON}, {MATROID}"
_ROTOR = f"norm_wall_s on {RIBBON}, {PLANE}; act_p50_ms on {ACT}"
_TORSOR = f"norm_wall_s on {PLANE}; act_p50_ms, act_tail_ms on {ACT}"
_SMITH = f"norm_wall_s on {ACT} (its group probes)"

# Per-layer metric -> the end-to-end metric and workload it should move,
# written down before any optimisation is measured against it.  The
# per_layer entries of BENCHMARK.json have no field for this, so it lives
# here and in the results file of every traced run (``layer_moves``).
MOVES = {
    "catalog.rotation_systems.calls": _CATALOG,
    "catalog.rotation_systems.total_s": _CATALOG,
    "catalog.instances": _CATALOG,
    "catalog.keep_ratio": _CATALOG,
    "ribbon.canonical_form.calls": _RIBBON,
    "ribbon.canonical_form.total_s": _RIBBON,
    "ribbon.is_plane.calls": _RIBBON,
    "multigraph.spanning_trees.calls": f"norm_wall_s on {PLANE}",
    "multigraph.spanning_trees.total_s": f"norm_wall_s on {PLANE}",
    "sandpile.reduce.calls": _SANDPILE,
    "sandpile.reduce.self_s": _SANDPILE,
    "sandpile.canonical_class.calls": _SANDPILE,
    "sandpile.move_to_sink.calls": _SANDPILE,
    "sandpile.enumerate_classes.total_s": _SANDPILE,
    "rotor.route_chip.calls": _ROTOR,
    "rotor.route_chip.self_s": _ROTOR,
    "rotor.route_divisor.calls": _ROTOR,
    "rotor.verify_full_spin.total_s": f"norm_wall_s on {RIBBON}",
    "torsor.act.calls": _TORSOR,
    "torsor.act.memo_hit_ratio": _TORSOR,
    "torsor.chip_table.calls": f"norm_wall_s on {PLANE}",
    "torsor.table.total_s": f"norm_wall_s on {PLANE}",
    "torsor.verify_torsor_axioms.total_s": f"norm_wall_s on {PLANE}",
    "torsor.verify_consistency.total_s": f"norm_wall_s on {PLANE}",
    "torsor.verify_sink_invariance.total_s": f"norm_wall_s on {PLANE}",
    "moves.source_turn_path.calls": f"norm_wall_s on {PLANE}",
    "moves.source_turn_path.total_s": f"norm_wall_s on {PLANE}",
    "moves.leaf_swap_path.total_s": f"norm_wall_s on {PLANE}",
    "matroid.minor.calls": f"norm_wall_s on {MATROID}",
    "matroid.minor.total_s": f"norm_wall_s on {MATROID}",
    "matroid.circuits.calls": f"norm_wall_s on {MATROID}",
    "matroid.cocircuits.calls": f"norm_wall_s on {MATROID}",
    "matroid.bby_table.total_s": f"norm_wall_s on {MATROID}",
    "lp.separating_functional.calls": f"norm_wall_s on {MATROID}",
    "lp.separating_functional.self_s": f"norm_wall_s on {MATROID}",
    "intlinalg.rank.calls": f"norm_wall_s on {MATROID}",
    "intlinalg.rank.self_s": f"norm_wall_s on {MATROID}",
    "intlinalg.smith_diagonal.calls": _SMITH,
    "intlinalg.smith_diagonal.self_s": _SMITH,
    "cli.self_s": f"norm_wall_s on {PLANE}, {RIBBON}, {MATROID}",
    **{
        f"{module}.{field}": "norm_wall_s on the workloads that reach the module"
        for module in ("catalog", "ribbon", "multigraph", "sandpile", "rotor", "torsor", "moves", "matroid", "lp", "intlinalg", "cli")
        for field in ("self_s", "errors", "deadline_misses")
        if (module, field) != ("cli", "self_s")
    },
    "trace_overhead": "none: traced wall over untraced median, minus 1",
}


def short(span_name: str) -> str:
    """'ribbon.RibbonGraph.canonical_form' -> 'ribbon.canonical_form'."""
    parts = span_name.split(".")
    return f"{parts[0]}.{parts[-1]}"


def layer_values(summary: dict, trace_overhead: float) -> dict:
    """Every LAYER metric from a (merged) span summary of one traced run."""
    entries = {short(k): v for k, v in summary["entries"].items()}
    modules = summary["modules"]
    values = {}
    for name in LAYER:
        head, _, field = name.rpartition(".")
        if field in modules.get(head, ()):
            values[name] = modules[head][field]
        elif field in ("calls", "total_s", "self_s"):
            values[name] = entries.get(head, {}).get(field, 0)
    canon = entries.get("ribbon.canonical_form", {}).get("calls", 0)
    acts = entries.get("torsor.act", {}).get("calls", 0)
    values["catalog.instances"] = summary["catalog_instances"]
    values["catalog.keep_ratio"] = summary["catalog_instances"] / canon if canon else 0.0
    values["torsor.act.memo_hit_ratio"] = 1 - summary["act_routed"] / acts if acts else 0.0
    values["trace_overhead"] = trace_overhead
    return values


def merge_summaries(summaries) -> dict:
    """Sum span summaries from the processes of one traced run."""
    out = {"entries": {}, "modules": {}, "catalog_instances": 0, "act_routed": 0, "spans": 0, "post_s": 0.0}
    for s in summaries:
        for name, rec in s["entries"].items():
            acc = out["entries"].setdefault(name, dict.fromkeys(rec, 0))
            for k, v in rec.items():
                acc[k] += v
        for module, rec in s["modules"].items():
            acc = out["modules"].setdefault(module, dict.fromkeys(rec, 0))
            for k, v in rec.items():
                acc[k] += v
        for k in ("catalog_instances", "act_routed", "spans", "post_s"):
            out[k] += s[k]
    return out
