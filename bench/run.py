"""The rotorsand benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout; the package is imported from
./src, nothing is installed.  Every measured piece of work is a fresh child
process (bench/child.py) with one worker, timed from outside.  The benchmark
and its children are pinned to one CPU.

--trace 0 measures the end-to-end metrics in about --seconds per workload:
set-up time in fresh processes (a batch before the runs and one after), and
whole workload runs in between while another one fits (at least one).  Each
measured child's wall time is also normalised to host speed with a
reference task timed right before and after it (speed.py).  --trace 1
alternates an untraced and a traced run the same way and reports the
per-layer metrics of the traced runs.

Human-readable lines go first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A results file with the
environment, every run and every failure is written to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import large_act
import metrics
import speed
from stats import percentile, tail

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"

SWEEPS = {
    "plane-sweep": (
        ("torsor", "--max-edges", "5"),
        ("consistency", "--max-edges", "5"),
        ("sink-invariance", "--max-edges", "5"),
        ("moves", "--max-edges", "6"),
    ),
    "ribbon-unicycle": (("unicycle", "--max-edges", "6"),),
    "matroid-bby": (("matroid", "--max-edges", "4"),),
}
WORKLOADS = (*SWEEPS, "large-act")
# Set-up is timed in two batches, one before the runs and one after, so that
# setup_s sees the same stretch of machine speed as wall_s.  Each batch takes
# at least SETUP_MIN_SAMPLES samples and goes on until SETUP_MIN_S seconds
# were spent on it, so that short set-ups get many samples.
SETUP_MIN_SAMPLES = 2
SETUP_MIN_S = 1.5
SETUP_MAX_SAMPLES = 30
CHILD_TIMEOUT_S = 170


class Child:
    """Outcome of one child process: wall time, peak RSS, exit code, JSON line.

    The meter times the reference task right before and after the child,
    and its wall time normalised to host speed (speed.py) is norm_s.
    """

    def __init__(self, args, meter: speed.Meter):
        cmd = [sys.executable, str(BENCH / "child.py"), *args]
        refs = meter.before()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        self.wall_s = time.perf_counter() - t0
        self.norm_s = speed.normalise(self.wall_s, refs + meter.after())
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        lines = out.decode(errors="replace").strip().splitlines()
        try:
            self.out = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            self.out = None


def _trace_path(workload, seed, i):
    return RESULTS / "spans" / f"{workload}-seed{seed}-{i}.json.gz"


def run_sweep(workload, seed, traced, meter):
    """One run of a sweep workload: each verify invocation in a fresh process."""
    rep = {"wall_s": 0.0, "norm_s": 0.0, "rss_mb": 0.0, "attempted": 0, "failed": 0, "problems": [], "traces": []}
    for i, inv in enumerate(SWEEPS[workload]):
        args = ["sweep", *inv]
        if traced:
            args[1:1] = ["--trace", str(_trace_path(workload, seed, i))]
        child = Child(args, meter)
        out = child.out or {}
        report = out.get("report")
        problems = gate.check(inv, out.get("exit", child.code), report)
        checked = report.get("checked", 0) if report else 0
        attempted = max(checked, gate.EXPECTED[inv]["checked"])
        rep["attempted"] += attempted
        if problems:
            rep["failed"] += attempted
            rep["problems"].append(f"verify {' '.join(inv)}: " + "; ".join(problems))
        rep["wall_s"] += child.wall_s
        rep["norm_s"] += child.norm_s
        rep["rss_mb"] = max(rep["rss_mb"], child.rss_mb)
        if out.get("trace"):
            rep["traces"].append(out["trace"])
    rep["correct"] = not rep["problems"]
    return rep


def large_act_problems(out: dict, expected: int) -> list[str]:
    """Why a large-act child's outcome is not correct; empty when it is.

    Every failed query counts (a wrong answer, an exception leaving the
    engine, a missed deadline), and so does a probe that neither answered as
    expected nor stalled where the known defect stalls.
    """
    problems = [
        f"{f['kind']} query on telescope n={f['n']} ks={f['ks']}: {f['outcome']} {f['where'] or ''}"
        for f in out["failures"]
    ]
    problems += [line for ok, line in map(large_act.probe_verdict, out["probes"]) if not ok]
    if out["queries"] != expected:
        problems.append(f"{out['queries']} queries answered, expected {expected}")
    return problems


def run_large_act(seed, index, traced, meter):
    """One run of large-act: a fresh process answering one seeded batch of queries."""
    args = ["large-act", "--seed", str(seed), "--run", str(index)]
    if traced:
        args += ["--trace", str(_trace_path("large-act", seed, index))]
    child = Child(args, meter)
    out = child.out
    expected = large_act.queries_per_run()
    rep = {"wall_s": child.wall_s, "norm_s": child.norm_s, "rss_mb": child.rss_mb, "traces": [], "act_ms": []}
    if child.code != 0 or out is None:
        rep.update(attempted=expected, failed=expected, correct=False, problems=[f"child exit {child.code}"])
        return rep
    problems = large_act_problems(out, expected)
    rep.update(
        attempted=out["queries"],
        failed=out["failed"],
        correct=not problems,
        problems=problems,
        act_ms=out["act_ms"],
        failures=out["failures"],
        probes=out["probes"],
    )
    if out.get("trace"):
        rep["traces"].append(out["trace"])
    return rep


def run_once(workload, seed, index, meter, traced=False):
    if workload == "large-act":
        return run_large_act(seed, index, traced, meter)
    return run_sweep(workload, seed, traced, meter)


def setup_once(workload, seed, meter) -> dict:
    """Seconds for fresh interpreters to import rotorsand and build the instances,
    as measured (wall_s) and normalised to host speed (norm_s)."""
    calls = [("large-act", "--seed", str(seed))] if workload == "large-act" else SWEEPS[workload]
    total = {"wall_s": 0.0, "norm_s": 0.0}
    for call in calls:
        child = Child(["setup", *call], meter)
        if child.code != 0 or child.out is None:
            raise RuntimeError(f"set-up of {' '.join(call)} failed with exit code {child.code}")
        total["wall_s"] += child.wall_s
        total["norm_s"] += child.norm_s
    return total


def setup_batch(workload, seed, meter) -> list[dict]:
    out = [setup_once(workload, seed, meter) for _ in range(SETUP_MIN_SAMPLES)]
    while sum(s["wall_s"] for s in out) < SETUP_MIN_S and len(out) < SETUP_MAX_SAMPLES:
        out.append(setup_once(workload, seed, meter))
    return out


def repeat(step, seconds) -> list:
    """Call step(0), step(1), ... while another step still fits in the time.

    At least one step runs; each returns a list of runs, concatenated.
    """
    out, took = [], []
    start = time.monotonic()
    while not took or time.monotonic() - start + statistics.median(took) <= seconds:
        t0 = time.monotonic()
        out += step(len(took))
        took.append(time.monotonic() - t0)
    return out


def measure(workload, seed, seconds) -> dict:
    """End-to-end metrics of one workload, tracing off, in about `seconds`."""
    meter = speed.Meter()
    start = time.monotonic()
    setups = setup_batch(workload, seed, meter)
    batch_s = time.monotonic() - start
    runs = repeat(lambda i: [run_once(workload, seed, i, meter)], seconds - 2 * batch_s)
    setups += setup_batch(workload, seed, meter)
    ops = [r["attempted"] - r["failed"] for r in runs]
    values = {
        "norm_wall_s": statistics.median(r["norm_s"] for r in runs),
        "setup_s": statistics.median(s["norm_s"] for s in setups),
        "norm_ops_per_s": statistics.median(n / r["norm_s"] for n, r in zip(ops, runs)),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_wall_s": statistics.median(s["wall_s"] for s in setups),
        "ops_per_s": statistics.median(n / r["wall_s"] for n, r in zip(ops, runs)),
        "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
    }
    notes = {
        "norm_wall_s": f"median of {len(runs)} runs, each child's wall time at reference speed (speed.py)",
        "setup_s": f"median of {len(setups)} fresh set-ups, at reference speed",
        "norm_ops_per_s": "median over runs of completed ops / norm_wall_s",
        "peak_rss_mb": f"max over the child processes of {len(runs)} runs",
        "wall_s": f"median of {len(runs)} runs, as measured",
        "setup_wall_s": f"median of {len(setups)} fresh set-ups, as measured",
        "ops_per_s": "median over runs of completed ops / run wall",
        "fail_ratio": f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)} attempted",
    }
    if workload == "large-act":
        act_ms = [ms for r in runs for ms in r["act_ms"]]
        top = tail(act_ms)
        if top:  # None when fewer than 20 act queries completed
            values["act_p50_ms"] = percentile(act_ms, 50)
            values["act_tail_ms"] = top["value"]
            notes["act_p50_ms"] = f"over the {len(act_ms)} act queries of {len(runs)} runs"
            notes["act_tail_ms"] = f"p{top['p']:g} of {len(act_ms)} act queries, {top['beyond']} beyond it"
    return {
        "values": values,
        "notes": notes,
        "runs": runs,
        "setups": setups,
        "statements": probe_statements(runs),
    }


def measure_traced(workload, seed, seconds) -> dict:
    """Per-layer metrics: alternate untraced and traced runs for the given time."""
    meter = speed.Meter()
    pairs = repeat(
        lambda i: [run_once(workload, seed, i, meter), run_once(workload, seed, i, meter, traced=True)], seconds
    )
    plain, traced = pairs[0::2], pairs[1::2]
    base = statistics.median(r["wall_s"] for r in plain)
    per_run = []
    for r in traced:
        summary = metrics.merge_summaries(r["traces"])
        overhead = (r["wall_s"] - summary["post_s"]) / base - 1
        per_run.append((metrics.layer_values(summary, overhead), summary))
    values = {name: statistics.median(v[name] for v, _ in per_run) for name in metrics.LAYER}
    return {
        "values": values,
        "runs": plain + traced,
        "summaries": [s for _, s in per_run],
        "statements": statements(workload, per_run[0][1]) + probe_statements(plain + traced),
    }


def statements(workload, summary) -> list[str]:
    """The expectations the traced run checks about where time goes."""
    modules = {m: rec["self_s"] for m, rec in summary["modules"].items()}
    total = sum(modules.values()) or 1.0
    if workload == "plane-sweep":
        own = {metrics.short(k): v["self_s"] for k, v in summary["entries"].items()}
        top = max(own, key=own.get)
        shares = ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(own.items(), key=lambda kv: -kv[1])[:4])
        verdict = "holds" if top == "sandpile.reduce" else "does not hold"
        return [f"sandpile.reduce has the largest self time on plane-sweep: {verdict} (share of traced self time: {shares})"]
    if workload == "ribbon-unicycle":
        front = modules["catalog"] + modules["ribbon"]
        verdict = "holds" if front > modules["rotor"] else "does not hold"
        return [
            f"catalog + ribbon self time exceeds rotor's on ribbon-unicycle: {verdict} "
            f"(catalog {modules['catalog'] / total:.1%}, ribbon {modules['ribbon'] / total:.1%}, "
            f"rotor {modules['rotor'] / total:.1%} of traced self time)"
        ]
    return []


def probe_statements(runs) -> list[str]:
    """What large-act's group probes did, with the number of runs each time."""
    seen: dict[str, int] = {}
    for r in runs:
        for _ok, line in map(large_act.probe_verdict, r.get("probes", ())):
            seen[line] = seen.get(line, 0) + 1
    return [f"{line} ({count} of {len(runs)} runs)" for line, count in seen.items()]


def environment(seed, runs) -> dict:
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    inside = git("rev-parse", "--show-toplevel")
    in_repo = inside is not None and Path(inside).resolve() == ROOT
    status = git("status", "--porcelain") if in_repo else None
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": (status != "") if status is not None else None,
        "workers": 1,
        "seed": seed,
        "runs": runs,
    }


def run_workload(workload, seed, seconds, trace) -> dict:
    """Measure one workload, print its lines, write its results file."""
    (RESULTS / "spans").mkdir(parents=True, exist_ok=True)
    if trace:
        got = measure_traced(workload, seed, seconds)
        shown = {name: {"value": got["values"][name], "unit": unit} for name, unit in metrics.LAYER.items()}
    else:
        got = measure(workload, seed, seconds)
        units = {**metrics.END_TO_END, **metrics.REPORTED}
        shown = {name: {"value": v, "unit": units[name]} for name, v in got["values"].items()}
    runs = got["runs"]
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    env = environment(seed, len(runs))
    print(f"== {workload}  seed={seed} workers=1 runs={len(runs)} trace={trace} "
          f"python={env['python']} nproc={env['nproc']} sha={env['git_sha']} dirty={env['git_dirty']}")
    for r in runs:
        for problem in r["problems"]:
            print(f"  FAIL {problem}")
    failures = [f for r in runs for f in r.get("failures", ())]
    notes = got.get("notes", {})
    for name, m in shown.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    for line in got.get("statements", ()):
        print(f"  {line}")
    record = {
        "workload": workload,
        "trace": trace,
        "environment": env,
        **result,
        "metrics": shown,
        "notes": notes,
        "statements": got.get("statements", []),
        "failures": failures,
        "per_run": [{k: v for k, v in r.items() if k not in ("traces", "act_ms")} for r in runs],
        "setup_samples": got.get("setups", []),
        "layer_moves": metrics.MOVES if trace else None,
        "span_summaries": got.get("summaries"),
    }
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    names = metrics.LAYER if trace else metrics.END_TO_END
    return {**result, "metrics": {name: shown[name] for name in names}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rotorsand" / "__init__.py").is_file():
        print(f"no rotorsand source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children, so that the reference task
    # (speed.py) is timed on the CPU the measured children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        out = {
            "correct": all(o["correct"] for o in parts.values()),
            "attempted": sum(o["attempted"] for o in parts.values()),
            "failed": sum(o["failed"] for o in parts.values()),
            "metrics": {f"{w}.{k}": v for w, o in parts.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
