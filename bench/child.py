"""One measured process of the benchmark; run.py starts a fresh one per invocation.

    child.py setup SUITE ARGS...            run `verify SUITE ARGS` up to its first check
    child.py setup large-act --seed N       build the large-act telescopes and inputs
    child.py sweep [--trace F] SUITE ARGS...  rotorsand.cli.main(["verify", SUITE, ARGS...])
    child.py large-act --seed N --run R [--trace F]

The last line on stdout is one JSON object with the outcome.  With --trace,
entry points are wrapped (see spans.py), the raw spans go to F and their
summary into the JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import large_act  # noqa: E402
import spans  # noqa: E402


class _FirstCheck(Exception):
    """Raised where `verify` hands its instances to the checks."""


def setup_sweep(suite_args: list[str]) -> int:
    """Run `rotorsand verify SUITE ARGS` up to its first check; return the instance count.

    cmd_verify builds its instances and then hands them to ``cli._pool_map``;
    replacing that with a stop times exactly the path the CLI takes.
    """
    from rotorsand import cli

    def stop(_fn, payloads, _workers):
        raise _FirstCheck(len(payloads))

    cli._pool_map = stop
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", *suite_args, "--workers", "1", "--seed", "0"])
    except _FirstCheck as done:
        return done.args[0]
    raise RuntimeError(f"verify {' '.join(suite_args)} finished without reaching cli._pool_map")


def setup_matroid(args: list[str]) -> int:
    """Build the matroids `verify matroid ARGS` checks; return their count.

    conjecture_search builds each matroid and checks it in the same loop, so
    there is no point to stop it at; this builds the same list.
    """
    from rotorsand import catalog, matroid

    opts = argparse.ArgumentParser()
    opts.add_argument("--max-edges", type=int)
    opts.add_argument("--max-elements", type=int, default=6)
    known = opts.parse_args(args)
    out = [matroid.from_graph(g) for g in catalog.connected_multigraphs(known.max_edges)]
    if known.max_elements >= 10:
        out.append(matroid.r10())
    return len(out)


def _start_trace(path, ignore=()):
    if path is None:
        return None
    import rotorsand.cli  # noqa: F401  (every module that imports entry points by name)

    tracer = spans.Tracer()
    spans.install(tracer, ignore)
    return tracer


def _finish_trace(tracer, path, misses) -> dict | None:
    if tracer is None:
        return None
    t0 = time.perf_counter()
    summary = spans.summarise(tracer, misses)
    tracer.write(path)
    summary["spans"] = len(tracer.start)
    summary["post_s"] = time.perf_counter() - t0
    return summary


def main(argv) -> int:
    opts = argparse.ArgumentParser()
    opts.add_argument("mode", choices=["setup", "sweep", "large-act"])
    opts.add_argument("--trace", default=None)
    opts.add_argument("--seed", type=int, default=0)
    opts.add_argument("--run", type=int, default=0)
    known, suite_args = opts.parse_known_args(argv)

    if known.mode == "setup":
        if suite_args == ["large-act"]:
            instances = len(large_act.build(known.seed, 0))
        elif suite_args[0] == "matroid":
            instances = setup_matroid(suite_args[1:])
        else:
            instances = setup_sweep(suite_args)
        result = {"instances": instances}
    elif known.mode == "sweep":
        tracer = _start_trace(known.trace)
        from rotorsand import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", *suite_args, "--workers", "1", "--seed", "0"])
        try:
            report = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            report = None
        result = {"exit": code, "report": report, "trace": _finish_trace(tracer, known.trace, {})}
    else:
        tracer = _start_trace(known.trace, large_act.DeadlineExceeded)
        result = large_act.run(large_act.build(known.seed, known.run), tracer)
        result["trace"] = _finish_trace(tracer, known.trace, result["deadline_misses"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
