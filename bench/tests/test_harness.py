"""Tests of the benchmark's own logic: python3 -m pytest bench/tests -q"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import large_act  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stats import tail  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # root 0..10 with children A 1..4 and B 3..6 (overlapping), A has C 2..3,
    # and D 9..12 sticks out past root's end.
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    own = spans.self_times(start, end, parent)
    # root loses [1, 6] and [9, 10]; A loses [2, 3]; leaves keep everything.
    assert own == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_summary_counts_errors_once_per_module_and_nested_totals_once():
    tracer = spans.Tracer()

    def inner(x):
        raise ValueError(x)

    inner_t = tracer.wrap("sandpile.reduce", inner)
    outer_t = tracer.wrap("sandpile.canonical_class", lambda x: inner_t(x))
    top_t = tracer.wrap("torsor.TorsorAction.act", lambda x: outer_t(x))
    with pytest.raises(ValueError):
        top_t(1)
    rec_t = tracer.wrap("rotor.route_chip", lambda n: rec_t(n - 1) if n else 0)
    rec_t(3)
    summary = spans.summarise(tracer, {"intlinalg.smith_diagonal": 2})
    assert summary["modules"]["sandpile"]["errors"] == 1
    assert summary["modules"]["torsor"]["errors"] == 1
    assert summary["modules"]["intlinalg"]["deadline_misses"] == 2
    route = summary["entries"]["rotor.route_chip"]
    assert route["calls"] == 4
    outermost = tracer.end[len(tracer.end) - 4] - tracer.start[len(tracer.start) - 4]
    assert route["total_s"] == pytest.approx(outermost)


def test_tail_needs_ten_samples_beyond_it():
    assert tail(range(19)) is None
    assert tail(range(20)) == {"p": 50.0, "value": 9, "beyond": 10, "samples": 20}
    got = tail(range(1, 101))
    assert (got["p"], got["value"], got["beyond"], got["samples"]) == (90.0, 90, 10, 100)
    got = tail(range(1, 1001))
    assert (got["p"], got["beyond"]) == (99.0, 10)


def _report(inv):
    want = gate.EXPECTED[inv]
    return {
        "schema": "rotorsand-report-v1",
        "instances": want["instances"],
        "checked": want["checked"],
        "violations": [],
        "findings": [],
        "timings": {"ignored": True},
    }


@pytest.mark.parametrize("inv", sorted(gate.EXPECTED))
def test_gate_accepts_reference_verdict(inv):
    assert gate.check(inv, 0, _report(inv)) == []


def test_gate_rejects_doctored_reports():
    inv = ("torsor", "--max-edges", "5")
    doctored = _report(inv)
    doctored["checked"] -= 1
    assert gate.check(inv, 0, doctored) == ["checked: got 5335, expected 5336"]
    doctored = _report(inv)
    doctored["violations"] = [{"graph": "x", "detail": "identity"}]
    assert gate.check(inv, 0, doctored) == ["violations: got 1, expected 0"]
    assert gate.check(inv, 3, _report(inv)) == ["exit code 3, expected 0"]
    assert gate.check(inv, 0, None) == ["no report"]


def test_every_layer_metric_says_what_it_should_move():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert list(metrics.MOVES) == list(metrics.LAYER)


def _one_instance():
    return large_act.build(seed=1, run=0)[:1]


def _as_recorded(out):
    return json.loads(json.dumps(out))


def test_large_act_engine_error_makes_the_run_incorrect(monkeypatch):
    def answer(kind, payload, g, action):
        if kind == "act":
            raise ValueError("engine broke")
        return True

    monkeypatch.setattr(large_act, "_answer", answer)
    out = _as_recorded(large_act.run(_one_instance()))
    queries = large_act.ACT_QUERIES + large_act.REDUCE_QUERIES
    assert out["queries"] == queries
    assert [f["outcome"] for f in out["failures"]] == ["error"] * large_act.ACT_QUERIES
    problems = run.large_act_problems(out, queries)
    assert len(problems) == large_act.ACT_QUERIES
    assert all("engine broke" in p for p in problems)


def test_large_act_deadline_on_a_counted_query_fails_the_run(monkeypatch):
    def answer(kind, payload, g, action):
        if kind == "reduce":
            while True:
                pass
        return True

    monkeypatch.setattr(large_act, "_answer", answer)
    monkeypatch.setitem(large_act.DEADLINE_S, "reduce", 0.01)
    out = _as_recorded(large_act.run(_one_instance()))
    misses = [f for f in out["failures"] if f["outcome"] == "deadline"]
    assert [f["where"] for f in misses] == ["benchmark"] * large_act.REDUCE_QUERIES
    assert out["failed"] == large_act.REDUCE_QUERIES
    queries = large_act.ACT_QUERIES + large_act.REDUCE_QUERIES
    assert len(run.large_act_problems(out, queries)) == large_act.REDUCE_QUERIES


def test_large_act_probes_show_the_known_stall_and_nothing_else():
    out = _as_recorded(large_act.run([]))
    assert out["queries"] == out["failed"] == 0
    assert run.large_act_problems(out, 0) == []
    stall, control = out["probes"]
    assert (stall["outcome"], stall["where"]) == ("deadline", "intlinalg.smith_diagonal")
    assert control["invariants"] == [4, 4, 376244]
    assert large_act.probe_verdict({**stall, "where": "intlinalg.det"})[0] is False
    assert large_act.probe_verdict({**stall, "outcome": "error", "where": "ValueError()"})[0] is False
    fixed = {**stall, "outcome": "answered", "where": None, "invariants": [2, 6]}
    ok, line = large_act.probe_verdict(fixed)
    assert ok and "no longer reproduces" in line
    assert large_act.probe_verdict({**control, "invariants": [4, 376244]})[0] is False
    assert large_act.probe_verdict({**control, "outcome": "wrong", "invariants": None})[0] is False
