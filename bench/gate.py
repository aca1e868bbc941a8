"""Verdict gate: each sweep must reproduce the verdict of the reference build.

Only the verdict fields are compared, so reports may gain blocks (timings,
counters) without tripping the gate.
"""

from __future__ import annotations

VERDICT_FIELDS = ("instances", "checked", "violations", "findings")

# verify arguments -> verdict of the reference build (violations and findings
# are list lengths in the report).
EXPECTED = {
    ("torsor", "--max-edges", "5"): {"instances": 71, "checked": 5336, "violations": 0, "findings": 0},
    ("consistency", "--max-edges", "5"): {"instances": 71, "checked": 7482, "violations": 0, "findings": 0},
    ("sink-invariance", "--max-edges", "5"): {"instances": 71, "checked": 2417, "violations": 0, "findings": 0},
    ("moves", "--max-edges", "6"): {"instances": 29, "checked": 4780, "violations": 0, "findings": 0},
    ("unicycle", "--max-edges", "6"): {"instances": 703, "checked": 4041, "violations": 0, "findings": 0},
    ("matroid", "--max-edges", "4"): {"instances": 80, "checked": 1144, "violations": 0, "findings": 0},
}


def verdict(report: dict) -> dict:
    """The verdict fields of a `rotorsand verify` report."""
    out = {}
    for key in VERDICT_FIELDS:
        value = report.get(key)
        out[key] = len(value) if isinstance(value, list) else value
    return out


def check(invocation: tuple, exit_code: int, report: dict | None) -> list[str]:
    """Differences from the expected verdict; empty when the sweep passes."""
    want = EXPECTED[tuple(invocation)]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if report is None:
        problems.append("no report")
        return problems
    got = verdict(report)
    for key in VERDICT_FIELDS:
        if got[key] != want[key]:
            problems.append(f"{key}: got {got[key]}, expected {want[key]}")
    return problems
