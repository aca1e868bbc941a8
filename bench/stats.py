"""Percentiles for per-query latencies."""

from __future__ import annotations

import math

# Percentiles offered for the tail, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    return max(1, math.ceil(p / 100 * n))


def percentile(values, p: float):
    """Nearest-rank percentile of a non-empty list."""
    xs = sorted(values)
    return xs[_rank(p, len(xs)) - 1]


def tail(values) -> dict | None:
    """The highest ladder percentile with at least MIN_BEYOND samples ranked above it.

    Returns {"p": percentile, "value": value, "beyond": samples above it,
    "samples": n}, or None when even the median has fewer than MIN_BEYOND
    samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = _rank(p, n)
        if n - rank >= MIN_BEYOND:
            best = {"p": p, "value": xs[rank - 1], "beyond": n - rank, "samples": n}
    return best
