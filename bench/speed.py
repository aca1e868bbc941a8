"""Host speed, from a fixed reference task timed next to every measured child.

The benchmark runs on shared machines whose speed swings by a fifth or more
over tens of seconds as other tenants' load comes and goes, and a median
over the runs of one measurement does not remove swings that long.  So the
reference is timed in the benchmark process right before and right after
every measured child, on the same CPU, and the child's wall time is scaled
to the speed at which the reference takes REF_NOMINAL_S: a normalised time
is the wall time the child would have taken on a host where the reference
takes 100 ms.

The reference is a pure-Python loop of the kind of work rotorsand does
(small-integer arithmetic, dict lookups and updates, calls) followed by the
start of a fresh interpreter that imports a few standard modules, since
every measured child starts one.  It uses nothing from rotorsand, so a
change to the package cannot move it.  On plane-sweep, whose children are
the shortest, adding the interpreter start cut the rep-to-rep spread left
by the loop alone by a third (measured on a shared 2-vCPU host).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

REF_NOMINAL_S = 0.1
SAMPLES = 1  # references timed on each side of a child
REUSE_WITHIN_S = 0.5  # samples this recent also count for the next child


def _loop() -> int:
    x, acc = 12345, {}
    for _ in range(110_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        k = x % 509
        acc[k] = acc.get(k, 0) + 1
        if acc[k] > 3:
            acc.pop(k)
    return len(acc)


def reference_s() -> float:
    """Seconds for one pass of the reference loop and one interpreter start."""
    t0 = time.perf_counter()
    _loop()
    subprocess.run([sys.executable, "-c", "import json, re, fractions"], check=True)
    return time.perf_counter() - t0


class Meter:
    """Reference samples around the children of one measurement.

    Each side of a child gets SAMPLES references; when children run back
    to back, the samples taken after one also serve as those before the next.
    """

    def __init__(self):
        self._refs: list[float] = []
        self._taken = float("-inf")

    def _fresh(self) -> list[float]:
        self._refs = [reference_s() for _ in range(SAMPLES)]
        self._taken = time.monotonic()
        return self._refs

    def before(self) -> list[float]:
        if time.monotonic() - self._taken < REUSE_WITHIN_S:
            return self._refs
        return self._fresh()

    def after(self) -> list[float]:
        return self._fresh()


def normalise(wall_s: float, refs: list[float]) -> float:
    """wall_s scaled to a host where the reference takes REF_NOMINAL_S."""
    return wall_s * REF_NOMINAL_S / statistics.median(refs)
