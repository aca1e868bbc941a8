"""The large-act workload: one-shot act and reduce queries on telescopes.

Inputs come only from the seed.  Each run draws INSTANCES_PER_N telescopes
``moves.telescope(n, ks)`` for every n in N_VALUES, with every ks entry in
{0, 1, 2} and sum(ks) = n + 1, and asks of each:

* ACT_QUERIES additivity queries: ``act(d1 + d2, T) == act(d1, act(d2, T))``
  for random degree-0 divisors d1, d2 and a random spanning tree T;
* REDUCE_QUERIES reduce queries: ``reduce(g, d, q)`` must be q-reduced
  (``is_reduced``) and differ from d by a Laplacian image
  (``laplacian_image_contains``, an independent lattice oracle).

These are the counted ops; none is known to fail.  Every run then asks
the group query ``group_structure(g).order == tree_count(g)`` of the two
PROBES telescopes: one that answers, and one on which
``intlinalg.smith_diagonal`` is known to stall (see NOTES.md).  The probes
are not counted as ops, since the stall is a known defect; their outcome is
printed and recorded every run, and any outcome other than the expected
answer or that stall makes the run not correct.

Every query runs under a deadline for its kind.  A missed deadline is a
failed query, attributed to the innermost rotorsand layer that was running.
"""

from __future__ import annotations

import random
import signal
import time
from dataclasses import dataclass, field

N_VALUES = (8, 9, 10)
INSTANCES_PER_N = 2
ACT_QUERIES = 2
REDUCE_QUERIES = 2
AMPLITUDE = 10  # chips per vertex are drawn from [-AMPLITUDE, AMPLITUDE]

# Seconds per query.  Healthy group queries answer in a few milliseconds and
# act or reduce queries within about 0.3 s on these sizes, so each deadline
# is a large multiple of the healthy time, and a stall costs the run little.
DEADLINE_S = {"group": 0.1, "act": 2.0, "reduce": 2.0}

# Group queries asked of fixed telescopes on every run: (n, ks, expected),
# where expected is the invariant factors or KNOWN_STALL.  The first is the
# telescope on which smith_diagonal stalls; the second answers at once.
KNOWN_STALL = "deadline in intlinalg.smith_diagonal"
PROBES = (
    (7, (1, 2, 1, 2, 1, 2, 1, 2), KNOWN_STALL),
    (6, (1, 2, 1, 2, 1, 2, 1), (4, 4, 376244)),
)


class DeadlineExceeded(Exception):
    """Raised from SIGALRM when a query outlives its deadline."""


@dataclass
class Instance:
    n: int
    ks: list
    rg: object
    queries: list = field(default_factory=list)  # (kind, payload)


def _union(parent: dict, a, b) -> bool:
    """Join the components of a and b; False when they were already one."""
    roots = []
    for x in (a, b):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        roots.append(x)
    if roots[0] == roots[1]:
        return False
    parent[roots[0]] = roots[1]
    return True


def _random_tree(rng, g) -> frozenset:
    """A random spanning tree: Kruskal over a shuffled edge order."""
    parent = {v: v for v in g.vertices}
    edges = list(g.edges)
    rng.shuffle(edges)
    return frozenset(e for e in edges if _union(parent, *g.ends(e)))


def _is_spanning_tree(g, tree) -> bool:
    parent = {v: v for v in g.vertices}
    return len(tree) == len(g.vertices) - 1 and all(_union(parent, *g.ends(e)) for e in tree)


def _random_divisor(rng, g, Divisor):
    """Degree 0, chips drawn from [-AMPLITUDE, AMPLITUDE].

    The excess is taken off one chip at a time at random vertices, so that
    no single vertex absorbs all of it: such a vertex, holding up to n times
    the amplitude, made the cost of a batch vary much more between seeds.
    """
    vs = g.vertices
    chips = {v: rng.randint(-AMPLITUDE, AMPLITUDE) for v in vs}
    excess = sum(chips.values())
    step = -1 if excess > 0 else 1
    for _ in range(abs(excess)):
        chips[rng.choice(vs)] += step
    return Divisor(chips)


def _balanced_ks(rng, length: int) -> list:
    """Entries in {0, 1, 2} summing to length, in a random order.

    Every telescope for a given n then has the same vertex and edge count,
    so runs on different seeds do the same amount of work; the seed picks
    the arrangement, which decides the group structure.
    """
    third, rest = divmod(length, 3)
    ks = [0] * third + [1] * third + [2] * third + ([1] if rest == 1 else [0, 2] if rest == 2 else [])
    rng.shuffle(ks)
    return ks


def queries_per_run() -> int:
    return len(N_VALUES) * INSTANCES_PER_N * (ACT_QUERIES + REDUCE_QUERIES)


def build(seed: int, run: int) -> list[Instance]:
    """Telescopes and queries for one run; a function of (seed, run) alone."""
    # rotorsand is imported here, not at the top: run.py reads this module's
    # constants without the package on its path.
    from rotorsand import moves
    from rotorsand.sandpile import Divisor

    rng = random.Random(seed * 1_000_003 + run)
    out = []
    for n in N_VALUES:
        for _ in range(INSTANCES_PER_N):
            ks = _balanced_ks(rng, n + 1)
            rg, _labels = moves.telescope(n, ks)
            g = rg.graph
            inst = Instance(n, ks, rg)
            for _ in range(ACT_QUERIES):
                d1 = _random_divisor(rng, g, Divisor)
                d2 = _random_divisor(rng, g, Divisor)
                inst.queries.append(("act", (d1, d2, _random_tree(rng, g))))
            for _ in range(REDUCE_QUERIES):
                d = _random_divisor(rng, g, Divisor)
                inst.queries.append(("reduce", (d, rng.choice(g.vertices))))
            out.append(inst)
    return out


def _answer(kind, payload, g, action) -> bool:
    """Run one act or reduce query and check its answer."""
    from rotorsand import sandpile

    if kind == "act":
        d1, d2, tree = payload
        lhs = action.act(d1 + d2, tree)
        rhs = action.act(d1, action.act(d2, tree))
        return lhs == rhs and _is_spanning_tree(g, lhs)
    d, q = payload
    r = sandpile.reduce(g, d, q)
    return (
        r.degree() == d.degree()
        and sandpile.is_reduced(g, r, q)
        and sandpile.laplacian_image_contains(g, d - r)
    )


def _group(g) -> list | None:
    """Invariant factors of g's sandpile group, or None when its order is not the tree count."""
    from rotorsand import sandpile

    s = sandpile.group_structure(g)
    return list(s.invariant_factors) if s.order == sandpile.tree_count(g) else None


def probe_verdict(probe: dict) -> tuple[bool, str]:
    """(as expected, one line saying what happened) for one probe outcome."""
    label = f"group query on telescope n={probe['n']} ks={probe['ks']}"
    got, expected = probe["outcome"], probe["expected"]
    if expected == KNOWN_STALL:
        if got == "deadline" and probe["where"] == "intlinalg.smith_diagonal":
            return True, f"{label}: known stall, deadline missed inside intlinalg.smith_diagonal"
        if got == "answered":
            return True, f"{label}: the known stall no longer reproduces, answered {probe['invariants']}"
    elif got == "answered" and probe["invariants"] == list(expected):
        return True, f"{label}: answered {probe['invariants']} as expected"
    return False, f"{label}: {got} {probe['where'] or probe['invariants']}, expected {expected}"


def _innermost_rotorsand_frame(frame) -> str | None:
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("rotorsand."):
            code = frame.f_code
            return f"{module.split('.', 1)[1]}.{getattr(code, 'co_qualname', code.co_name)}"
        frame = frame.f_back
    return None


def run(instances, tracer=None) -> dict:
    """Answer every query, then the PROBES, under their deadlines.

    Returns the counted queries' outcomes and act latencies, and the probe
    outcomes.  With a tracer, each query is its own trace run and a missed
    deadline is attributed to the innermost open span; without one, to the
    innermost rotorsand frame.
    """
    from rotorsand import moves, torsor

    def on_alarm(_signum, frame):
        where = tracer.open_span() if tracer is not None else _innermost_rotorsand_frame(frame)
        raise DeadlineExceeded(where)

    misses: dict[str, int] = {}

    def timed(kind, fn):
        """(outcome, where, value, seconds) of fn() under kind's deadline."""
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S[kind])
        try:
            value = fn()
        except DeadlineExceeded as exc:
            where = exc.args[0] or "benchmark"
            misses[where] = misses.get(where, 0) + 1
            if tracer is not None:
                tracer.abandon_open_spans()
            return "deadline", where, None, None
        except Exception as exc:  # recorded so the other queries still run
            return "error", repr(exc), None, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "answered", None, value, time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_alarm)
    queries = 0
    act_ms = []
    failures = []
    probes = []
    try:
        for inst in instances:
            g = inst.rg.graph
            action = torsor.TorsorAction(inst.rg)
            for kind, payload in inst.queries:
                queries += 1
                if tracer is not None:
                    tracer.run_id = queries
                outcome, where, ok, seconds = timed(kind, lambda: _answer(kind, payload, g, action))
                if outcome == "answered" and not ok:
                    outcome = "wrong"
                if outcome != "answered":
                    failures.append({"kind": kind, "n": inst.n, "ks": inst.ks, "outcome": outcome, "where": where})
                elif kind == "act":
                    act_ms.append(seconds * 1e3)
        for n, ks, expected in PROBES:
            if tracer is not None:
                tracer.run_id = queries + 1 + len(probes)
            rg, _labels = moves.telescope(n, list(ks))
            outcome, where, invariants, _seconds = timed("group", lambda: _group(rg.graph))
            if outcome == "answered" and invariants is None:
                outcome = "wrong"
            probes.append(
                {"n": n, "ks": list(ks), "outcome": outcome, "where": where, "invariants": invariants, "expected": expected}
            )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {
        "queries": queries,
        "failed": len(failures),
        "act_ms": act_ms,
        "failures": failures,
        "probes": probes,
        "deadline_misses": misses,
    }
