"""Spans around the public entry points of each rotorsand module.

The tracer lives in the benchmark, not in the package: ``install`` rebinds
each entry point below, in its defining module and in every rotorsand module
that imported it by name (methods are patched on their class), to a wrapper
that records one span per call.  Spans are kept in flat arrays in memory and
summarised, or written out, when the traced process ends.

Tiny hot helpers such as ``Multigraph.other`` or ``Divisor.__getitem__`` are
deliberately not wrapped: they run millions of times per act, so a wrapper
there would measure itself.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# module -> entry points; "Class.method" entries are patched on the class.
ENTRY_POINTS = {
    "catalog": ("connected_multigraphs", "rotation_systems", "ribbon_graphs", "plane_graphs"),
    "ribbon": ("RibbonGraph.canonical_form", "RibbonGraph.is_plane"),
    "multigraph": ("Multigraph.spanning_trees",),
    "sandpile": (
        "reduce",
        "canonical_class",
        "move_to_sink",
        "enumerate_classes",
        "is_reduced",
        "laplacian_image_contains",
        "group_structure",
        "tree_count",
    ),
    "rotor": ("route_chip", "route_divisor", "verify_full_spin", "verify_reversal_equivalence"),
    "torsor": (
        "TorsorAction.act",
        "TorsorAction.chip_table",
        "TorsorAction.table",
        "verify_torsor_axioms",
        "verify_consistency",
        "verify_sink_invariance",
    ),
    "moves": ("source_turn_path", "leaf_swap_path", "telescope"),
    "matroid": (
        "RegularMatroid.circuits",
        "RegularMatroid.cocircuits",
        "minor",
        "bby_table",
        "verify_matroid_consistency",
        "conjecture_search",
    ),
    "lp": ("separating_functional",),
    "intlinalg": ("rank", "smith_diagonal", "det"),
    "cli": ("cmd_verify",),
}

# Catalog entry points whose results are the instances a suite runs on.
INSTANCE_SOURCES = {"catalog.connected_multigraphs", "catalog.ribbon_graphs", "catalog.plane_graphs"}


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Flat, append-only span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: set[int] = set()
        self.instances = 0
        self.run_id = 0
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open_span(self) -> str | None:
        """Name of the innermost span still running, if any."""
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def abandon_open_spans(self) -> None:
        """Close every open span now; used after a deadline cut a query short.

        The deadline exception can land between a wrapper's bookkeeping
        steps, so spans left open are ended here rather than trusted.
        """
        n = min(len(a) for a in (self.name, self.parent, self.run, self.end, self.start))
        for a in (self.name, self.parent, self.run, self.end, self.start):
            del a[n:]
        now = time.perf_counter()
        for i in self.stack:
            if i < n and self.end[i] == 0.0:
                self.end[i] = now
        self.stack.clear()

    def wrap(self, name: str, fn, ignore=()):
        """A stand-in for fn that records a span per call.

        Exceptions that are instances of ``ignore`` (the benchmark's own
        deadline signal) are not counted as layer errors.
        """
        nid = self.name_id(name)
        counts_instances = name in INSTANCE_SOURCES
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except ignore:
                raise
            except BaseException:
                self.errors.add(i)
                raise
            finally:
                self.end[i] = clock()
                stack.pop()
            if counts_instances and not self._inside(i, "catalog"):
                self.instances += len(out)
            return out

        return traced

    def _inside(self, i: int, module: str) -> bool:
        p = self.parent[i]
        return p >= 0 and module_of(self.names[self.name[p]]) == module

    def write(self, path) -> None:
        """Write every span (name, start, end, parent index, run id) as gzipped JSON."""
        cols = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(cols, fh)


def install(tracer: Tracer, ignore=()) -> None:
    """Rebind every entry point in ENTRY_POINTS to a traced wrapper."""
    for module, entries in ENTRY_POINTS.items():
        mod = importlib.import_module(f"rotorsand.{module}")
        for entry in entries:
            name = f"{module}.{entry}"
            if "." in entry:
                cls_name, meth = entry.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), ignore))
                continue
            orig = getattr(mod, entry)
            traced = tracer.wrap(name, orig, ignore)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "rotorsand":
                    continue
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, attr, traced)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Span i runs from start[i] to end[i]; parent[i] is the index of the span
    that called it, or -1.  Children are clipped to their parent's interval,
    so overlapping or stray children are never subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered = 0.0
        lo = s
        for cs, ce in sorted((start[c], end[c]) for c in children.get(i, ())):
            cs, ce = max(cs, lo), min(ce, e)
            if ce > cs:
                covered += ce - cs
                lo = ce
        out.append((e - s) - covered)
    return out


def summarise(tracer: Tracer, deadline_misses: dict[str, int]) -> dict:
    """Per entry and per module totals for one traced process.

    Returns {"entries": {name: {calls, total_s, self_s}}, "modules": {module:
    {self_s, errors, deadline_misses}}, "catalog_instances": n,
    "act_routed": route_divisor calls made directly from torsor.act}.
    An entry's total_s leaves out calls nested in a call of the same entry.
    An error is an exception leaving a module: it is counted on the
    outermost span of that module it passed through.
    """
    names, name, parent = tracer.names, tracer.name, tracer.parent
    own = self_times(tracer.start, tracer.end, parent)
    mod_ids = [module_of(n) for n in names]
    entries = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    modules = {m: {"self_s": 0.0, "errors": 0, "deadline_misses": 0} for m in ENTRY_POINTS}
    act_routed = 0
    route_divisor = tracer._ids.get("rotor.route_divisor", -1)
    act = tracer._ids.get("torsor.TorsorAction.act", -1)
    for i, nid in enumerate(name):
        rec = entries[names[nid]]
        rec["calls"] += 1
        rec["self_s"] += own[i]
        module = mod_ids[nid]
        modules[module]["self_s"] += own[i]
        p = parent[i]
        q = p
        while q >= 0 and name[q] != nid:
            q = parent[q]
        if q < 0:
            rec["total_s"] += tracer.end[i] - tracer.start[i]
        if i in tracer.errors and (p < 0 or mod_ids[name[p]] != module):
            modules[module]["errors"] += 1
        if nid == route_divisor and p >= 0 and name[p] == act:
            act_routed += 1
    for where, n in deadline_misses.items():
        if module_of(where) in modules:
            modules[module_of(where)]["deadline_misses"] += n
    return {
        "entries": {n: rec for n, rec in entries.items() if rec["calls"]},
        "modules": modules,
        "catalog_instances": tracer.instances,
        "act_routed": act_routed,
    }
