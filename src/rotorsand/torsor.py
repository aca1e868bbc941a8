"""Sandpile torsor actions on plane ribbon graphs and their verifiers.

The rotor-routing action evaluates a class on a tree by routing its reduced
representative at the first vertex into that sink, chip by chip; classes are
memo keys through ``sandpile.canonical_class``, whichever representative is
given.  Full tables fold single-chip routings at any sink.  Three companion
actions come from reversing the rotation, negating the class, or both.
Verifiers below check the torsor axioms, independence of the sink choice,
and compatibility with contraction, deletion and cut vertices, exhaustively
over whatever instances they are handed; the consistency check reads each
minor's action through a sweep-wide cache keyed by canonical code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sandpile
from .multigraph import Multigraph
from .ribbon import RibbonGraph, labelling_isomorphism
from .rotor import route_chip, route_divisor
from .sandpile import Divisor, chip

VARIANTS = ("r", "rbar", "rinv", "rbarinv")

# verify_torsor_axioms checks additivity on all class pairs up to this many
# (class, class, tree) triples, and on (generator, class) pairs beyond it.
PAIR_LIMIT = 200_000

# verify_consistency keeps this many minor actions, keyed by (canonical code,
# variant), across a whole sweep; past the bound the cache starts over.
MINOR_CACHE_LIMIT = 4096
_minor_actions: dict = {}


class TorsorAction:
    """A free transitive action of the sandpile group on spanning trees.

    ``variant`` selects among rotor-routing ("r"), its mirror ("rbar",
    rotors turn the other way), its inverse ("rinv", the class is negated),
    and both ("rbarinv").  Evaluations are memoized per (class, tree), with
    classes keyed by ``sandpile.canonical_class``; a miss routes the class's
    reduced representative at the first vertex, which serves as the sink.
    Each divisor act sees is keyed once.
    """

    def __init__(self, rg: RibbonGraph, variant: str = "r", require_plane: bool = True):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if require_plane and not rg.is_plane():
            raise ValueError("sink-independent actions need a plane ribbon graph")
        self.rg = rg
        self.variant = variant
        self._routing_rg = rg.reverse() if variant in ("rbar", "rbarinv") else rg
        self._memo = {}
        self._keys = {}
        self._chip_tables = {}

    @property
    def graph(self) -> Multigraph:
        return self.rg.graph

    def class_key(self, d: Divisor) -> tuple:
        return sandpile.canonical_class(self.graph, d)

    def act(self, d: Divisor, tree):
        """Apply the class of d to the tree.

        The sink, vertices[0], is an evaluation detail; for plane inputs the
        result does not depend on it (which verify_sink_invariance shows).
        """
        g = self.graph
        if d.degree() != 0:
            raise ValueError("torsor actions act by degree-0 classes")
        tree = frozenset(tree)
        if self.variant in ("rinv", "rbarinv"):
            d = -d
        if d not in self._keys:
            self._keys[d] = self.class_key(d)
        key = (self._keys[d], tree)
        if key not in self._memo:
            s = g.vertices[0]
            self._memo[key] = route_divisor(self._routing_rg, tree, sandpile.reduce(g, d, s), s)
        return self._memo[key]

    def chip_table(self, c: str, s: str) -> dict:
        """tree -> routed tree for a single chip c - s on the routing ribbon."""
        key = (c, s)
        if key not in self._chip_tables:
            table = {}
            for t in self.graph.spanning_trees():
                table[t], _ = route_chip(self._routing_rg, t, c, s)
            self._chip_tables[key] = table
        return self._chip_tables[key]

    def table(self, classes=None, trees=None, s=None) -> dict:
        """Full action table {class key: {tree: tree}} at sink s.

        s defaults to vertices[0].  Each class's representative, moved out
        of debt off s, is routed chip by chip: single-chip tables are
        composed in vertex order, exactly how route_divisor folds.
        """
        g = self.graph
        if classes is None:
            classes = sandpile.enumerate_classes(g)
        if trees is None:
            trees = g.spanning_trees()
        if s is None:
            s = g.vertices[0]
        out = {}
        for d in classes:
            rep = sandpile.move_to_sink(g, -d if self.variant in ("rinv", "rbarinv") else d, s)
            perm = {t: t for t in trees}
            for v, k in rep.items():
                if v != s and k > 0:
                    tab = self.chip_table(v, s)
                    for _ in range(k):
                        perm = {t: tab[perm[t]] for t in trees}
            out[self.class_key(d)] = perm
        return out


@dataclass
class Report:
    """Outcome of one verification sweep."""

    checked: int = 0
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_torsor_axioms(rg: RibbonGraph, act=None, variant: str = "r") -> Report:
    """Exhaustively test identity, additivity, freeness and transitivity.

    ``act`` may be any callable (divisor, tree) -> tree, so corrupted actions
    can be fed in; defaults to the chosen routing variant on rg.  Additivity
    is checked on all class pairs when the cube of the group order stays
    under PAIR_LIMIT, otherwise on all (generator, class) pairs, which
    reaches every sum by induction; the report notes which mode ran.
    """
    g = rg.graph
    classes = sandpile.enumerate_classes(g)
    trees = g.spanning_trees()
    if act is None:
        action = TorsorAction(rg, variant)
        tables = action.table(classes, trees)

        def row(d):
            return tables[action.class_key(d)].__getitem__

    else:
        memo = {}

        def row(d):
            key = sandpile.canonical_class(g, d)

            def ev(t):
                if (key, t) not in memo:
                    memo[key, t] = act(d, t)
                return memo[key, t]

            return ev

    rep = Report()
    identity = row(Divisor({}))
    for t in trees:
        rep.checked += 1
        if identity(t) != t:
            rep.violations.append({"axiom": "identity", "tree": sorted(t)})

    rows = [row(d) for d in classes]
    for t in trees:
        hit = {}
        for d, ev in zip(classes, rows):
            out = ev(t)
            rep.checked += 1
            if out in hit:
                rep.violations.append(
                    {
                        "axiom": "freeness",
                        "tree": sorted(t),
                        "classes": [d.to_dict(), hit[out].to_dict()],
                    }
                )
            hit[out] = d
        if set(hit) != set(trees):
            rep.violations.append({"axiom": "transitivity", "tree": sorted(t)})

    n = len(classes)
    exhaustive_pairs = n * n * len(trees) <= PAIR_LIMIT
    if not exhaustive_pairs:
        rep.notes.append("additivity on generator pairs only")
    q = g.vertices[0]
    firsts = classes if exhaustive_pairs else [chip(v, q) for v in g.vertices if v != q]
    first_rows = rows if exhaustive_pairs else [row(d) for d in firsts]
    # one class key per (d1, d2); the trees then compare row entries
    for d1, r1 in zip(firsts, first_rows):
        for d2, r2 in zip(classes, rows):
            r12 = row(d1 + d2)
            for t in trees:
                rep.checked += 1
                if r12(t) != r1(r2(t)):
                    rep.violations.append(
                        {
                            "axiom": "additivity",
                            "classes": [d1.to_dict(), d2.to_dict()],
                            "tree": sorted(t),
                        }
                    )
    return rep


def verify_sink_invariance(rg: RibbonGraph) -> Report:
    """Compare routing outcomes across every sink, class and tree.

    For each sink the class table is built by composing verified single-chip
    routings at that sink; the tables must agree entrywise, by class key.
    Plane inputs must come out clean; the two-vertex triple edge with equal
    rotations must not.
    """
    g = rg.graph
    action = TorsorAction(rg, require_plane=False)
    classes = sandpile.enumerate_classes(g)
    trees = g.spanning_trees()
    rep = Report()
    keys = [action.class_key(d) for d in classes]
    per_sink = {s: action.table(classes, trees, s) for s in g.vertices}
    base = g.vertices[0]
    for s in g.vertices[1:]:
        for d, key in zip(classes, keys):
            for t in trees:
                rep.checked += 1
                expected, got = per_sink[base][key][t], per_sink[s][key][t]
                if expected != got:
                    rep.violations.append(
                        {
                            "sinks": [base, s],
                            "class": d.to_dict(),
                            "tree": sorted(t),
                            "outputs": [sorted(expected), sorted(got)],
                        }
                    )
    return rep


def _cached_minor_action(minor: RibbonGraph, variant_tag: str):
    """(divisor, tree) -> tree on minor, read through a sweep-wide cache.

    The cache holds one TorsorAction per (canonical code, variant), on the
    first minor met with that code, and chips and trees travel to it and
    back along the isomorphism the two canonical labellings give.  The
    answer equals a direct TorsorAction(minor, variant_tag).act only
    because minors of plane graphs are plane and, on plane graphs, the
    action does not depend on the sink: an isomorphism may move
    vertices[0], where act evaluates, to any vertex of the representative.
    verify_sink_invariance re-proves that independence on the catalog.
    """
    code, order = minor.canonical_labelling()
    key = (code, variant_tag)
    if key not in _minor_actions:
        if len(_minor_actions) >= MINOR_CACHE_LIMIT:
            _minor_actions.clear()
        _minor_actions[key] = (order, TorsorAction(minor, variant_tag))
    rep_order, action = _minor_actions[key]
    iso = labelling_isomorphism(minor, order, action.rg, rep_order)
    vmap, emap = iso.vertex_map, iso.edge_map
    back = {f: e for e, f in emap.items()}
    moved = {}  # divisor on minor -> the same chips on the representative

    def act(d: Divisor, tree) -> frozenset:
        if d not in moved:
            moved[d] = Divisor({vmap[v]: n for v, n in d.items()})
        out = action.act(moved[d], [emap[e] for e in tree])
        return frozenset(back[f] for f in out)

    return act


def verify_consistency(
    rg: RibbonGraph,
    variant_tag: str = "r",
    relax_adjacency: bool = False,
) -> Report:
    """Check the three compatibility conditions on one plane ribbon graph.

    For every edge f, both orientations (c, s) of its endpoints, and every
    spanning tree T with T' the acted tree:

    1. contracting any shared tree edge e (not joining c and s) commutes;
    2. deleting any shared non-edge e commutes;
    3. any edge separated from f by a cut vertex keeps its membership.

    The acted tree comes from rg's own action; the minors answer through
    ``_cached_minor_action``, so every check compares two independent
    computations.  ``relax_adjacency`` additionally acts by [c - s] for
    non-adjacent pairs, the deliberately broken extension used to exhibit a
    condition-1 failure.
    """
    action = TorsorAction(rg, variant_tag)
    g = rg.graph
    rep = Report()
    trees = g.spanning_trees()
    if relax_adjacency:
        pairs = [(c, s) for c in g.vertices for s in g.vertices if c != s]
    else:
        pairs = []
        for f in g.edges:
            u, w = g.ends(f)
            pairs.append((u, w))
            pairs.append((w, u))
        pairs = sorted(set(pairs))

    minor_actions = {}

    def minor_action(key, build):
        if key not in minor_actions:
            minor_actions[key] = _cached_minor_action(build(), variant_tag)
        return minor_actions[key]

    cuts = g.cut_vertices()
    separated = {}  # anchor edge -> edges cut off from it
    for f0 in g.edges:
        separated[f0] = frozenset(
            e
            for e in g.edges
            if e != f0 and any(g.separates(x, e, f0) for x in cuts)
        )

    for c, s in pairs:
        d = chip(c, s)
        fs = [f for f in g.edges if set(g.ends(f)) == {c, s}]
        shrunk = {}  # edge not joining c and s -> [c - s] after contracting it
        for e in g.edges:
            if e not in fs:
                vmap = g.contraction_vertex_map(e)
                shrunk[e] = chip(vmap[c], vmap[s])
        for t in trees:
            t2 = action.act(d, t)
            for e, de in shrunk.items():
                if e in t and e in t2:
                    sub = minor_action(("contract", e), lambda e=e: rg.contract(e))
                    got = sub(de, t - {e})
                    rep.checked += 1
                    if got != t2 - {e}:
                        rep.violations.append(
                            {
                                "condition": 1,
                                "f": [c, s],
                                "tree": sorted(t),
                                "edge": e,
                                "expected": sorted(t2 - {e}),
                                "actual": sorted(got),
                            }
                        )
            for e in g.edges:
                if e not in t and e not in t2:
                    sub = minor_action(("delete", e), lambda e=e: rg.delete(e))
                    got = sub(d, t)
                    rep.checked += 1
                    if got != t2:
                        rep.violations.append(
                            {
                                "condition": 2,
                                "f": [c, s],
                                "tree": sorted(t),
                                "edge": e,
                                "expected": sorted(t2),
                                "actual": sorted(got),
                            }
                        )
            if fs:
                for e in separated[fs[0]]:
                    rep.checked += 1
                    if (e in t) != (e in t2):
                        rep.violations.append(
                            {
                                "condition": 3,
                                "f": [c, s],
                                "tree": sorted(t),
                                "edge": e,
                            }
                        )
    return rep


def distinct_variant_count(rg: RibbonGraph) -> int:
    """How many of the four companion actions differ as full action tables."""
    classes = sandpile.enumerate_classes(rg.graph)
    trees = rg.graph.spanning_trees()
    tables = []
    for tag in VARIANTS:
        tables.append(TorsorAction(rg, tag).table(classes, trees))
    distinct = []
    for t in tables:
        if t not in distinct:
            distinct.append(t)
    return len(distinct)
