"""Sandpile torsor actions on plane ribbon graphs and their verifiers.

The rotor-routing action evaluates a class on a tree by routing its reduced
representative at the first vertex into that sink, chip by chip, whichever
representative is given.  Three companion actions come from reversing the
rotation, negating the class, or both.  The verifiers read an action as
permutations of tree indices, trees numbered in ``spanning_trees()`` order:
one row per single chip at a sink, routing every tree once, and one row per
class, composed from the generator rows along the words of the class
closure (``sandpile.enumerate_classes``, the lattice's ``cosets`` closure,
cached per graph, so ``TorsorAction.table`` and the verifiers each read it
without handing it on; ``sandpile.along_words`` is the one walk along those
words).  Single chips route from ``rotor``'s start table for the graph and
sink, one dart array per tree, shared by all four variants.  Every composed
row a verifier uses is checked once against routing the class's
burning-reduced chips from the first tree's start array.  The verifiers check
the torsor axioms, independence of the sink choice, and compatibility with
contraction, deletion and cut vertices, exhaustively over whatever
instances they are handed.  The sink check composes class rows only at a
sink whose generator rows differ from the first vertex's.  The consistency
check reads each minor in one lookup (``_minor_action``): the canonical code
of the minor's darts keys a sweep-wide cache of representatives, a minor is
built only when its code is new, and the minor's vertices and trees are
mapped onto its representative by pairing dart names in canonical order.
"""

from __future__ import annotations

from . import sandpile
from .errors import InvariantViolation
from .multigraph import Multigraph
from .ribbon import RibbonGraph, canonical_labelling
from .rotor import chip_rows, route_divisor, route_first_tree
from .sandpile import Divisor, chip

VARIANTS = ("r", "rbar", "rinv", "rbarinv")
INVERSES = ("rinv", "rbarinv")

# verify_torsor_axioms checks additivity on all class pairs up to this many
# (class, class, tree) triples, and on (generator, class) pairs beyond it.
PAIR_LIMIT = 200_000

# verify_consistency keeps this many minor representatives, keyed by
# (canonical code, variant), across a whole sweep; past the bound the cache
# starts over.
MINOR_CACHE_LIMIT = 4096
_minor_actions: dict = {}

# verify_sink_invariance's violation for a non-plane map whose generator rows
# agree at every sink
NO_WITNESS = {"witness": None, "expected": "a sink whose generator rows differ off the plane"}


def _inverse(row) -> tuple:
    out = [0] * len(row)
    for i, j in enumerate(row):
        out[j] = i
    return tuple(out)


class TorsorAction:
    """A free transitive action of the sandpile group on spanning trees.

    ``variant`` selects among rotor-routing ("r"), its mirror ("rbar",
    rotors turn the other way), its inverse ("rinv", the class is negated),
    and both ("rbarinv").  ``act`` routes the class's reduced representative
    at the first vertex, which serves as the sink.  The rows the verifiers
    read are built only when asked for, so a one-shot ``act`` sets up
    nothing else.
    """

    def __init__(self, rg: RibbonGraph, variant: str = "r", require_plane: bool = True):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if require_plane and not rg.is_plane():
            raise ValueError("sink-independent actions need a plane ribbon graph")
        self.rg = rg
        self.variant = variant
        self._routing_rg = rg.reverse() if variant in ("rbar", "rbarinv") else rg
        self._chips = {}  # sink -> chip rows by vertex position
        self._gens = {}  # sink -> generator rows by vertex position
        self._pairs = {}  # (c, s) -> row of [c - s] at vertices[0]

    @property
    def graph(self) -> Multigraph:
        return self.rg.graph

    def act(self, d: Divisor, tree):
        """Apply the class of d to the tree.

        The sink, vertices[0], is an evaluation detail; for plane inputs the
        result does not depend on it (which verify_sink_invariance shows).
        """
        g = self.graph
        if d.degree() != 0:
            raise ValueError("torsor actions act by degree-0 classes")
        s = g.vertices[0]
        rd = sandpile.reduce(g, -d if self.variant in INVERSES else d, s)
        return route_divisor(self._routing_rg, tree, rd, s)

    def chip_table(self, c: str, s: str) -> tuple:
        """Tree-index row of one chip c - s routed on the routing ribbon.

        Trees are numbered in spanning_trees() order.  All chips at one sink
        are routed together, once per tree, and kept.
        """
        if s not in self._chips:
            self._chips[s] = chip_rows(self._routing_rg, self.graph.spanning_trees(), s)
        return self._chips[s][self.graph.vertices.index(c)]

    def _generators(self, s: str) -> list:
        """Rows at sink s of [v - q], q = vertices[0], by vertex position.

        [v - q] acts at s as [v - s] after the inverse of [q - s]; the row at
        q is the identity, and the inverse variants invert every row.
        """
        if s not in self._gens:
            vs = self.graph.vertices
            back = _inverse(self.chip_table(vs[0], s))
            rows = [tuple([r[x] for x in back]) for r in [self.chip_table(v, s) for v in vs]]
            self._gens[s] = [_inverse(r) for r in rows] if self.variant in INVERSES else rows
        return self._gens[s]

    def _check(self, d: Divisor, row) -> None:
        """Routing must send the first tree where row does.

        The same answer as ``act``, on integers: d (negated for the inverse
        variants) is burnt to its reduced chips at vertices[0], and routed
        from the first tree's start array.
        """
        g = self.graph
        sign = -1 if self.variant in INVERSES else 1
        chips = [sign * d[v] for v in g.vertices]
        sandpile.reduce_chips(g, chips, g.vertices[0])
        if route_first_tree(self._routing_rg, chips) != row[0]:
            raise InvariantViolation(f"composed row of {d.to_dict()} disagrees with routing")

    def table(self, s=None) -> list:
        """Each class's tree-index row at sink s, in the order of
        ``sandpile.enumerate_classes``; s defaults to vertices[0].

        Rows compose the generator rows at s along the closure's words.  At
        vertices[0] each row is checked once against routing.
        """
        g = self.graph
        classes, succ = sandpile.enumerate_classes(g)
        q = g.vertices[0]
        gens = self._generators(q if s is None else s)
        ident = tuple(range(len(gens[0])))
        rows = sandpile.along_words(succ, ident, lambda r, k: tuple([gens[k + 1][x] for x in r]))
        if s in (None, q):
            for d, row in zip(classes, rows):
                self._check(d, row)
        return rows

    def pair_row(self, c: str, s: str) -> tuple:
        """Tree-index row of the class [c - s] at vertices[0], checked once."""
        row = self._pairs.get((c, s))
        if row is None:
            vs = self.graph.vertices
            gens = self._generators(vs[0])
            gc = gens[vs.index(c)]
            row = tuple([gc[x] for x in _inverse(gens[vs.index(s)])])
            self._check(chip(c, s), row)
            self._pairs[c, s] = row
        return row


class Report:
    """Outcome of one verification sweep."""

    __slots__ = ("checked", "violations", "notes")

    def __init__(self):
        self.checked, self.violations, self.notes = 0, [], []

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_torsor_axioms(rg: RibbonGraph, act=None, variant: str = "r") -> Report:
    """Exhaustively test identity, additivity, freeness and transitivity.

    ``act`` may be any callable (divisor, spanning tree) -> spanning tree,
    so corrupted actions can be fed in; it is asked once per class
    representative of ``enumerate_classes`` and tree.  It defaults to the
    chosen routing variant's rows.  Additivity is checked on all class
    pairs when the cube of the group order stays under PAIR_LIMIT,
    otherwise on all (generator, class) pairs, which reaches every sum by
    induction; the report notes which mode ran.  Sums of classes are found
    along the closure of enumerate_classes, not keyed again.
    """
    g = rg.graph
    classes, succ = sandpile.enumerate_classes(g)
    trees = g.spanning_trees()
    n = len(trees)
    if act is None:
        rows = TorsorAction(rg, variant).table()
    else:
        index = {t: i for i, t in enumerate(trees)}
        rows = [tuple([index[act(d, t)] for t in trees]) for d in classes]

    rep = Report()
    rep.checked += n
    for i, t in enumerate(trees):
        if rows[0][i] != i:
            rep.violations.append({"axiom": "identity", "tree": sorted(t)})

    for i, t in enumerate(trees):
        rep.checked += len(classes)
        if len({row[i] for row in rows}) == n:
            continue
        hit = {}
        for d, row in zip(classes, rows):
            out = row[i]
            if out in hit:
                pair = [d.to_dict(), hit[out].to_dict()]
                rep.violations.append({"axiom": "freeness", "tree": sorted(t), "classes": pair})
            hit[out] = d
        if len(hit) != n:
            rep.violations.append({"axiom": "transitivity", "tree": sorted(t)})

    exhaustive_pairs = len(classes) ** 2 * n <= PAIR_LIMIT
    if not exhaustive_pairs:
        rep.notes.append("additivity on generator pairs only")
    # each first class comes with sums[j], the class of it plus classes[j]
    cayley = [tuple([r[k] for r in succ]) for k in range(len(g.vertices) - 1)]
    if exhaustive_pairs:
        ident = tuple(range(len(classes)))
        sum_rows = sandpile.along_words(succ, ident, lambda r, k: tuple([cayley[k][x] for x in r]))
        firsts = zip(classes, sum_rows)
    else:
        firsts = zip([chip(v, g.vertices[0]) for v in g.vertices[1:]], cayley)
    for d1, sums in firsts:
        r1 = rows[sums[0]]
        for d2, r2, j in zip(classes, rows, sums):
            rep.checked += n
            r12 = rows[j]
            if r12 == tuple([r1[x] for x in r2]):
                continue
            for x, t in enumerate(trees):
                if r12[x] != r1[r2[x]]:
                    bad = {"axiom": "additivity", "classes": [d1.to_dict(), d2.to_dict()]}
                    rep.violations.append({**bad, "tree": sorted(t)})
    return rep


def verify_sink_invariance(rg: RibbonGraph) -> Report:
    """Compare routing outcomes across every sink, class and tree.

    Every sink composes its class rows from its own verified single-chip
    generator rows along the same words, so a sink whose generator rows
    equal those at vertices[0] agrees on every class and tree; only at a
    sink where they differ are the class rows composed and compared
    entrywise.  Plane inputs must come out clean, and the two-vertex triple
    edge with equal rotations must not.  Off the plane some sink's
    generator rows must differ (Chan, Church and Grochow): a non-plane
    input without such a witness gets the violation NO_WITNESS.
    """
    g = rg.graph
    action = TorsorAction(rg, require_plane=False)
    classes, _ = sandpile.enumerate_classes(g)
    trees = g.spanning_trees()
    rep = Report()
    base = g.vertices[0]
    expected = action.table()
    gens = action._generators(base)
    witnessed = False
    for s in g.vertices[1:]:
        if action._generators(s) == gens:
            rep.checked += len(classes) * len(trees)
            continue
        witnessed = True
        for d, r0, r in zip(classes, expected, action.table(s)):
            rep.checked += len(trees)
            if r0 == r:
                continue
            for t, x, y in zip(trees, r0, r):
                if x != y:
                    outputs = [sorted(trees[x]), sorted(trees[y])]
                    bad = {"sinks": [base, s], "class": d.to_dict(), "tree": sorted(t)}
                    rep.violations.append({**bad, "outputs": outputs})
    if not witnessed and not rg.is_plane():
        rep.violations.append(dict(NO_WITNESS))
    return rep


def _minor_action(rg: RibbonGraph, e: str, contract: bool, variant_tag: str):
    """(action, vertex map, tree map) for the representative of rg's minor by e.

    The minor is keyed by the canonical code of ``RibbonGraph.minor_darts``'
    rotation.  The sweep-wide cache holds one TorsorAction per (code,
    variant), on the first minor met with that code, with the (vertex, edge)
    names of its darts in canonical order; a later minor with the same code
    pairs its own names with them position by position, and is built only on
    a miss.  The vertex map takes each of rg's vertices, both ends of a
    contracted e included, to the representative's (its one vertex when no
    edge is left); the tree map takes the index of each of rg's trees that
    is a tree of the minor (with e when contracting, without it when
    deleting) to the representative's index of its image, and the others to
    None.  The representative's rows answer for the minor only because
    minors of plane graphs are plane and, on plane graphs, the action does
    not depend on the sink: the pairing may move vertices[0], where the rows
    act, to any vertex of the representative.  verify_sink_invariance
    re-proves that independence on the catalog.
    """
    g = rg.graph
    kept, sigma = rg.minor_darts(e, contract)
    code, orders = canonical_labelling(sigma, len(g.vertices) - contract)
    x, y = g.ends(e)
    names = [x if contract and v == y else v for v in g.vertices]
    dv, edges = rg.dart_vertex, g.edges
    ours = [(names[dv[kept[k]]], edges[kept[k] >> 1]) for k in orders[0]]
    key = (code, variant_tag)
    if key not in _minor_actions:
        if len(_minor_actions) >= MINOR_CACHE_LIMIT:
            _minor_actions.clear()
        minor = rg.contract(e) if contract else rg.delete(e)
        index = {t: i for i, t in enumerate(minor.graph.spanning_trees())}
        _minor_actions[key] = (ours, TorsorAction(minor, variant_tag), index)
    theirs, action, index = _minor_actions[key]
    vmap = dict.fromkeys(g.vertices, action.graph.vertices[0])
    emap = {}
    for (v, f), (rv, rf) in zip(ours, theirs):
        vmap[v] = rv
        emap[f] = rf
    if contract:
        vmap[y] = vmap[x]
    tmap = [
        index[frozenset([emap[f] for f in t if f != e])] if (e in t) == contract else None
        for t in g.spanning_trees()
    ]
    return action, vmap, tmap


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

    The acted tree comes from rg's own rows; each minor answers through the
    rows of its cached representative, read with the vertex and tree maps
    that ``_minor_action`` gives once per (edge, operation), so every check
    compares two independent computations.  ``relax_adjacency``
    additionally acts by [c - s] for non-adjacent pairs, the deliberately
    broken extension used to exhibit a condition-1 failure.
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

    minors = {}  # (contract?, e) -> _minor_action(rg, e, contract?, variant_tag)

    cuts = g.cut_vertices()
    separated = {}  # anchor edge -> edges cut off from it, in edge order
    for f0 in g.edges:
        separated[f0] = [
            e for e in g.edges if e != f0 and any(g.separates(x, e, f0) for x in cuts)
        ]

    for c, s in pairs:
        row = action.pair_row(c, s)
        fs = [f for f in g.edges if set(g.ends(f)) == {c, s}]
        off_f = [e for e in g.edges if e not in fs]
        for i, t in enumerate(trees):
            j = row[i]
            t2 = trees[j]
            # condition 1 on every shared tree edge off f, then condition 2
            # on every edge that neither tree holds
            both, either = t & t2, t | t2
            contracted = [e for e in off_f if e in both]
            deleted = [e for e in g.edges if e not in either]
            for contract, edges in ((True, contracted), (False, deleted)):
                for e in edges:
                    minor = minors.get((contract, e))
                    if minor is None:
                        minor = minors[contract, e] = _minor_action(rg, e, contract, variant_tag)
                    sub, vmap, tmap = minor
                    got = sub.pair_row(vmap[c], vmap[s])[tmap[i]]
                    rep.checked += 1
                    if got != tmap[j]:
                        cut = {e} if contract else set()
                        rep.violations.append(
                            {
                                "condition": 1 if contract else 2,
                                "f": [c, s],
                                "tree": sorted(t),
                                "edge": e,
                                "expected": sorted(t2 - cut),
                                "actual": sorted(trees[tmap.index(got)] - cut),
                            }
                        )
            if fs:
                for e in separated[fs[0]]:
                    rep.checked += 1
                    if (e in t) != (e in t2):
                        bad = {"condition": 3, "f": [c, s], "tree": sorted(t), "edge": e}
                        rep.violations.append(bad)
    return rep
