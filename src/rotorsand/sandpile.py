"""Divisors, chip-firing, canonical class representatives, group structure.

A divisor is an integer chip vector on the vertices; degree-zero divisors
modulo the integer image of the Laplacian form the sandpile group.  A class
is keyed by its degree and the Hermite reduction of its chips off the first
vertex modulo the reduced-Laplacian lattice.  Dhar's burning loop
(``reduce``) finds the q-reduced representative for any sink q: ``act`` and
the ``reduce`` command use it, and it cross-checks the lattice keys.  All
arithmetic is exact.

Chip-firing runs on integer vertex positions: ``_neighbours`` lists each
position's (neighbour, edge multiplicity) pairs once per graph.  ``_lift``
moves a divisor's debt onto a sink by firing balls around it, one layer of
graph distance at a time (``_shells``); ``move_to_sink`` is that lift, and
``reduce`` starts from it.  ``_burn`` is one pass of Dhar's fire over a chip
list, and ``reduce`` fires the unburnt set as many times as it legally can
before burning again.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import NamedTuple

from .errors import InvariantViolation
from .intlinalg import ColumnLattice, det, smith_diagonal
from .multigraph import Multigraph


class Divisor:
    """An immutable vertex -> int chip map; missing vertices hold 0 chips."""

    __slots__ = ("_map", "_chips", "_hash")

    def __init__(self, chips=None):
        self._map = {v: int(n) for v, n in dict(chips or {}).items() if n != 0}
        self._chips = tuple(sorted(self._map.items()))
        self._hash = hash(self._chips)

    def __getitem__(self, v) -> int:
        return self._map.get(v, 0)

    def items(self):
        return self._chips

    def support(self):
        return tuple(v for v, _ in self._chips)

    def degree(self) -> int:
        return sum(n for _, n in self._chips)

    def to_dict(self) -> dict:
        return dict(self._chips)

    def __add__(self, other):
        out = dict(self._chips)
        for v, n in other.items():
            out[v] = out.get(v, 0) + n
        return Divisor(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Divisor({v: -n for v, n in self._chips})

    def __mul__(self, k: int):
        return Divisor({v: k * n for v, n in self._chips})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._chips == other._chips

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{v}: {n}" for v, n in self._chips)
        return "Divisor({" + body + "})"


def chip(c, s=None) -> Divisor:
    """The divisor c - s (or just c when no sink is given)."""
    if s is None:
        return Divisor({c: 1})
    if c == s:
        return Divisor({})
    return Divisor({c: 1, s: -1})


class GroupStructure(NamedTuple):
    invariant_factors: tuple[int, ...]  # each > 1, d1 | d2 | ...
    order: int


def laplacian(g: Multigraph) -> list[list[int]]:
    """Laplacian matrix in the order of g.vertices."""
    vs = g.vertices
    ix = {v: i for i, v in enumerate(vs)}
    m = [[0] * len(vs) for _ in vs]
    for v in vs:
        m[ix[v]][ix[v]] = g.degree(v)
    for e in g.edges:
        u, w = g.ends(e)
        m[ix[u]][ix[w]] -= 1
        m[ix[w]][ix[u]] -= 1
    return m


def reduced_laplacian(g: Multigraph) -> list[list[int]]:
    """The Laplacian without the row and column of vertices[0]."""
    return [row[1:] for row in laplacian(g)[1:]]


def fire(g: Multigraph, d: Divisor, v: str) -> Divisor:
    """Fire v: it loses deg(v) chips, each neighbor gains one per shared edge."""
    out = d.to_dict()
    out[v] = out.get(v, 0) - g.degree(v)
    for e in g.incident(v):
        w = g.other(e, v)
        out[w] = out.get(w, 0) + 1
    return Divisor(out)


@lru_cache(maxsize=4096)
def _neighbours(g: Multigraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each vertex position's (neighbour position, multiplicity) pairs.

    The chip-firing kernel runs on these instead of string ids.  Cached per
    graph, an immutable value.
    """
    ix = {v: i for i, v in enumerate(g.vertices)}
    out = [{} for _ in g.vertices]
    for e in g.edges:
        u, w = (ix[x] for x in g.ends(e))
        out[u][w] = out[u].get(w, 0) + 1
        out[w][u] = out[w].get(u, 0) + 1
    return tuple(tuple(sorted(row.items())) for row in out)


@lru_cache(maxsize=16384)
def _shells(g: Multigraph, q: str) -> tuple:
    """The distance layers around q, outermost first, down to layer 1.

    Layer k holds the vertices at graph distance k from q.  Each entry pairs
    layer k's (position, edges back into layer k - 1) with layer k - 1's
    (position, edges out into layer k).  Cached per (graph, sink); both are
    immutable values.
    """
    if q not in g.vertices:
        raise KeyError(f"unknown vertex id {q!r}")
    nbrs = _neighbours(g)
    order = [g.vertices.index(q)]
    dist = {order[0]: 0}
    for x in order:
        for y, _ in nbrs[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                order.append(y)
    if len(order) < len(nbrs):
        raise ValueError("graph must be connected")

    def layer(k, into):
        return tuple(
            (x, sum(m for y, m in nbrs[x] if dist[y] == into)) for x in order if dist[x] == k
        )

    return tuple((layer(k, k - 1), layer(k - 1, k)) for k in range(dist[order[-1]], 0, -1))


def _lift(g: Multigraph, chips: list, q: str) -> bool:
    """Move the debt of chips (in vertex order) onto q, in place.

    From the outermost layer in to layer 1, the ball of vertices closer to q
    than layer k fires the fewest times that clears layer k's debt.  That
    hands chips only to layer k and takes them only from layer k - 1, so
    the outer layers stay clear and the debt ends on q.  Returns whether
    anything fired.
    """
    if all(n >= 0 for v, n in zip(g.vertices, chips) if v != q):
        return False
    for outer, inner in _shells(g, q):
        times = max(-(chips[v] // back) for v, back in outer)
        if times > 0:
            for v, back in outer:
                chips[v] += times * back
            for u, out in inner:
                chips[u] -= times * out
    return True


def move_to_sink(g: Multigraph, d: Divisor, s: str) -> Divisor:
    """An equivalent divisor with all debt on s (nonnegative elsewhere)."""
    if d.degree() != 0:
        raise ValueError("move_to_sink expects a degree-0 divisor")
    chips = [d[v] for v in g.vertices]
    if not _lift(g, chips, s):
        return d
    out = Divisor(dict(zip(g.vertices, chips)))
    assert all(out[v] >= 0 for v in g.vertices if v != s)
    return out


def _burn(nbrs, chips, qi):
    """Dhar's fire from position qi over chips: (burnt flags, heat).

    A vertex catches fire once more of its edges lead into the fire than it
    holds chips.  heat[v] counts v's edges into the fire, so for every
    unburnt v it is the number of chips v sheds when the unburnt set fires.
    """
    burnt = [False] * len(nbrs)
    heat = [0] * len(nbrs)
    burnt[qi] = True
    stack = [qi]
    while stack:
        x = stack.pop()
        for y, k in nbrs[x]:
            if not burnt[y]:
                heat[y] += k
                if heat[y] > chips[y]:
                    burnt[y] = True
                    stack.append(y)
    return burnt, heat


def reduce(g: Multigraph, d: Divisor, q: str) -> Divisor:
    """The unique q-reduced divisor equivalent to d (any degree).

    First move the debt onto q (``_lift``), then repeatedly burn outward
    from q and fire whatever survives, as many times as it legally can in
    one step; once the fire consumes the whole graph, no nonempty set off q
    can fire without going negative.
    """
    if q not in g.vertices:
        raise KeyError(f"unknown vertex id {q!r}")
    vs, nbrs = g.vertices, _neighbours(g)
    qi = vs.index(q)
    chips = [d[v] for v in vs]
    _lift(g, chips, q)
    spread = sum(abs(n) for n in chips) + 1
    guard_limit = 64 + 16 * len(vs) * len(g.edges) * spread
    guard = 0
    while True:
        burnt, heat = _burn(nbrs, chips, qi)
        unburnt = [v for v, b in enumerate(burnt) if not b]
        if not unburnt:
            return Divisor(dict(zip(vs, chips)))
        # each unburnt v holds at least heat[v] chips, so this is at least 1;
        # a set no edge joins to the fire (off a disconnected graph) moves
        # nothing and runs into the guard
        times = min((chips[v] // heat[v] for v in unburnt if heat[v]), default=1)
        for v in unburnt:
            chips[v] -= times * heat[v]
            for y, k in nbrs[v]:
                if burnt[y]:
                    chips[y] += times * k
        guard += 1
        if guard > guard_limit:
            raise InvariantViolation("burning loop exceeded its step bound")


def is_reduced(g: Multigraph, d: Divisor, q: str) -> bool:
    vs = g.vertices
    if any(d[v] < 0 for v in vs if v != q):
        return False
    return all(_burn(_neighbours(g), [d[v] for v in vs], vs.index(q))[0])


@lru_cache(maxsize=4096)
def _class_lattice(g: Multigraph) -> ColumnLattice:
    """The lattice spanned by the reduced Laplacian at vertices[0].

    Degree-0 classes are its cosets in Z^(V - q), read off the chips away
    from q = vertices[0].  Cached per graph, an immutable value.
    """
    return ColumnLattice(len(g.vertices) - 1, reduced_laplacian(g))


def canonical_class(g: Multigraph, d: Divisor) -> tuple:
    """Class key: the degree, and the canonical coset vector off vertices[0]."""
    return d.degree(), _class_lattice(g).reduce([d[v] for v in g.vertices[1:]])


def same_class(g: Multigraph, d1: Divisor, d2: Divisor) -> bool:
    return canonical_class(g, d1) == canonical_class(g, d2)


@lru_cache(maxsize=4096)
def _laplacian_lattice(g: Multigraph) -> ColumnLattice:
    """The lattice spanned by the full Laplacian's columns, cached per graph."""
    return ColumnLattice(len(g.vertices), [list(col) for col in zip(*laplacian(g))])


def laplacian_image_contains(g: Multigraph, d: Divisor) -> bool:
    """Membership of d in the integer span of the Laplacian columns.

    Independent of the class keys and of burning; a cross-check for both.
    """
    return _laplacian_lattice(g).contains([d[v] for v in g.vertices])


def group_structure(g: Multigraph) -> GroupStructure:
    """Invariant factors of the sandpile group from the reduced Laplacian."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    diag = smith_diagonal(reduced_laplacian(g))
    if any(x == 0 for x in diag):
        raise InvariantViolation("reduced Laplacian is singular on a connected graph")
    return GroupStructure(tuple(x for x in diag if x > 1), prod(diag))


def tree_count(g: Multigraph) -> int:
    """Number of spanning trees via the reduced Laplacian determinant."""
    return abs(det(reduced_laplacian(g)))


@lru_cache(maxsize=64)
def enumerate_classes(g: Multigraph) -> tuple[tuple[Divisor, ...], tuple[tuple[int, ...], ...]]:
    """(classes, succ): one representative of every sandpile class, in a
    fixed order, and the closure's Cayley table.

    The cosets of the reduced-Laplacian lattice, numbered breadth-first from
    the zero class by adding the generators [v - q], q = vertices[0]
    (``ColumnLattice.cosets``): succ[i][k] is the index of the class of
    classes[i] + [vertices[k + 1] - q].  Each class is represented by the sum
    of generators along the word that first reaches it, so every
    representative is nonnegative off q; it need not be q-reduced.  The count
    is the lattice index, the number of spanning trees.  Cached per graph for
    the few verifiers that read one graph's classes in turn.
    """
    q, rest = g.vertices[0], g.vertices[1:]
    _, succ = _class_lattice(g).cosets()
    # each representative's chips off q
    chips = along_words(succ, (0,) * len(rest), lambda c, k: c[:k] + (c[k] + 1,) + c[k + 1 :])
    classes = tuple(Divisor({q: -sum(c), **dict(zip(rest, c))}) for c in chips)
    return classes, succ


def along_words(succ, first, step) -> list:
    """A value per class along the words of the closure succ: class 0 gets
    first, and class j, first reached from class i by generator k, gets
    step(value of class i, k).

    Classes are visited in closure order, so class i always has its value
    before any class it first reaches.
    """
    out = [None] * len(succ)
    out[0] = first
    for i, row in enumerate(succ):
        for k, j in enumerate(row):
            if out[j] is None:
                out[j] = step(out[i], k)
    return out
