"""Divisors, chip-firing, canonical class representatives, group structure.

A divisor is an integer chip vector on the vertices; degree-zero divisors
modulo the integer image of the Laplacian form the sandpile group.  A class
is keyed by its degree and the Hermite reduction of its chips off the first
vertex modulo the reduced-Laplacian lattice.  Dhar's burning loop
(``reduce``) finds the q-reduced representative for any sink q: ``act`` and
the ``reduce`` command use it, and it cross-checks the lattice keys.  Every
answer is exact; the one float computation picks where ``reduce`` starts.

Chip-firing runs on integer vertex positions: ``_neighbours`` lists each
position's (neighbour, edge multiplicity) pairs once per graph.  ``_lift``
moves a divisor's debt onto a sink by firing balls around it, one layer of
graph distance at a time (``_shells``); ``move_to_sink`` is that lift.
``_burn`` is one pass of Dhar's fire over a chip list, and ``reduce_chips``
fires the unburnt set as many times as it legally can before burning
again, on a chip list in vertex order; ``reduce`` wraps it for a
``Divisor``, and the verifiers' honest checks call it directly.

On a large divisor the lift drives many times the answer's debt onto the
sink, and burning spends its rounds handing it back.  So ``reduce`` first
fires the divisor to a nearby equivalent one (``_seed``, after Baker and
Shokrieh), through a float LU of the reduced Laplacian cached per graph
(``_reduced_lu``).  The firing is integer, so the class stays and burning
still decides the unique answer; float rounding can only make the start
less close.  Divisors under the seed's own bound, 2|E| chips, burn as
before, those of the exhaustive sweeps among them.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import mul
from typing import NamedTuple

from .errors import InvariantViolation
from .intlinalg import ColumnLattice, det, smith_diagonal
from .multigraph import Multigraph


class Divisor:
    """An immutable vertex -> int chip map; missing vertices hold 0 chips.

    Only nonzero entries are kept; ``items``, ``to_dict``, hash and repr sort them."""

    __slots__ = ("_map",)

    def __init__(self, chips=None):
        self._map = {v: int(n) for v, n in dict(chips or {}).items() if n != 0}

    def __getitem__(self, v) -> int:
        return self._map.get(v, 0)

    def items(self):
        return tuple(sorted(self._map.items()))

    def degree(self) -> int:
        return sum(self._map.values())

    def to_dict(self) -> dict:
        return dict(self.items())

    def __add__(self, other):
        out = dict(self._map)
        for v, n in other._map.items():
            out[v] = out.get(v, 0) + n
        return Divisor(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Divisor({v: -n for v, n in self._map.items()})

    def __mul__(self, k: int):
        return Divisor({v: k * n for v, n in self._map.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._map == other._map

    def __hash__(self):
        return hash(self.items())

    def __repr__(self):
        body = ", ".join(f"{v}: {n}" for v, n in self.items())
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
    layers = [[] for _ in range(dist[order[-1]] + 1)]
    for x in order:
        layers[dist[x]].append(x)

    def layer(k, into):
        return tuple((x, sum(m for y, m in nbrs[x] if dist[y] == into)) for x in layers[k])

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
    _shells(g, s)  # an unknown sink or a disconnected graph raises here, for every d
    chips = [d[v] for v in g.vertices]
    if not _lift(g, chips, s):
        return d
    out = Divisor(dict(zip(g.vertices, chips)))
    assert all(out[v] >= 0 for v in g.vertices if v != s)
    return out


@lru_cache(maxsize=4096)
def _reduced_lu(g: Multigraph) -> tuple[tuple[float, ...], ...]:
    """Float LU factors of the reduced Laplacian at vertices[0], in one matrix.

    Below the diagonal sit the multipliers of the unit lower factor, on and
    above it the upper factor.  On a connected graph the matrix is symmetric
    positive definite, so elimination needs no pivoting.  Cached per graph,
    an immutable value.
    """
    a = [[float(x) for x in row] for row in reduced_laplacian(g)]
    for k, pivot in enumerate(a):
        for row in a[k + 1 :]:
            f = row[k] / pivot[k]
            if f:
                row[k] = f
                for j in range(k + 1, len(row)):
                    row[j] -= f * pivot[j]
    return tuple(map(tuple, a))


def _seed(g: Multigraph, chips: list, qi: int) -> None:
    """Fire chips (in vertex order) close to q-reduced, in place.

    Let c be the chips off position 0, with the degree taken off position
    qi, so that a divisor of any degree seeds towards q.  When c holds at
    least 2|E| chips in absolute value, fire x = round(L0^-1 c), x = 0 at
    position 0, where L0 is the reduced Laplacian at position 0.  The
    firing is integer, so the class stays; c - L0 x is L0 times a vector of
    entries at most 1/2 in absolute value, so up to float rounding every
    position but 0 and qi ends within its degree of 0, at most 2|E| in all.
    A c beyond float range is left as given.
    """
    c = chips[1:]
    if qi:
        c[qi - 1] -= sum(chips)
    if sum(map(abs, c)) < 2 * len(g.edges):
        return
    lu = _reduced_lu(g)
    try:
        y = [float(n) for n in c]
        for i, row in enumerate(lu):
            y[i] -= sum(map(mul, row[:i], y[:i]))
        for i in range(len(lu) - 1, -1, -1):
            row = lu[i]
            y[i] = (y[i] - sum(map(mul, row[i + 1 :], y[i + 1 :]))) / row[i]
        x = [round(t) for t in y]
    except (OverflowError, ValueError):  # chips or potential beyond float range
        return
    for i, nbrs in enumerate(_neighbours(g)[1:], 1):
        xi = x[i - 1]
        if xi:
            for j, m in nbrs:
                chips[i] -= m * xi
                chips[j] += m * xi


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

    A Divisor wrapper around reduce_chips; raises ValueError on a
    disconnected graph.
    """
    chips = [d[v] for v in g.vertices]
    reduce_chips(g, chips, q)
    return Divisor(dict(zip(g.vertices, chips)))


def reduce_chips(g: Multigraph, chips: list, q: str) -> None:
    """Burn chips (in vertex order) to their q-reduced form, in place.

    Large divisors first fire to a nearby equivalent one (``_seed``).  Then
    move the debt onto q (``_lift``), and repeatedly burn outward from q and
    fire whatever survives, as many times as it legally can in one step;
    once the fire consumes the whole graph, no nonempty set off q can fire
    without going negative.  The seed only picks the start within the
    class, and the q-reduced divisor of a class is unique, so the answer
    does not depend on it.  Raises ValueError on a disconnected graph.
    """
    _shells(g, q)  # an unknown sink or a disconnected graph raises here, for every d
    vs, nbrs = g.vertices, _neighbours(g)
    qi = vs.index(q)
    _seed(g, chips, qi)
    _lift(g, chips, q)
    spread = sum(abs(n) for n in chips) + 1
    guard_limit = 64 + 16 * len(vs) * len(g.edges) * spread
    guard = 0
    while True:
        burnt, heat = _burn(nbrs, chips, qi)
        unburnt = [v for v, b in enumerate(burnt) if not b]
        if not unburnt:
            return
        # each unburnt v holds at least heat[v] chips, so this is at least 1;
        # the graph is connected, so some unburnt v has heat
        times = min(chips[v] // heat[v] for v in unburnt if heat[v])
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
