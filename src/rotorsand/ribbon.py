"""Ribbon graphs: a multigraph plus a counterclockwise edge order at each vertex.

A dart ``(edge, vertex)`` is numbered as in Lando and Zvonkin's permutation
pair: ``2i`` is edge ``graph.edges[i]`` at its lower endpoint, ``2i + 1`` at
its higher one, so the edge involution is ``d ^ 1`` and integer order is tuple
order.  The map is its dart rotation alone: ``sigma[d]`` is the next dart
counterclockwise around the same vertex, whose index in ``graph.vertices`` is
``dart_vertex[d]``, and the edge-id rotation at each vertex is a view read off
sigma's cycles.  Read as "arrival at vertex along edge", a dart's face walk
leaves along the next edge counterclockwise (``sigma[d] ^ 1``); the walk keeps
its face on the right, so the face to the left of a traversal is the one
holding its tail dart.  Faces, genus, minors, reversal, isomorphism and the
left/right classification of embedded directed cycles all live here.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .errors import InvariantViolation
from .multigraph import Multigraph, find_root, string_lists


def functional_cycles(succ) -> list[list[int]]:
    """Every cycle of the functional graph i -> succ[i] on range(len(succ)).

    succ[i] is None where the walk stops (the sink).  Starts are tried in
    increasing order and each cycle is listed from the first node reached, so
    a permutation's cycles each start at their smallest element, in order of
    those.
    """
    cycles = []
    walk = [0] * len(succ)  # 0 unseen, else 1 + the start whose walk met it
    for start in range(len(succ)):
        if walk[start]:
            continue
        x = start
        while x is not None and not walk[x]:
            walk[x] = start + 1
            x = succ[x]
        if x is not None and walk[x] == start + 1:
            cycle = [x]
            y = succ[x]
            while y != x:
                cycle.append(y)
                y = succ[y]
            cycles.append(cycle)
    return cycles


class RibbonIsomorphism(NamedTuple):
    """A pair of bijections witnessing isomorphism of two ribbon graphs."""

    vertex_map: dict
    edge_map: dict


class SideClassification(NamedTuple):
    left_edges: frozenset
    right_edges: frozenset
    left_vertices: frozenset
    right_vertices: frozenset


@lru_cache(maxsize=4096)
def dart_numbering(graph: Multigraph):
    """The (edge, vertex) -> dart lookup and each dart's vertex position.

    Depends on the graph alone, so every rotation system on it shares one.
    """
    vix = {v: i for i, v in enumerate(graph.vertices)}
    dart = {}
    dart_vertex = []
    for i, e in enumerate(graph.edges):
        lo, hi = graph.ends(e)
        dart[e, lo] = 2 * i
        dart[e, hi] = 2 * i + 1
        dart_vertex += (vix[lo], vix[hi])
    return dart, tuple(dart_vertex)


class RibbonGraph:
    """A connected multigraph with a rotation system, held as its dart rotation sigma."""

    __slots__ = ("graph", "sigma", "dart_vertex", "_dart", "_faces")

    def __init__(self, graph: Multigraph, rotation):
        """The map with the given cyclic edge order at each vertex, checked."""
        dart, _ = dart_numbering(graph)
        sigma = [0] * 2 * len(graph.edges)
        for v in graph.vertices:
            try:
                seq = tuple(rotation[v])
            except KeyError:
                raise ValueError(f"rotation missing vertex {v!r}") from None
            if sorted(seq) != sorted(graph.incident(v)):
                raise ValueError(f"rotation at {v!r} is not a cyclic order of its edges")
            for e, f in zip(seq, seq[1:] + seq[:1]):
                sigma[dart[e, v]] = dart[f, v]
        if len(rotation) != len(graph.vertices):
            raise ValueError("rotation has extra vertices")
        self._bind(graph, tuple(sigma))

    @classmethod
    def from_sigma(cls, graph: Multigraph, sigma: tuple) -> "RibbonGraph":
        """The map on graph with dart rotation sigma, trusted as given."""
        rg = cls.__new__(cls)
        rg._bind(graph, sigma)
        return rg

    def _bind(self, graph, sigma):
        self.graph = graph
        self.sigma = sigma
        self._dart, self.dart_vertex = dart_numbering(graph)
        self._faces = None

    def __eq__(self, other):
        return (
            isinstance(other, RibbonGraph)
            and self.graph == other.graph
            and self.sigma == other.sigma
        )

    def __hash__(self):
        return hash((self.graph, self.sigma))

    def __reduce__(self):
        # rebuilt from its values, so no string hash crosses a process
        return RibbonGraph.from_sigma, (self.graph, self.sigma)

    def __repr__(self):
        g = self.graph
        genus = f"genus {self.euler_genus()}" if g.is_connected() else "not connected"
        return f"RibbonGraph({len(g.vertices)} vertices, {len(g.edges)} edges, {genus})"

    @property
    def rotation(self) -> dict:
        """Each vertex's counterclockwise edge ids from its smallest, read off sigma."""
        g = self.graph
        rot = dict.fromkeys(g.vertices, ())
        for cycle in functional_cycles(self.sigma):
            rot[g.vertices[self.dart_vertex[cycle[0]]]] = tuple(g.edges[d >> 1] for d in cycle)
        return rot

    def dart(self, e: str, x: str) -> int:
        """The number of edge e's dart at vertex x."""
        try:
            return self._dart[e, x]
        except KeyError:
            raise ValueError(f"edge {e!r} is not incident to {x!r}") from None

    def next_edge(self, x: str, e: str) -> str:
        """The edge after e in the counterclockwise order at x."""
        return self.graph.edges[self.sigma[self.dart(e, x)] >> 1]

    def prev_edge(self, x: str, e: str) -> str:
        """The edge before e in the counterclockwise order at x."""
        start = d = self.dart(e, x)
        while self.sigma[d] != start:
            d = self.sigma[d]
        return self.graph.edges[d >> 1]

    # -- faces and genus -----------------------------------------------------

    def faces(self) -> list[list[int]]:
        """Face boundary walks as lists of darts; every dart appears once.

        Each walk is a cycle of ``d -> sigma[d] ^ 1`` listed from its
        smallest dart, and the walks come in order of those darts.  The
        edgeless map is a sphere with one face, whose walk is empty.
        """
        if self._faces is None:
            if not self.graph.is_connected():
                raise ValueError("faces need a connected graph")
            self._faces = functional_cycles([d ^ 1 for d in self.sigma]) or [[]]
        return self._faces

    def euler_genus(self) -> int:
        g = self.graph
        two_g = 2 - len(g.vertices) + len(g.edges) - len(self.faces())
        if two_g < 0 or two_g % 2:
            raise InvariantViolation(f"impossible Euler count {two_g}")
        return two_g // 2

    def is_plane(self) -> bool:
        return self.euler_genus() == 0

    # -- derived structures ----------------------------------------------------

    def reverse(self) -> "RibbonGraph":
        """Reverse the cyclic order around every vertex (mirror embedding): sigma inverted."""
        inverse = sorted(range(len(self.sigma)), key=self.sigma.__getitem__)
        return RibbonGraph.from_sigma(self.graph, tuple(inverse))

    def delete(self, e: str) -> "RibbonGraph":
        """Delete e: its two darts leave their rotations."""
        return self._minor(self.graph.delete(e), *self.minor_darts(e, False), {})

    def contract(self, e: str) -> "RibbonGraph":
        """Contract e; parallels of e leave the structure as deleted loops.

        Swapping e's two darts before each rotation step joins the orders
        (e, e_1..e_p) at x and (e, ee_1..ee_l) at y into (e_1..e_p,
        ee_1..ee_l) at the merged vertex, which keeps the smaller id x.
        """
        x, y = self.graph.ends(e)
        return self._minor(self.graph.contract(e), *self.minor_darts(e, True), {y: x})

    def minor_darts(self, e: str, contract: bool) -> tuple[list[int], tuple[int, ...]]:
        """The darts kept in the minor by e, and the minor's rotation on them.

        Each kept dart goes to the next kept one along sigma, with e's two
        darts swapped first when contracting (``contract``); e leaves, and
        so do its parallels when contracting.  The rotation numbers each
        kept dart by its place among them; whole edges leave, so ``d ^ 1``
        stays the edge involution, and ``canonical_labelling`` reads the
        minor off it without building the minor.
        """
        x, y = self.graph.ends(e)
        a = self.dart(e, x)
        turn = self.sigma
        if contract:
            turn = list(turn)
            turn[a], turn[a ^ 1] = self.sigma[a ^ 1], self.sigma[a]
            skip = {self._dart[f, v] for f in self.graph.parallel_class(e) for v in (x, y)}
        else:
            skip = {a, a ^ 1}
        kept = [d for d in range(len(turn)) if d not in skip]
        place = dict(zip(kept, range(len(kept))))
        sigma = []
        for d in kept:
            nxt = turn[d]
            while nxt in skip:
                nxt = turn[nxt]
            sigma.append(place[nxt])
        return kept, tuple(sigma)

    def _minor(self, g2: Multigraph, kept, sigma, merged) -> "RibbonGraph":
        """The map on g2 with minor_darts' rotation; each kept dart keeps its
        (edge, vertex) pair, with vertex ids renamed through merged."""
        dart2, _ = dart_numbering(g2)
        edges, names = self.graph.edges, [merged.get(v, v) for v in self.graph.vertices]
        rename = [dart2[edges[d >> 1], names[self.dart_vertex[d]]] for d in kept]
        out = [0] * len(kept)
        for d2, nxt in zip(rename, sigma):
            out[d2] = rename[nxt]
        return RibbonGraph.from_sigma(g2, tuple(out))

    # -- isomorphism ---------------------------------------------------------

    def isomorphisms(self, other: "RibbonGraph") -> list[RibbonIsomorphism]:
        """Every ribbon isomorphism onto other, each once.

        The image of one dart fixes an isomorphism, and an isomorphism sends
        this map's first minimal anchor to one of other's, so pairing this
        map's first canonical order with each of other's orders
        (``labelling_isomorphism``) gives them all.  A map split into
        components raises ValueError, as ``canonical_labelling`` does.
        """
        if not (self.graph.is_connected() and other.graph.is_connected()):
            raise ValueError("isomorphisms need maps in one component")
        code, orders = self.canonical_labelling()
        other_code, other_orders = other.canonical_labelling()
        if code != other_code:
            return []
        return [labelling_isomorphism(self, orders[0], other, o) for o in other_orders]

    def canonical_labelling(self) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
        """The canonical code and every dart order that reaches it.

        Minimum over anchor darts of a breadth-first relabeling of the
        (rotation, edge-involution) permutation pair, found by advancing all
        anchors in lockstep and dropping each at its first larger entry; each
        order lists the darts by their new labels from one minimal anchor,
        the first minimal anchor's order first.  Equal codes mean
        ribbon-isomorphic maps, and pairing two of their orders position by
        position is an isomorphism (``labelling_isomorphism``).
        """
        return canonical_labelling(self.sigma, len(self.graph.vertices))

    def canonical_form(self) -> tuple:
        """A ribbon-isomorphism invariant that separates non-isomorphic maps."""
        return self.canonical_labelling()[0]

    # -- serialization ---------------------------------------------------------

    def to_obj(self) -> dict:
        obj = self.graph.to_obj()
        obj["rotation"] = {v: list(seq) for v, seq in self.rotation.items()}
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)

    @classmethod
    def from_obj(cls, obj) -> "RibbonGraph":
        g = Multigraph.from_obj(obj)
        if "rotation" not in obj:
            raise ValueError("ribbon graph object needs a 'rotation' field")
        return cls(g, string_lists(obj["rotation"], "rotation"))

    @classmethod
    def from_json(cls, text: str) -> "RibbonGraph":
        return cls.from_obj(json.loads(text))


def canonical_labelling(sigma, vertex_count: int) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """``RibbonGraph.canonical_labelling`` of the map with rotation sigma.

    The catalog calls this on rotation systems it has not built as
    ``RibbonGraph`` objects; the vertex count leads the code.  Every anchor
    labels its darts breadth-first in lockstep: each round takes the next dart
    of every surviving anchor, reads the labels of its rotation successor and
    its edge twin (new darts get the next label), and keeps only the anchors
    whose pair is least, in anchor order.  Leaf darts, whose first pair is
    (0, 1), are the only anchors when there are any.  Once one anchor is
    left, its labelling finishes without comparisons; anchors that tie to
    the end have each labelled every dart, and all their orders come back,
    in anchor order.  A map whose darts lie in more than one component
    raises ValueError: the walk from one anchor would describe only its own
    component.
    """
    n = len(sigma)
    if not n:
        return (vertex_count,), ((),)
    runs = []  # (labels, order) of each surviving anchor
    for a in [d for d in range(n) if sigma[d] == d] or range(n):
        labels = [-1] * n
        labels[a] = 0
        runs.append((labels, [a]))
    enc = []
    k = 0
    size = 1  # darts labelled so far; equal encodings label equally many
    while len(runs) > 1 and k < size:
        low = n * n  # pairs (x, y) compare as x * n + y
        for run in runs:
            labels, order = run
            d = order[k]
            nb = sigma[d]
            x = labels[nb]
            if x < 0:
                x = labels[nb] = size
                order.append(nb)
            nb = d ^ 1
            y = labels[nb]
            if y < 0:
                y = labels[nb] = len(order)
                order.append(nb)
            p = x * n + y
            if p < low:
                low = p
                keep = [run]
            elif p == low:
                keep.append(run)
        runs = keep
        enc += divmod(low, n)
        size = len(runs[0][1])
        k += 1
    labels, order = runs[0]
    for d in islice(order, k, None):  # order grows as the walk goes
        nb = sigma[d]
        x = labels[nb]
        if x < 0:
            x = labels[nb] = len(order)
            order.append(nb)
        nb = d ^ 1
        y = labels[nb]
        if y < 0:
            y = labels[nb] = len(order)
            order.append(nb)
        enc += x, y
    if len(order) != n:
        raise ValueError("canonical labelling needs the darts in one component")
    return (vertex_count, *enc), tuple(tuple(order) for _, order in runs)


def is_ribbon_isomorphism(a: RibbonGraph, b: RibbonGraph, iso: RibbonIsomorphism) -> bool:
    """Check the defining identities of a ribbon isomorphism edge by edge."""
    vmap, emap = iso.vertex_map, iso.edge_map
    ga, gb = a.graph, b.graph
    if sorted(vmap) != list(ga.vertices) or sorted(vmap.values()) != list(gb.vertices):
        return False
    if sorted(emap) != list(ga.edges) or sorted(emap.values()) != list(gb.edges):
        return False
    for e in ga.edges:
        x, y = ga.ends(e)
        if set(gb.ends(emap[e])) != {vmap[x], vmap[y]}:
            return False
        for v in (x, y):
            if emap[a.next_edge(v, e)] != b.next_edge(vmap[v], emap[e]):
                return False
    return True


def labelling_isomorphism(a: RibbonGraph, order_a, b: RibbonGraph, order_b) -> RibbonIsomorphism:
    """The isomorphism a -> b pairing the dart orders of two equal canonical codes.

    Dart order_a[i] goes to order_b[i]; edges and vertices follow their darts.
    """
    va, vb = a.graph.vertices, b.graph.vertices
    ea, eb = a.graph.edges, b.graph.edges
    vmap = {va[0]: vb[0]}  # the edgeless map's one vertex; overwritten otherwise
    emap = {}
    for x, y in zip(order_a, order_b):
        vmap[va[a.dart_vertex[x]]] = vb[b.dart_vertex[y]]
        emap[ea[x >> 1]] = eb[y >> 1]
    return RibbonIsomorphism(vmap, emap)


def is_automorphism(rg: RibbonGraph, iso: RibbonIsomorphism) -> bool:
    return is_ribbon_isomorphism(rg, rg, iso)


def classify_sides(rg: RibbonGraph, cycle) -> SideClassification:
    """Split everything off an embedded directed cycle into left and right.

    ``cycle`` is a list of rotors (vertex, edge) forming a simple directed
    closed walk; the walk of two parallel edges is accepted, with the two
    sides read off the faces.  Left is the side a counterclockwise walk
    encloses: the face holding the tail dart of each cycle edge.
    """
    if not rg.is_plane():
        raise ValueError("side classification needs a plane ribbon graph")
    g = rg.graph
    cyc = list(cycle)
    if not cyc:
        raise ValueError("empty cycle")
    tails = [v for v, _ in cyc]
    if len(set(tails)) != len(tails):
        raise ValueError("cycle revisits a vertex")
    for i, (v, e) in enumerate(cyc):
        w = g.other(e, v)
        nv = cyc[(i + 1) % len(cyc)][0]
        if w != nv:
            raise ValueError("rotors do not chain into a directed cycle")
    cyc_edges = {e for _, e in cyc}
    if len(cyc_edges) != len(cyc):
        raise ValueError("cycle repeats an edge")

    faces = rg.faces()
    face_of = [0] * len(rg.sigma)
    for i, walk in enumerate(faces):
        for d in walk:
            face_of[d] = i

    parent = list(range(len(faces)))
    for i, e in enumerate(g.edges):
        if e not in cyc_edges:
            a, b = find_root(parent, face_of[2 * i]), find_root(parent, face_of[2 * i + 1])
            parent[a] = b

    # face tracing leaves along the next edge counterclockwise, which puts
    # the tail dart of a traversal on the face to its left
    left_roots = {find_root(parent, face_of[rg.dart(e, v)]) for v, e in cyc}
    right_roots = {find_root(parent, face_of[rg.dart(e, v) ^ 1]) for v, e in cyc}
    if len(left_roots) != 1 or len(right_roots) != 1:
        raise InvariantViolation("cycle sides did not merge into two regions")
    left_root, right_root = left_roots.pop(), right_roots.pop()
    if left_root == right_root:
        raise InvariantViolation("left and right regions coincide")

    left_edges, right_edges = set(), set()
    for i, e in enumerate(g.edges):
        if e in cyc_edges:
            continue
        root = find_root(parent, face_of[2 * i])
        (left_edges if root == left_root else right_edges).add(e)
    cyc_vertices = set(tails)
    left_vertices, right_vertices = set(), set()
    for v in g.vertices:
        if v in cyc_vertices:
            continue
        root = find_root(parent, face_of[rg.dart(g.incident(v)[0], v)])
        (left_vertices if root == left_root else right_vertices).add(v)
    return SideClassification(
        frozenset(left_edges),
        frozenset(right_edges),
        frozenset(left_vertices),
        frozenset(right_vertices),
    )
