"""The traced-run lemmas: what one routed chip does to the rotor cycles.

Routing a chip between adjacent vertices c and s is checked on one traced
run of ``rotor``'s routing loop: no directed edge is crossed twice, every
directed cycle that appears mid-run also appears reversed, and the chip stays
off the right side of the cycle that a non-tree c-s edge closes, whose
sink-free run sweeps the left side both ways.  Left and right are read off
the faces of a plane ribbon graph (``classify_sides``).  The run records
only the darts it turns, and ``replay`` rebuilds its states from them.  No
verification sweep runs these checks, so no sweep loads this module.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolation
from .multigraph import find_root
from .ribbon import RibbonGraph, functional_cycles
from .rotor import _route, _spin, _steps, _tree_darts, _tree_of


class SideClassification(NamedTuple):
    left_edges: frozenset
    right_edges: frozenset
    left_vertices: frozenset
    right_vertices: frozenset


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


def replay(rg: RibbonGraph, rotors, x: int, turned) -> list[tuple]:
    """The states (rotors, chip) of a run from rotors with the chip at x:
    one before each move and one after the last, rebuilt from the darts it
    turned.  The rotor that turns onto d is the chip's, at d's vertex, and
    the chip crosses d to the far end."""
    dv = rg.dart_vertex
    rotors = list(rotors)
    states = [(tuple(rotors), x)]
    for d in turned:
        rotors[dv[d]] = d
        states.append((tuple(rotors), dv[d ^ 1]))
    return states


def _heads(rg: RibbonGraph, rotors) -> list:
    """Where each rotor points: the functional graph of a dart array."""
    dv = rg.dart_vertex
    return [None if d is None else dv[d ^ 1] for d in rotors]


def _reversed(rg: RibbonGraph, rotors, cycle) -> tuple:
    """The rotors with their cycle through the given positions turned around."""
    out = list(rotors)
    for v in cycle:
        d = rotors[v] ^ 1
        out[rg.dart_vertex[d]] = d
    return tuple(out)


def crossings(steps) -> list[tuple[str, str, str]]:
    """Directed edge crossings (edge, from, to) in trace order."""
    return [(st.new_rotor, st.chip, st.crossed_to) for st in steps]


def check_no_repeated_crossing(steps) -> list[str]:
    seen = set()
    bad = []
    for e, a, b in crossings(steps):
        key = (e, a, b)
        if key in seen:
            bad.append(f"edge {e} crossed twice from {a} to {b}")
        seen.add(key)
    return bad


def check_cycle_reversal(rg: RibbonGraph, tree, c: str, s: str) -> list[str]:
    """Traced-run checks for routing a chip between adjacent vertices.

    Inspects one run of the routing loop on (tree, c - s) and reports every
    violation of:

    * no directed edge is crossed twice;
    * every directed cycle appearing mid-run also appears reversed in some
      configuration of the run;
    * when some non-tree edge joins c and s, closing the tree's rotor path
      from c to s into a cycle, the chip stays off the right side of it;
    * on the induced sink-free run, the chip crosses every edge left of the
      starting cycle in both directions and no edge to its right.
    """
    g = rg.graph
    vs, edges, dv = g.vertices, g.edges, rg.dart_vertex
    fs = [e for e in edges if set(g.ends(e)) == {c, s}]
    if not fs:
        raise ValueError("c and s must be adjacent")
    tree = frozenset(tree)
    ci, si = vs.index(c), vs.index(s)
    rotors = _tree_darts(rg.graph, tree, s)
    unicycle = list(rotors)  # the start: replayed, then closed at s once per non-tree c-s edge
    cycle = [ci]  # the rotor path from c to s
    while cycle[-1] != si:
        cycle.append(dv[rotors[cycle[-1]] ^ 1])
    turned = []
    _route(rg, rotors, ci, si, turned)
    _tree_of(rg, rotors)  # asserts the routed rotors acyclic
    violations = list(check_no_repeated_crossing(_steps(rg, turned)))

    configs = [cfg for cfg, _ in replay(rg, unicycle, ci, turned)]
    for i, cfg in enumerate(configs):
        for cyc in functional_cycles(_heads(rg, cfg)):
            reverse = _reversed(rg, cfg, cyc)
            if not any(all(other[v] == reverse[v] for v in cyc) for other in configs):
                named = sorted((vs[v], edges[cfg[v] >> 1]) for v in cyc)
                violations.append(f"cycle at step {i} never reverses: {named}")

    # each non-tree c-s edge f closes the rotor path into a cycle: the chip
    # stays off its right side, and the sink-free run from it sweeps its left
    # side both ways.  A tree edge joining c and s would close a degenerate
    # bidirected 2-cycle whose reversal is itself, so it is not informative.
    path = [(vs[x], edges[unicycle[x] >> 1]) for x in cycle[:-1]]
    crossed = {edges[d >> 1] for d in turned}
    for f in fs:
        if f in tree:
            continue
        sides = classify_sides(rg, path + [(s, f)])
        for e in crossed & sides.right_edges:
            violations.append(f"chip crossed right-side edge {e}")
        unicycle[si] = rg.dart(f, s)
        violations += _check_unicycle_leftright(rg, unicycle, cycle, sides)
    return violations


def _check_unicycle_leftright(rg: RibbonGraph, rotors: list, cycle, sides) -> list[str]:
    """Spin the unicycle with its chip at cycle[0] until its cycle is reversed."""
    chip = cycle[0]
    target = (_reversed(rg, rotors, cycle), chip)
    turned = []
    _spin(rg, list(rotors), chip, len(rg.sigma), turned=turned)
    states = replay(rg, rotors, chip, turned)
    if target not in states:
        return [f"reversal of the starting cycle never reached from chip {rg.graph.vertices[chip]}"]
    forward = set(turned[: states.index(target)])
    crossed = {rg.graph.edges[d >> 1] for d in forward}
    bad = []
    for e in sides.right_edges & crossed:
        bad.append(f"sink-free run crossed right-side edge {e}")
    for e in sides.left_edges:
        if not all(rg.dart(e, x) in forward for x in rg.graph.ends(e)):
            bad.append(f"sink-free run missed a direction of left-side edge {e}")
    return bad
