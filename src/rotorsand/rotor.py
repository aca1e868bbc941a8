"""Single-chip routing and unicycle dynamics on one array of darts.

A rotor configuration is a list indexed by vertex position, holding each
vertex's rotor as a dart of the ribbon graph (``None`` at the sink); a
unicycle is a sink-free one with a single cycle, plus a chip position on it.
The spin step is the heart of the package: turn the rotor at the chip to the
next dart counterclockwise (``sigma``) and move the chip across it (``d ^ 1``).
Routing stops the chip at the sink, and folding that over a chip
decomposition of a divisor gives the rotor-routing action on spanning trees.
The unicycle checks spin integer states instead: the sink-free arrays with a
single cycle are enumerated once per multigraph, each numbered by its place
in the product of the darts around each vertex, and a unicycle is that
number times the vertex count plus its chip, so a flat list marks each
state's orbit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvariantViolation
from .multigraph import Multigraph
from .ribbon import RibbonGraph, classify_sides, dart_numbering, functional_cycles

if TYPE_CHECKING:  # annotation only: the unicycle and moves sweeps never load sandpile
    from .sandpile import Divisor


class RouteStep(NamedTuple):
    step: int
    chip: str  # position before the move
    rotated_vertex: str
    new_rotor: str
    crossed_to: str


@lru_cache(maxsize=256)
def _around(g: Multigraph) -> tuple:
    """Each vertex position's (edge id, dart at the far end, far end's
    position) for each dart at it: the adjacency tree orientation walks."""
    dv = dart_numbering(g)[1]
    around = [[] for _ in g.vertices]
    for d, v in enumerate(dv):
        around[v].append((g.edges[d >> 1], d ^ 1, dv[d ^ 1]))
    return tuple(map(tuple, around))


def _tree_darts(g: Multigraph, tree, s: str) -> list:
    """Orient the tree toward s: each vertex's rotor as the dart along its
    path, indexed by vertex position; None at s."""
    around = _around(g)
    tree = frozenset(tree)
    rotors = [None] * len(around)
    seen = [False] * len(around)
    stack = [g.vertices.index(s)]
    seen[stack[0]] = True
    while stack:
        for e, d, y in around[stack.pop()]:
            if not seen[y] and e in tree:
                seen[y] = True
                rotors[y] = d
                stack.append(y)
    # n - 1 edges whose walk from s reaches all n vertices are a spanning tree
    if len(tree) != len(around) - 1 or not all(seen):
        raise ValueError("not a spanning tree")
    return rotors


def tree_to_rotors(g: Multigraph, tree, s: str) -> dict:
    """Orient every tree edge toward s: {vertex: edge along its path}."""
    vs, edges = g.vertices, g.edges
    return {vs[v]: edges[d >> 1] for v, d in enumerate(_tree_darts(g, tree, s)) if d is not None}


def _tree_of(rg: RibbonGraph, rotors: list) -> frozenset:
    """The routed rotors' edges, asserted acyclic: rotors on a cycle never span."""
    tree = frozenset(rg.graph.edges[d >> 1] for d in rotors if d is not None)
    if not rg.graph.is_spanning_tree(tree):
        raise InvariantViolation("routing finished on a cyclic rotor configuration")
    return tree


def _heads(rg: RibbonGraph, rotors) -> list:
    """Where each rotor points: the functional graph of a dart array."""
    dv = rg.dart_vertex
    return [None if d is None else dv[d ^ 1] for d in rotors]


def _spin(
    rg: RibbonGraph, rotors: list, x: int, bound: int, sink=None, seen=None, turned=None
) -> int:
    """Move a chip from position x until it reaches sink or has moved bound times.

    Each move turns the rotor at the chip to the next dart counterclockwise
    and carries the chip across it; rotors change in place.  Returns the
    chip's final position.  seen, when given, maps each (rotors, chip)
    before its move to the first of them, and turned gets each dart turned.
    """
    sigma, dv = rg.sigma, rg.dart_vertex
    first = (tuple(rotors), x) if seen is not None else None
    for _ in range(bound):
        if x == sink:
            break
        if seen is not None:
            seen[tuple(rotors), x] = first
        d = sigma[rotors[x]]
        rotors[x] = d
        if turned is not None:
            turned.append(d)
        x = dv[d ^ 1]
    return x


def _route(rg: RibbonGraph, rotors: list, x: int, sink: int, seen=None, turned=None) -> None:
    """Move one chip from position x to sink within the routing step bound,
    turning the dart array in place; seen and turned are passed to _spin."""
    bound = 2 * len(rg.graph.edges) * (len(rotors) + 1) + 8
    if _spin(rg, rotors, x, bound, sink, seen, turned) != sink:
        raise InvariantViolation("routing exceeded its step bound")


def _steps(rg: RibbonGraph, turned) -> list[RouteStep]:
    vs, edges, dv = rg.graph.vertices, rg.graph.edges, rg.dart_vertex
    return [
        RouteStep(n, vs[dv[d]], vs[dv[d]], edges[d >> 1], vs[dv[d ^ 1]])
        for n, d in enumerate(turned)
    ]


def route_chip(rg: RibbonGraph, tree, c: str, s: str, trace: bool = False):
    """Route one chip from c to sink s starting from the tree's rotors.

    Returns (tree', steps) where steps is the recorded trace (empty when
    trace is false).  The final rotor configuration is asserted acyclic
    where it is read as a tree.
    """
    vs = rg.graph.vertices
    if c not in vs or s not in vs:
        raise KeyError("unknown chip or sink vertex")
    rotors = _tree_darts(rg.graph, tree, s)
    turned = [] if trace else None
    _route(rg, rotors, vs.index(c), vs.index(s), turned=turned)
    return _tree_of(rg, rotors), _steps(rg, turned) if trace else []


def route_divisor(rg: RibbonGraph, tree, d: Divisor, s: str):
    """Route a whole divisor of Div^0_s: one chip per positive unit, sorted order.

    The rotors carry over from chip to chip, and are asserted acyclic once,
    where the last chip's are read as a tree.
    """
    vs = rg.graph.vertices
    if d.degree() != 0:
        raise ValueError("route_divisor expects a degree-0 divisor")
    if any(d[v] < 0 for v in vs if v != s):
        raise ValueError("divisor must be nonnegative away from the sink")
    rotors = _tree_darts(rg.graph, tree, s)
    sink = vs.index(s)
    for i, v in enumerate(vs):
        if i != sink:
            for _ in range(d[v]):
                _route(rg, rotors, i, sink)
    return _tree_of(rg, rotors)


def chip_rows(rg: RibbonGraph, trees, s: str) -> list[tuple[int, ...]]:
    """Tree-index rows of the single chips [v - s], by vertex position.

    Row v sends i to the index of the tree that one chip routed from v to s
    leaves of trees[i], every spanning tree; the row at s is the identity.
    Each tree's rotors are set up once, and each chip routes a copy of them
    on the dart array.  The trees' arrays are exactly the acyclic ones, so
    looking the routed rotors up among them asserts them acyclic.
    """
    sink = rg.graph.vertices.index(s)
    starts = [_tree_darts(rg.graph, t, s) for t in trees]
    index = {tuple(r): i for i, r in enumerate(starts)}

    def routed(rotors, v):
        _route(rg, rotors, v, sink)
        i = index.get(tuple(rotors))
        if i is None:
            raise InvariantViolation("routing finished on a cyclic rotor configuration")
        return i

    ident = tuple(range(len(starts)))  # a chip at the sink does not move
    rows = range(len(rg.graph.vertices))
    return [ident if v == sink else tuple([routed(list(r), v) for r in starts]) for v in rows]


def _reversed(rg: RibbonGraph, rotors, cycle) -> tuple:
    """The rotors with their cycle through the given positions turned around."""
    out = list(rotors)
    for v in cycle:
        d = rotors[v] ^ 1
        out[rg.dart_vertex[d]] = d
    return tuple(out)


@lru_cache(maxsize=8)
def _unicycle_arrays(g: Multigraph):
    """The sink-free dart arrays of g with a single cycle, in product order.

    Returns (arrays, pos, radix, size).  arrays holds (index, rotors, cycle)
    for each such array: its index in the product of the darts around each
    vertex (in increasing order, the last vertex fastest) and the positions
    on its cycle.  pos[d] is dart d's place around its vertex and radix the
    product's mixed radix, so an array's index is the sum of
    pos[rotors[v]] * radix[v]; size is the product's length.  The arrays
    depend on g alone, so every rotation system on g shares them; catalog
    order keeps those together, so a few entries suffice.
    """
    dv = dart_numbering(g)[1]
    around, pos = [[] for _ in g.vertices], []
    for d, v in enumerate(dv):
        pos.append(len(around[v]))
        around[v].append(d)
    radix = [prod(map(len, around[v + 1 :])) for v in range(len(around))]
    heads = [[dv[d ^ 1] for d in ds] for ds in around]
    arrays = []
    # successors come from a product in lockstep with the rotors'; building
    # them per array instead is slower
    for index, (rotors, succ) in enumerate(zip(product(*around), product(*heads))):
        cycles = functional_cycles(succ)
        if len(cycles) == 1:
            arrays.append((index, rotors, cycles[0]))
    return tuple(arrays), tuple(pos), tuple(radix), prod(map(len, around))


def _orbits(rg: RibbonGraph):
    """Spin every unicycle orbit of rg once, in one flat pass over its states.

    A unicycle (rotors, chip) is the state index * n + chip, with index the
    rotors' place in the product (_unicycle_arrays) and n the vertex count;
    a move that turns a rotor onto dart d changes the state by jump[d], the
    turn's step in the index times n plus the chip's shift.  The pass visits
    the states of each single-cycle array in turn and spins 2|E| moves from
    each one no earlier orbit has numbered.  Returns (orbit, walks): orbit
    is a flat list holding each state's orbit number, 1 for the first orbit
    spun and 0 for a state that no orbit passed, and walks holds (state,
    state reached, darts turned) for each orbit, in the order they were
    spun.  Each state is numbered before its move.
    """
    sigma, dv = rg.sigma, rg.dart_vertex
    arrays, pos, radix, size = _unicycle_arrays(rg.graph)
    n, nd = len(radix), len(sigma)
    head = [dv[d ^ 1] for d in range(nd)]
    jump = [0] * nd
    for d, t in enumerate(sigma):
        jump[t] = (pos[t] - pos[d]) * radix[dv[d]] * n + head[t] - dv[d]
    orbit = [0] * (size * n)
    walks = []
    moves = range(nd)
    for index, start, cycle in arrays:
        base = index * n
        for chip in cycle:
            if orbit[base + chip]:
                continue
            k = len(walks) + 1
            rotors, turned, s, x = list(start), [0] * nd, base + chip, chip
            for j in moves:
                orbit[s] = k
                d = turned[j] = rotors[x] = sigma[rotors[x]]
                s += jump[d]
                x = head[d]
            walks.append((base + chip, s, turned))
    return orbit, walks


def verify_full_spin(rg: RibbonGraph) -> dict:
    """Every unicycle returns after exactly 2|E| steps with a clean sweep.

    Checks, for one representative per orbit (the orbit is a single cycle,
    so shifted starts see the same crossing multiset and the same return
    time): the walk returns to its start state (rotors and chip) at step
    2|E| and not earlier, each edge is crossed exactly once in each
    direction, and each rotor turns a full circle.
    """
    dv = rg.dart_vertex
    turns = sorted(dv)  # each vertex's position once per dart around it
    _, walks = _orbits(rg)
    unicycles = sum(map(len, map(itemgetter(2), _unicycle_arrays(rg.graph)[0])))
    report = {"unicycles": unicycles, "orbits": len(walks), "violations": []}
    for state, end, turned in walks:
        if end != state:
            report["violations"].append("orbit did not close after a full sweep")
        if len(set(turned)) != len(dv):
            report["violations"].append("an edge was not crossed once per direction")
            # 2|E| turns over every dart are a full turn of each rotor,
            # so only a walk that missed a dart can miss a turn
            if sorted(map(dv.__getitem__, turned)) != turns:
                report["violations"].append("a rotor did not make one full turn")
    return report


def verify_reversal_equivalence(rg: RibbonGraph) -> dict:
    """Does every unicycle orbit contain the reversal of its configuration?

    True exactly on plane ribbon graphs; the report carries the plane flag
    and every unicycle, as (rotors, chip), whose orbit misses its reversal.
    """
    arrays, pos, radix, _ = _unicycle_arrays(rg.graph)
    dv, n = rg.dart_vertex, len(radix)
    orbit, walks = _orbits(rg)
    if any(end != state for state, end, _ in walks):
        raise InvariantViolation("unicycle did not return after a full sweep")
    misses = []
    for index, start, cycle in arrays:
        reverse = index  # the index of the rotors with their cycle turned around
        for v in cycle:
            d = start[v] ^ 1
            w = dv[d]
            reverse += (pos[d] - pos[start[w]]) * radix[w]
        misses += [
            (start, c) for c in cycle if orbit[reverse * n + c] != orbit[index * n + c]
        ]
    return {
        "plane": rg.is_plane(),
        "unicycles": sum(map(len, map(itemgetter(2), arrays))),
        "misses": misses,
        "equivalence_holds": rg.is_plane() == (not misses),
    }


# -- traced verification -------------------------------------------------------


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
    unicycle = list(rotors)  # closed at s below, once per non-tree c-s edge
    cycle = [ci]  # the rotor path from c to s
    while cycle[-1] != si:
        cycle.append(dv[rotors[cycle[-1]] ^ 1])
    states, turned = {}, []
    _route(rg, rotors, ci, si, states, turned)
    _tree_of(rg, rotors)  # asserts the routed rotors acyclic
    violations = list(check_no_repeated_crossing(_steps(rg, turned)))

    configs = [cfg for cfg, _ in states] + [tuple(rotors)]
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
        violations += _check_unicycle_leftright(rg, list(unicycle), cycle, sides)
    return violations


def _check_unicycle_leftright(rg: RibbonGraph, rotors: list, cycle, sides) -> list[str]:
    """Spin the unicycle with its chip at cycle[0] until its cycle is reversed."""
    chip = cycle[0]
    target = (_reversed(rg, rotors, cycle), chip)
    seen, turned = {}, []
    end = _spin(rg, rotors, chip, len(rg.sigma), None, seen, turned)
    states = [*seen, (tuple(rotors), end)]
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
