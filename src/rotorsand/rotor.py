"""Rotor configurations, single-chip routing, and unicycle dynamics.

The routing loop is the heart of the package: rotate the rotor at the chip's
vertex one position counterclockwise, move the chip across the new rotor,
stop when it reaches the sink.  Folding that over a chip decomposition of a
divisor gives the rotor-routing action on spanning trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .multigraph import Multigraph
from .ribbon import RibbonGraph, classify_sides
from .sandpile import Divisor


@dataclass(frozen=True)
class RotorConfig:
    """One outgoing rotor per non-sink vertex."""

    sink: str
    rotors: tuple[tuple[str, str], ...]  # sorted (vertex, edge) pairs

    @classmethod
    def make(cls, sink, rotor_map) -> "RotorConfig":
        return cls(sink, tuple(sorted(dict(rotor_map).items())))

    def rotor(self, v: str) -> str:
        for w, e in self.rotors:
            if w == v:
                return e
        raise KeyError(f"no rotor at {v!r}")

    def as_dict(self) -> dict:
        return dict(self.rotors)


@dataclass(frozen=True)
class Unicycle:
    """A sink-free rotor configuration with one directed cycle, chip on it."""

    rotors: tuple[tuple[str, str], ...]  # every vertex gets a rotor
    chip: str

    def as_dict(self) -> dict:
        return dict(self.rotors)


@dataclass(frozen=True)
class RouteStep:
    step: int
    chip: str  # position before the move
    rotated_vertex: str
    new_rotor: str
    crossed_to: str


def validate_rotor_map(g: Multigraph, rotor_map, skip=None):
    for v in g.vertices:
        if v == skip:
            continue
        e = rotor_map.get(v)
        if e is None:
            raise ValueError(f"vertex {v!r} has no rotor")
        if v not in g.ends(e):
            raise ValueError(f"rotor {e!r} is not incident to {v!r}")


def tree_to_rotors(g: Multigraph, tree, s: str) -> RotorConfig:
    """Orient every tree edge toward s: each vertex points along its path."""
    tree = frozenset(tree)
    if not g.is_spanning_tree(tree):
        raise ValueError("not a spanning tree")
    rotors = {}
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        for e in g.incident(x):
            if e in tree:
                y = g.other(e, x)
                if y not in seen:
                    seen.add(y)
                    rotors[y] = e
                    stack.append(y)
    return RotorConfig.make(s, rotors)


def rotors_to_tree(g: Multigraph, rho: RotorConfig):
    """The spanning tree whose rotors these are, or None if a cycle exists."""
    rotor_map = rho.as_dict()
    validate_rotor_map(g, rotor_map, skip=rho.sink)
    if all_cycles(g, rotor_map):
        return None
    return frozenset(rotor_map.values())


def functional_cycles(succ) -> list[list[int]]:
    """Every cycle of the functional graph i -> succ[i] on range(len(succ)).

    succ[i] is None where the walk stops (the sink).  Starts are tried in
    increasing order and each cycle is listed from the first node reached.
    """
    cycles = []
    color = [0] * len(succ)  # 0 unseen, 1 on the current path, 2 done
    for start in range(len(succ)):
        if color[start]:
            continue
        path = []
        x = start
        while x is not None and color[x] == 0:
            color[x] = 1
            path.append(x)
            x = succ[x]
        if x is not None and color[x] == 1:
            cycles.append(path[path.index(x) :])
        for v in path:
            color[v] = 2
    return cycles


def all_cycles(g: Multigraph, rotor_map) -> list[list[tuple[str, str]]]:
    """Every directed cycle of the rotor map, as lists of (vertex, edge)."""
    vs = sorted(rotor_map)
    index = {v: i for i, v in enumerate(vs)}
    succ = [index.get(g.other(rotor_map[v], v)) for v in vs]
    return [[(vs[i], rotor_map[vs[i]]) for i in cyc] for cyc in functional_cycles(succ)]


def rotate_one(rg: RibbonGraph, rho: RotorConfig, x: str) -> RotorConfig:
    """Advance the rotor at x one position in the cyclic order."""
    if x == rho.sink:
        raise ValueError("the sink has no rotor to rotate")
    rotors = rho.as_dict()
    rotors[x] = rg.next_edge(x, rotors[x])
    return RotorConfig.make(rho.sink, rotors)


def _tree_darts(rg: RibbonGraph, tree, s: str) -> list:
    """The tree's rotors as darts of rg, indexed by vertex position; None at s."""
    rotors = [None] * len(rg.graph.vertices)
    for v, e in tree_to_rotors(rg.graph, tree, s).rotors:
        d = rg.dart(e, v)
        rotors[rg.dart_vertex[d]] = d
    return rotors


def _tree_of(rg: RibbonGraph, rotors: list) -> frozenset:
    return frozenset(rg.graph.edges[d >> 1] for d in rotors if d is not None)


def _route(rg: RibbonGraph, rotors: list, x: int, sink: int, steps=None) -> None:
    """Route one chip from position x to sink, turning the dart array in place.

    Appends a RouteStep per move to steps when given.  The final rotors are
    asserted acyclic.
    """
    vs, edges, sigma, dv = rg.graph.vertices, rg.graph.edges, rg.sigma, rg.dart_vertex
    bound = 2 * len(edges) * (len(vs) + 1) + 8
    n = 0
    while x != sink:
        if n >= bound:
            raise InvariantViolation("routing exceeded its step bound")
        d = sigma[rotors[x]]
        rotors[x] = d
        y = dv[d ^ 1]
        if steps is not None:
            steps.append(RouteStep(n, vs[x], vs[x], edges[d >> 1], vs[y]))
        x = y
        n += 1
    if functional_cycles([None if d is None else dv[d ^ 1] for d in rotors]):
        raise InvariantViolation("routing finished on a cyclic rotor configuration")


def route_chip(rg: RibbonGraph, tree, c: str, s: str, trace: bool = False):
    """Route one chip from c to sink s starting from the tree's rotors.

    Returns (tree', steps) where steps is the recorded trace (empty when
    trace is false).  The final rotor configuration is asserted acyclic.
    """
    vs = rg.graph.vertices
    if c not in vs or s not in vs:
        raise KeyError("unknown chip or sink vertex")
    rotors = _tree_darts(rg, tree, s)
    steps: list[RouteStep] = []
    _route(rg, rotors, vs.index(c), vs.index(s), steps if trace else None)
    return _tree_of(rg, rotors), steps


def route_divisor(rg: RibbonGraph, tree, d: Divisor, s: str):
    """Route a whole divisor of Div^0_s: one chip per positive unit, sorted order.

    The rotors carry over from chip to chip, and are asserted acyclic after
    each one.
    """
    vs = rg.graph.vertices
    if d.degree() != 0:
        raise ValueError("route_divisor expects a degree-0 divisor")
    if any(d[v] < 0 for v in vs if v != s):
        raise ValueError("divisor must be nonnegative away from the sink")
    rotors = _tree_darts(rg, tree, s)
    sink = vs.index(s)
    for i, v in enumerate(vs):
        if i != sink:
            for _ in range(d[v]):
                _route(rg, rotors, i, sink)
    return _tree_of(rg, rotors)


# -- unicycles ---------------------------------------------------------------


def make_unicycle(g: Multigraph, rotor_map, chip: str) -> Unicycle:
    validate_rotor_map(g, rotor_map)
    cycles = all_cycles(g, rotor_map)
    if len(cycles) != 1:
        raise ValueError(f"configuration has {len(cycles)} directed cycles, needs 1")
    if chip not in {v for v, _ in cycles[0]}:
        raise ValueError("chip must sit on the directed cycle")
    return Unicycle(tuple(sorted(rotor_map.items())), chip)


def unicycle_cycle(g: Multigraph, u: Unicycle) -> list[tuple[str, str]]:
    cycles = all_cycles(g, u.as_dict())
    if len(cycles) != 1:
        raise InvariantViolation("unicycle lost its unique cycle")
    return cycles[0]


def unicycle_step(rg: RibbonGraph, u: Unicycle) -> Unicycle:
    """One pass of the routing loop on a sink-free configuration."""
    rotors = u.as_dict()
    e = rg.next_edge(u.chip, rotors[u.chip])
    rotors[u.chip] = e
    chip = rg.graph.other(e, u.chip)
    return make_unicycle(rg.graph, rotors, chip)


def unicycle_orbit(rg: RibbonGraph, u: Unicycle, max_steps: int) -> list[Unicycle]:
    """The orbit starting at u, up to and excluding the first repeat of u."""
    out = [u]
    cur = u
    for _ in range(max_steps):
        cur = unicycle_step(rg, cur)
        if cur == u:
            return out
        out.append(cur)
    raise InvariantViolation(f"unicycle did not return within {max_steps} steps")


def reverse_unicycle(g: Multigraph, u: Unicycle) -> Unicycle:
    """Reverse the rotors along the unique directed cycle, keep the chip."""
    rotors = u.as_dict()
    for v, e in unicycle_cycle(g, u):
        rotors[g.other(e, v)] = e
    return make_unicycle(g, rotors, u.chip)


def all_unicycles(g: Multigraph) -> list[Unicycle]:
    """Every unicycle: sink-free rotor maps with one cycle, chip on the cycle."""
    from itertools import product

    vs = g.vertices
    choices = [g.incident(v) for v in vs]
    out = []
    for combo in product(*choices):
        rotor_map = dict(zip(vs, combo))
        cycles = all_cycles(g, rotor_map)
        if len(cycles) == 1:
            rotors = tuple(sorted(rotor_map.items()))
            for v, _ in cycles[0]:
                out.append(Unicycle(rotors, v))
    return out


def arc_rearrangements(rg: RibbonGraph, tree, c: str, s: str, rng, samples: int = 4):
    """Ribbon structures that provably route (tree, c - s) to the same tree.

    At a vertex x the cyclic order splits into the arc strictly between the
    starting rotor and the finishing rotor and the complementary arc; both
    may be permuted freely without changing the routed output.  Yields
    sampled rearranged ribbon graphs for metamorphic testing.
    """
    g = rg.graph
    tree = frozenset(tree)
    out_tree, _ = route_chip(rg, tree, c, s)
    start = tree_to_rotors(g, tree, s).as_dict()
    finish = tree_to_rotors(g, out_tree, s).as_dict()
    for _ in range(samples):
        x = rng.choice([v for v in g.vertices if v != s])
        seq = list(rg.rotation[x])
        k = seq.index(start[x])
        seq = seq[k:] + seq[:k]
        if finish[x] == start[x]:
            head, mid, tail = seq[:1], [], seq[1:]
        else:
            j = seq.index(finish[x])
            head, mid, tail = seq[:1], seq[1:j], seq[j:]
        mid2 = list(mid)
        rng.shuffle(mid2)
        if finish[x] == start[x]:
            tail2 = list(tail)
            rng.shuffle(tail2)
            new_seq = head + tail2
        else:
            rest = tail[1:]
            rest2 = list(rest)
            rng.shuffle(rest2)
            new_seq = head + mid2 + [tail[0]] + rest2
        rot = dict(rg.rotation)
        rot[x] = tuple(new_seq)
        yield RibbonGraph(g, rot)


def verify_full_spin(rg: RibbonGraph) -> dict:
    """Every unicycle returns after exactly 2|E| steps with a clean sweep.

    Checks, for one representative per orbit (the orbit is a single cycle,
    so shifted starts see the same crossing multiset and the same return
    time): the walk returns to its start at step 2|E| and not earlier, each
    edge is crossed exactly once in each direction, and each rotor turns a
    full circle.  Rotors are darts of rg and the chip a vertex position.
    """
    from itertools import product

    sigma, dv = rg.sigma, rg.dart_vertex
    n, nd = len(rg.graph.vertices), len(sigma)
    around = [[] for _ in range(n)]
    for d in range(nd):
        around[dv[d]].append(d)
    heads = [[dv[d ^ 1] for d in ds] for ds in around]
    report = {"unicycles": 0, "orbits": 0, "violations": []}
    visited = set()

    # successors come from a product in lockstep with the rotors'; building
    # them per combo instead is slower
    for combo, succ in zip(product(*around), product(*heads)):
        cycles = functional_cycles(succ)
        if len(cycles) != 1:
            continue
        for chip0 in cycles[0]:
            report["unicycles"] += 1
            if (combo, chip0) in visited:
                continue
            report["orbits"] += 1
            rotors = list(combo)
            chip = chip0
            crossed = set()
            turns = [0] * n
            for _ in range(nd):
                visited.add((tuple(rotors), chip))
                d = sigma[rotors[chip]]
                rotors[chip] = d
                turns[chip] += 1
                crossed.add(d)
                chip = dv[d ^ 1]
            if (tuple(rotors), chip) != (combo, chip0):
                report["violations"].append("orbit did not close after a full sweep")
            if len(crossed) != nd:
                report["violations"].append("an edge was not crossed once per direction")
            if any(turns[v] != len(around[v]) for v in range(n)):
                report["violations"].append("a rotor did not make one full turn")
    return report


def verify_reversal_equivalence(rg: RibbonGraph) -> dict:
    """Does every unicycle orbit contain the reversal of its configuration?

    True exactly on plane ribbon graphs; the report carries the plane flag
    and every unicycle whose orbit misses its reversal.
    """
    g = rg.graph
    unicycles = all_unicycles(g)
    misses = []
    for u in unicycles:
        orbit = set(unicycle_orbit(rg, u, 2 * len(g.edges) + 1))
        target = reverse_unicycle(g, u)
        if Unicycle(target.rotors, u.chip) not in orbit:
            misses.append(u)
    return {
        "plane": rg.is_plane(),
        "unicycles": len(unicycles),
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


def _configs_along(rg: RibbonGraph, tree, c, s, steps):
    rotors = tree_to_rotors(rg.graph, tree, s).as_dict()
    configs = [dict(rotors)]
    for st in steps:
        rotors[st.rotated_vertex] = st.new_rotor
        configs.append(dict(rotors))
    return configs


def check_cycle_reversal(rg: RibbonGraph, tree, c: str, s: str) -> list[str]:
    """Traced-run checks for routing a chip between adjacent vertices.

    Inspects one run of the routing loop on (tree, c - s) and reports every
    violation of:

    * no directed edge is crossed twice;
    * every directed cycle appearing mid-run also appears reversed in some
      configuration of the run;
    * when the tree carries a rotor path from c to s and some non-tree edge
      joins c and s, the chip stays off the right side of that cycle;
    * on the induced sink-free run, the chip crosses every edge left of the
      starting cycle in both directions and no edge to its right.
    """
    g = rg.graph
    fs = [e for e in g.edges if set(g.ends(e)) == {c, s}]
    if not fs:
        raise ValueError("c and s must be adjacent")
    tree = frozenset(tree)
    out, steps = route_chip(rg, tree, c, s, trace=True)
    configs = _configs_along(rg, tree, c, s, steps)
    violations = list(check_no_repeated_crossing(steps))

    for i, cfg in enumerate(configs):
        for cyc in all_cycles(g, cfg):
            reverse = {(g.other(e, v)): e for v, e in cyc}
            if not any(
                all(other.get(w) == e for w, e in reverse.items()) for other in configs
            ):
                violations.append(f"cycle at step {i} never reverses: {sorted(cyc)}")

    # right-side exclusion for the cycle closed by a non-tree c-s edge
    rho0 = configs[0]
    path = _rotor_path(g, rho0, c, s)
    if path is not None:
        for f in fs:
            if f in tree:
                continue
            cyc = path + [(s, f)]
            sides = classify_sides(rg, cyc)
            crossed = {e for e, _, _ in crossings(steps)}
            for e in crossed & sides.right_edges:
                violations.append(f"chip crossed right-side edge {e}")

    # sink-free run: left edges both ways, right edges never.  A tree edge
    # joining c and s would close a degenerate bidirected 2-cycle whose
    # reversal is itself, so only non-tree closures are informative.
    for f in fs:
        if f not in tree:
            violations += _check_unicycle_leftright(rg, tree, c, s, f)
    return violations


def _rotor_path(g, rotor_map, c, s):
    path = []
    x = c
    seen = set()
    while x != s:
        if x in seen or x not in rotor_map:
            return None
        seen.add(x)
        e = rotor_map[x]
        path.append((x, e))
        x = g.other(e, x)
    return path


def _check_unicycle_leftright(rg: RibbonGraph, tree, c, s, f) -> list[str]:
    g = rg.graph
    rotors = tree_to_rotors(g, tree, s).as_dict()
    rotors[s] = f
    u = make_unicycle(g, rotors, c)
    target = reverse_unicycle(g, u)
    sides = classify_sides(rg, unicycle_cycle(g, u))
    forward, backward = set(), set()
    cur = u
    for _ in range(2 * len(g.edges) + 1):
        if cur == target:
            break
        e = rg.next_edge(cur.chip, cur.as_dict()[cur.chip])
        forward.add((e, cur.chip))
        backward.add((e, g.other(e, cur.chip)))
        cur = unicycle_step(rg, cur)
    else:
        return [f"reversal of the starting cycle never reached from chip {c}"]
    crossed = {e for e, _ in forward}
    bad = []
    for e in sides.right_edges & crossed:
        bad.append(f"sink-free run crossed right-side edge {e}")
    for e in sides.left_edges:
        u1, v1 = g.ends(e)
        if not ((e, u1) in forward and (e, v1) in forward):
            bad.append(f"sink-free run missed a direction of left-side edge {e}")
    return bad
