"""Source-turn moves, tree-to-tree paths, telescope graphs.

A source-turn move takes a leaf c of a spanning tree T: one turn of c's
rotor swaps its only tree edge for the next edge counterclockwise, and a
chip routed from c stops at that edge's far end after the single turn.  On
any 2-connected ribbon graph, source-turn moves alone connect every pair of
spanning trees; the breadth-first searches below realize such paths and the
ribbon-free leaf-swap variant.  A one-shot path searches until its goal; the
moves sweep (verify_paths) runs one full search per start tree, reading one
table of each tree's moves per kind, and keeps nothing once it returns.

Telescope graphs are the parameterized plane family where every single-step
tree has a spanning-tree complement; they are generated here with their
standard labels (c, z0..zn, w{i}_{j}, g, f, e{i}/he{i}, h{i}_{j}/hh{i}_{j}),
and ``rotorsand.telescopes`` checks that characterization.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .errors import InvariantViolation
from .multigraph import Multigraph
from .ribbon import RibbonGraph


class MovePair(NamedTuple):
    kind: str  # "single-step", "source-turn", or "reverse-single-step"
    c: str
    s: str
    tree: frozenset
    removed: str  # edge leaving the tree
    added: str  # edge entering the tree

    @property
    def result(self) -> frozenset:
        return self.tree - {self.removed} | {self.added}


def source_turn_neighbors(rg: RibbonGraph, tree):
    """All trees one source-turn move away, with their moves."""
    g = rg.graph
    tree = frozenset(tree)
    out = []
    for c in g.vertices:
        inc = [e for e in tree if c in g.ends(e)]
        if len(inc) != 1:
            continue
        gg = inc[0]
        f = rg.next_edge(c, gg)
        if f == gg:
            continue
        s = g.other(f, c)
        out.append(MovePair("source-turn", c, s, tree, gg, f))
    return out


def source_turn_path(rg: RibbonGraph, start, goal) -> list[MovePair]:
    """A shortest source-turn move sequence from start to goal.

    Guaranteed to exist on 2-connected ribbon graphs; a failed search on one
    is an invariant violation rather than a value.
    """
    return _tree_path(rg, rg.graph, start, goal, "source-turn", _source_turns)


def leaf_swap_path(g: Multigraph, start, goal) -> list[frozenset]:
    """Trees from start to goal, each step removing a leaf edge, adding one back.

    Needs no ribbon structure at all; 2-connectedness guarantees success.
    """
    return [frozenset(start)] + _tree_path(g, g, start, goal, "leaf-swap", _leaf_swaps)


def _source_turns(rg: RibbonGraph, t):
    for mv in source_turn_neighbors(rg, t):
        yield mv, mv.result


def _leaf_swaps(g: Multigraph, t):
    for c in g.vertices:
        inc = [e for e in t if c in g.ends(e)]
        if len(inc) != 1:
            continue
        for f in g.incident(c):
            if f != inc[0] and f not in t:
                t2 = t - {inc[0]} | {f}
                yield t2, t2


def _search(space, step, start: frozenset, table: dict, goal=None) -> dict:
    """The back-pointers of a breadth-first search from start, stopped at goal.

    Each tree reached maps to (move, previous tree), start to None, in the
    order reached.  step(space, t) yields (move, tree) pairs in a fixed order,
    so a stopped search agrees with a full one on every tree it reached.
    table holds the pairs of each tree expanded, read before step is asked.
    """
    back = {start: None}
    frontier = deque([start])
    while frontier and goal not in back:
        t = frontier.popleft()
        pairs = table.get(t)
        if pairs is None:
            pairs = table[t] = tuple(step(space, t))
        for mv, t2 in pairs:
            if t2 not in back:
                back[t2] = (mv, t)
                frontier.append(t2)
    return back


def _tree_path(space, g: Multigraph, start, goal, kind: str, step) -> list:
    """The moves of a shortest path from tree start to tree goal of g."""
    if not g.is_two_connected():
        raise ValueError(f"{kind} reachability needs a 2-connected graph")
    start, goal = frozenset(start), frozenset(goal)
    if not (g.is_spanning_tree(start) and g.is_spanning_tree(goal)):
        raise ValueError("inputs must be spanning trees")
    back = _search(space, step, start, {}, goal)
    if goal not in back:
        raise InvariantViolation(f"no {kind} path found on a 2-connected graph")
    moves = []
    while back[goal] is not None:
        mv, goal = back[goal]
        moves.append(mv)
    moves.reverse()
    return moves


def verify_paths(rg: RibbonGraph) -> tuple:
    """Source-turn paths, then leaf-swap paths, between every ordered tree pair.

    One full search per start tree and move kind; the searches of one kind
    share a table, so each tree's moves are generated once.  Back-pointers
    are judged in discovery order: a tree counts as reached when its move
    leaves a tree already reached from the start and lands on it, so every
    step of every path is checked.  Returns (checked, violations, notes).
    """
    g = rg.graph
    if not g.is_two_connected():
        raise ValueError("source-turn reachability needs a 2-connected graph")
    trees = g.spanning_trees()

    def turns(mv, t, t2):  # a source turn names the tree it leaves
        return mv.tree == t and mv.result == t2

    def swaps(mv, t, t2):  # a leaf swap's move is the tree it makes
        return mv == t2

    kinds = (
        ("source-turn", "", "bad path", rg, _source_turns, turns),
        ("leaf-swap", "leaf swap: ", "bad leaf path", g, _leaf_swaps, swaps),
    )
    checked = 0
    violations = []
    for kind, prefix, bad, space, step, leads in kinds:
        table = {}
        for t1 in trees:
            back = _search(space, step, t1, table)
            reached = {t1}
            for t2, link in back.items():
                if link is not None and link[1] in reached and leads(link[0], link[1], t2):
                    reached.add(t2)
            for t2 in trees:
                checked += 1
                if t2 in reached:
                    continue
                missing = f"{prefix}no {kind} path found on a 2-connected graph"
                error = bad if t2 in back else missing
                violations.append({"pair": [sorted(t1), sorted(t2)], "error": error})
    return checked, violations, []


# -- telescope graphs ----------------------------------------------------------


class TelescopeLabels(NamedTuple):
    c: str
    s: str
    x: str
    f: str
    g: str


def telescope(n: int, ks) -> tuple[RibbonGraph, TelescopeLabels]:
    """The plane telescope graph with n+1 stages and ks cross vertices.

    Vertices: c on top, a chain z0..zn (z0 = x, zn = s), and for each stage i
    the degree-2 vertices w{i}_{j} joined to z{i} and c.  Edges: g from c to
    z0, f from zn to c, parallel pairs e{i}/he{i} along the chain, and rungs
    h{i}_{j}/hh{i}_{j}.  The rotation is the unique planar one (up to ribbon
    isomorphism) in which f follows g directly in the cyclic order at c.
    """
    ks = list(ks)
    if n < 0 or len(ks) != n + 1 or any(k < 0 for k in ks):
        raise ValueError("need n >= 0 and a vector of n+1 nonnegative counts")
    zs = [f"z{i}" for i in range(n + 1)]
    vertices = ["c"] + zs
    edges = {"g": ("c", zs[0]), "f": (zs[n], "c")}
    for i in range(1, n + 1):
        edges[f"e{i}"] = (zs[i - 1], zs[i])
        edges[f"he{i}"] = (zs[i - 1], zs[i])
    for i, k in enumerate(ks):
        for j in range(1, k + 1):
            w = f"w{i}_{j}"
            vertices.append(w)
            edges[f"h{i}_{j}"] = (zs[i], w)
            edges[f"hh{i}_{j}"] = (w, "c")
    g = Multigraph(vertices, edges)

    rotation = {}
    hats = [f"hh{i}_{j}" for i in range(n, -1, -1) for j in range(ks[i], 0, -1)]
    rotation["c"] = ["g", "f"] + hats
    for i in range(n + 1):
        rungs = [f"h{i}_{j}" for j in range(1, ks[i] + 1)]
        before = "g" if i == 0 else f"e{i}"
        after = "f" if i == n else f"e{i + 1}"
        seq = [before] + rungs + [after]
        if i == n and i == 0:
            rotation[zs[i]] = seq  # g ... f around the only chain vertex
        elif i == 0:
            rotation[zs[i]] = seq + ["he1"]
        elif i == n:
            rotation[zs[i]] = seq + [f"he{i}"]
        else:
            rotation[zs[i]] = seq + [f"he{i + 1}", f"he{i}"]
    for i, k in enumerate(ks):
        for j in range(1, k + 1):
            rotation[f"w{i}_{j}"] = [f"h{i}_{j}", f"hh{i}_{j}"]

    rg = RibbonGraph(g, rotation)
    if not rg.is_plane():
        raise InvariantViolation("telescope construction lost planarity")
    if rg.next_edge("c", "g") != "f":
        raise InvariantViolation("telescope rotation at c must run g then f")
    return rg, TelescopeLabels("c", zs[n], zs[0], "f", "g")
