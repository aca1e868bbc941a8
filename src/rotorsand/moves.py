"""Single-step and source-turn moves, tree-to-tree paths, telescope graphs.

A pair (c - s, T) is single-step when routing one chip from c to s finishes
after a single rotor turn, which swaps one tree edge for one non-tree edge.
When c is additionally a leaf of T the pair is a source-turn pair.  On any
2-connected ribbon graph, source-turn moves alone connect every pair of
spanning trees; the breadth-first searches below realize such paths and the
ribbon-free leaf-swap variant, resuming one search per start tree, and all
searches on one map share one table of each tree's moves.

Telescope graphs are the parameterized plane family where every single-step
tree has a spanning-tree complement; they are generated here with their
standard labels (c, z0..zn, w{i}_{j}, g, f, e{i}/he{i}, h{i}_{j}/hh{i}_{j}).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .errors import InvariantViolation
from .multigraph import Multigraph
from .ribbon import RibbonGraph
from .rotor import tree_to_rotors


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


def classify_pair(rg: RibbonGraph, tree, c: str, s: str):
    """Classify (c - s, T) as a single-step, source-turn or reverse pair.

    Single-step detection follows the rotor criterion: with g the rotor of c
    toward s and f the next edge counterclockwise, the routing stops after
    one turn exactly when f joins c to s.  Reverse pairs are recognized from
    the tree edge joining c and s, whose predecessor in the order at s must
    step back in.  A pair that is simultaneously single-step and reverse
    reports as single-step.  Returns None when the pair is none of the three.
    """
    g = rg.graph
    tree = frozenset(tree)
    if c == s:
        return None
    out_edge = tree_to_rotors(g, tree, s)[c]
    nxt = rg.next_edge(c, out_edge)
    if set(g.ends(nxt)) == {c, s}:
        # one rotor turn and the chip lands on the sink; a degree-1 source
        # turns its only edge full circle, a degenerate but valid pair
        leaf = sum(1 for e in tree if c in g.ends(e)) == 1
        kind = "source-turn" if leaf else "single-step"
        return MovePair(kind, c, s, tree, out_edge, nxt)
    # reverse single-step: some tree edge f joins s and c, and removing it
    # while adding the edge before it at s gives a single-step pair back
    tf = [e for e in tree if set(g.ends(e)) == {c, s}]
    if tf:
        f = tf[0]
        gg = rg.prev_edge(s, f)
        if gg != f and gg not in tree:
            swapped = tree - {f} | {gg}
            if g.is_spanning_tree(swapped):
                back = classify_pair(rg, swapped, s, c)
                if (
                    back is not None
                    and back.kind in ("single-step", "source-turn")
                    and back.removed == gg
                    and back.added == f
                ):
                    return MovePair("reverse-single-step", c, s, tree, f, gg)
    return None


def is_rotatable(rg: RibbonGraph, tree, root: str, c: str):
    """Whether one rotor turn at c keeps the configuration acyclic.

    Returns (flag, removed, added); source rotatability additionally needs
    c to be a leaf, which callers check via the returned edges.  Only a
    cycle through c can appear, so the turn is acyclic exactly when the
    rotors lead from the new rotor's far end to the root without passing c.
    """
    g = rg.graph
    if c == root:
        raise ValueError("the root carries no rotor")
    rotors = tree_to_rotors(g, tree, root)
    added = rg.next_edge(c, rotors[c])
    x = g.other(added, c)
    while x not in (root, c):
        x = g.other(rotors[x], x)
    return x == root, rotors[c], added


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


@lru_cache(maxsize=1)
def _neighbours(space, step) -> dict:
    """Each tree a search on space has expanded, with the (move, tree) pairs
    step gave it.

    Every search on the map, from any start, reads and fills this one table,
    so each tree's moves are generated once per map and move kind; only the
    last map and kind are kept.  Every tree in it was reached from a
    checked start, so it is a spanning tree.
    """
    return {}


@lru_cache(maxsize=1)
def _search(space, g: Multigraph, step, start: frozenset) -> tuple:
    """The state (back-pointers, frontier) of one breadth-first search from start.

    back maps each tree reached to (move, previous tree).  _tree_path resumes
    the search only until its goal is reached, so a single query stops as
    early as a search of its own, and the moves sweep, which asks for every
    goal of one start before the next, runs one search per start.  The start
    is checked here, once per search, unless the neighbour table holds it;
    every tree reached is then a spanning tree of g, so _tree_path checks
    only goals that neither the search nor the table holds.
    """
    if start not in _neighbours(space, step) and not g.is_spanning_tree(start):
        raise ValueError("inputs must be spanning trees")
    return {start: None}, deque([start])


def _tree_path(space, g: Multigraph, start, goal, kind: str, step) -> list:
    """The moves of a shortest path from tree start to tree goal of g.

    step(space, t) yields (move, tree) pairs in a fixed order, so the search
    sets each back-pointer once, and the path does not depend on what earlier
    queries from the same start have searched.  Each tree's pairs are read
    from the map's neighbour table, generated on first expansion.
    """
    if not g.is_two_connected():
        raise ValueError(f"{kind} reachability needs a 2-connected graph")
    back, frontier = _search(space, g, step, frozenset(start))
    table = _neighbours(space, step)
    goal = frozenset(goal)
    if goal not in back and goal not in table and not g.is_spanning_tree(goal):
        raise ValueError("inputs must be spanning trees")
    try:
        while frontier and goal not in back:
            t = frontier.popleft()
            pairs = table.get(t)
            if pairs is None:
                pairs = table[t] = tuple(step(space, t))
            for mv, t2 in pairs:
                if t2 not in back:
                    back[t2] = (mv, t)
                    frontier.append(t2)
    except BaseException:
        _search.cache_clear()  # a half-expanded tree must not be resumed
        raise
    if goal not in back:
        raise InvariantViolation(f"no {kind} path found on a 2-connected graph")
    moves = []
    while back[goal] is not None:
        mv, goal = back[goal]
        moves.append(mv)
    moves.reverse()
    return moves


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


def is_single_step_tree(rg: RibbonGraph, tree, labels: TelescopeLabels) -> bool:
    """One of f, g on the tree plus an x-to-s path avoiding c.

    Equivalent to (c - s, T) being single-step from g to f or (s - c, T) a
    reverse pair from f to g; the cross-check against classify_pair is in
    the tests.  The tree holds one x-to-s path, the walk from x along the
    rotors toward s.
    """
    g = rg.graph
    tree = frozenset(tree)
    if (labels.f in tree) == (labels.g in tree):
        return False
    rotors = tree_to_rotors(g, tree, labels.s)
    v = labels.x
    while v != labels.s:
        if v == labels.c:
            return False
        v = g.other(rotors[v], v)
    return True


def single_step_trees(rg: RibbonGraph, labels: TelescopeLabels) -> list[frozenset]:
    return [t for t in rg.graph.spanning_trees() if is_single_step_tree(rg, t, labels)]


def complements_are_trees(rg: RibbonGraph, labels: TelescopeLabels) -> bool:
    """Does every single-step tree have a spanning-tree complement?"""
    g = rg.graph
    all_edges = set(g.edges)
    return all(
        g.is_spanning_tree(all_edges - t) for t in single_step_trees(rg, labels)
    )


def matches_telescope(rg: RibbonGraph, labels: TelescopeLabels) -> bool:
    """Is (rg, labels) one of the generated telescope graphs?

    Candidates are pinned by the edge count; an isomorphism must respect all
    five labels to count.
    """
    g = rg.graph
    m = len(g.edges)
    if m < 2 or m % 2 or m != 2 * len(g.vertices) - 2:
        return False
    for n in range(0, (m - 2) // 2 + 1):
        rest = (m - 2 - 2 * n) // 2
        if 2 + 2 * n + 2 * rest != m:
            continue
        for ks in _compositions(rest, n + 1):
            cand, clab = telescope(n, ks)
            for iso in cand.isomorphisms(rg):
                if (
                    iso.vertex_map[clab.c] == labels.c
                    and iso.vertex_map[clab.s] == labels.s
                    and iso.vertex_map[clab.x] == labels.x
                    and iso.edge_map[clab.f] == labels.f
                    and iso.edge_map[clab.g] == labels.g
                ):
                    return True
    return False


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def verify_telescope_equivalence(rg: RibbonGraph, labels: TelescopeLabels) -> bool:
    """Check both directions: telescope shape iff complements stay trees."""
    return matches_telescope(rg, labels) == complements_are_trees(rg, labels)
