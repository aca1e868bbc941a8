"""The telescope theorem's checks: telescope shape iff complements stay trees.

A labelled plane map is one of the telescope graphs exactly when every
single-step tree has a spanning-tree complement.  A pair (c - s, T) is
single-step when routing one chip from c to s finishes after a single rotor
turn (``classify_pair``, which also names source-turn and reverse pairs).
On a labelled map the single-step trees are read off directly
(``is_single_step_tree``), and ``verify_telescope_equivalence`` compares the
complement condition with a search through the generated telescope graphs
(``moves.telescope``).  Only ``verify telescope`` runs these checks, so no
other command loads this module.
"""

from __future__ import annotations

from .moves import MovePair, TelescopeLabels, telescope
from .ribbon import RibbonGraph
from .rotor import tree_to_rotors


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
