"""Exhaustive generation of small connected multigraphs and ribbon structures.

Graphs are produced up to graph isomorphism by edge augmentation on integer
endpoint pairs: each candidate is keyed by its canonical encoding, and only
the first candidate of each key becomes a ``Multigraph``.  Ribbon structures
are produced up to ribbon isomorphism on the dart rotation sigma alone: each
member of the rotation product is filtered by its face count and keyed by
its canonical code, and only the first member of each code becomes a
``RibbonGraph``.  Two symmetry normalizations keep the raw rotation product
tame: edges of a parallel class, and pendant edges to interchangeable leaf
twins, may be forced to appear in increasing id order at one designated
endpoint, because permuting them extends to a graph automorphism.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations, product
from operator import itemgetter

from .multigraph import Multigraph


def _relabel_sorted(pairs):
    """The Multigraph on sorted (low, high) pairs over 0..n-1: v0.., e0.. labels."""
    vs = [f"v{i}" for i in range(1 + max(b for _, b in pairs))]
    return Multigraph(vs, {f"e{i}": (vs[a], vs[b]) for i, (a, b) in enumerate(pairs)})


def _graph_key(n: int, pairs) -> tuple:
    """Minimum edge-multiset encoding over degree-refined vertex bijections.

    The graph has vertices 0..n-1 and one (low, high) pair per edge; the key
    is (n, least sorted pair list) over the orders within the colour blocks.
    """
    around = [[] for _ in range(n)]
    for a, b in pairs:
        around[a].append(b)
        around[b].append(a)
    colors = [(len(ws),) for ws in around]
    for _ in range(n):
        nxt = [(colors[v], tuple(sorted(colors[w] for w in around[v]))) for v in range(n)]
        stable = len(set(nxt)) == len(set(colors))
        colors = nxt
        if stable:
            break
    classes = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    blocks = [permutations(classes[c]) for c in sorted(classes)]
    ix = [0] * n
    best = None
    for combo in product(*blocks):
        pos = 0
        for perm in combo:
            for v in perm:
                ix[v] = pos
                pos += 1
        enc = tuple(sorted((ix[a], ix[b]) if ix[a] < ix[b] else (ix[b], ix[a]) for a, b in pairs))
        if best is None or enc < best:
            best = enc
    return (n, best)


def _augmentations(n: int, pairs: tuple):
    """Each one-edge extension as (n, sorted pairs): a new edge between two
    vertices, or one to a new leaf n, in order of its endpoints."""
    for i in range(n):
        for j in range(i + 1, n + 1):
            yield n + (j == n), tuple(sorted(pairs + ((i, j),)))


def connected_multigraphs(max_edges: int, min_edges: int = 1) -> tuple[Multigraph, ...]:
    """All connected loopless multigraphs with min..max edges, up to isomorphism.

    Augmentation search: every (m+1)-edge connected multigraph arises from an
    m-edge one by adding an edge between existing vertices or hanging a new
    leaf, so level-by-level growth with canonical deduplication is exhaustive.
    """
    return tuple(
        g for m in range(min_edges, max_edges + 1) for g in _multigraph_level(m)
    )


@lru_cache(maxsize=None)
def _multigraph_level(m: int) -> tuple[Multigraph, ...]:
    return tuple(_relabel_sorted(pairs) for _, pairs in _pair_level(m))


@lru_cache(maxsize=None)
def _pair_level(m: int) -> tuple[tuple[int, tuple], ...]:
    """The m-edge classes as (n, sorted pairs), the first candidate of each, by key."""
    if m < 1:
        return ()
    if m == 1:
        return ((2, ((0, 1),)),)
    nxt = {}
    for n, pairs in _pair_level(m - 1):
        for cand in _augmentations(n, pairs):
            nxt.setdefault(_graph_key(*cand), cand)
    return tuple(nxt[k] for k in sorted(nxt))


def _parallel_classes(g: Multigraph):
    by_pair = {}
    for e in g.edges:
        by_pair.setdefault(g.ends(e), []).append(e)
    return [(pair, es) for pair, es in by_pair.items() if len(es) >= 2]


def _leaf_twin_classes(g: Multigraph):
    """Pendant edges hanging interchangeable degree-1 twins off one center."""
    by_center = {}
    for v in g.vertices:
        if g.degree(v) == 1:
            e = g.incident(v)[0]
            center = g.other(e, v)
            if g.degree(center) > 1 or center > v:
                by_center.setdefault(center, []).append(e)
    return [(c, sorted(es)) for c, es in by_center.items() if len(es) >= 2]


def _is_increasing_subsequence(seq, members):
    sub = [e for e in seq if e in members]
    return sub == sorted(sub)


def _rotation_product(g: Multigraph):
    """The normalised rotation product as (orders, sigma), in product order.

    orders holds one anchored cyclic order per vertex, symmetry-normalized
    per the module docstring, and sigma is the dart rotation that
    ``RibbonGraph(g, dict(zip(g.vertices, orders)))`` builds.
    """
    from .ribbon import dart_numbering  # the multigraph levels never load ribbon

    constraints = {v: [] for v in g.vertices}
    for (u, w), es in _parallel_classes(g):
        constraints[u].append(frozenset(es))
    for center, es in _leaf_twin_classes(g):
        constraints[center].append(frozenset(es))

    dart, _ = dart_numbering(g)
    slots = []  # darts in the order their successors are listed below
    per_vertex, successors = [], []
    for v in g.vertices:
        inc = sorted(g.incident(v))
        if not inc:
            raise ValueError("isolated vertex has no rotation")
        slots += (dart[e, v] for e in inc)
        head, rest = inc[0], inc[1:]
        orders, nexts = [], []
        for perm in permutations(rest):
            seq = (head,) + perm
            if all(_is_increasing_subsequence(seq, cl) for cl in constraints[v]):
                after = dict(zip(seq, seq[1:] + seq[:1]))
                orders.append(seq)
                nexts.append(tuple(dart[after[e], v] for e in inc))
        per_vertex.append(orders)
        successors.append(nexts)

    scatter = itemgetter(*sorted(range(len(slots)), key=slots.__getitem__))
    for orders, nexts in zip(product(*per_vertex), product(*successors)):
        yield orders, scatter(tuple(chain.from_iterable(nexts)))


@lru_cache(maxsize=4096)
def rotation_systems(g: Multigraph, plane_only: bool = False) -> tuple[RibbonGraph, ...]:
    """All ribbon structures on g up to ribbon isomorphism, deterministic order.

    Each member of the rotation product is filtered (faces = 2 - V + E when
    plane_only) and keyed by its canonical code on sigma alone; a
    ``RibbonGraph`` is built only for the first member of each code.
    """
    from .ribbon import RibbonGraph, canonical_labelling, face_orbits

    vcount = len(g.vertices)
    plane_faces = 2 - vcount + len(g.edges)
    found = {}
    for orders, sigma in _rotation_product(g):
        if plane_only and len(face_orbits(sigma)) != plane_faces:
            continue
        found.setdefault(canonical_labelling(sigma, vcount)[0], orders)
    return tuple(RibbonGraph(g, dict(zip(g.vertices, found[k]))) for k in sorted(found))


def ribbon_graphs(max_edges: int, min_edges: int = 1, plane_only: bool = False):
    """Every ribbon graph in the size range, up to ribbon isomorphism."""
    out = []
    for g in connected_multigraphs(max_edges, min_edges):
        out.extend(rotation_systems(g, plane_only=plane_only))
    return out


def plane_graphs(max_edges: int, min_edges: int = 1, two_connected: bool = False):
    """Every plane ribbon graph in the size range, up to ribbon isomorphism."""
    out = []
    for g in connected_multigraphs(max_edges, min_edges):
        if two_connected and not g.is_two_connected():
            continue
        out.extend(rotation_systems(g, plane_only=True))
    return out
