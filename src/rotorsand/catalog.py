"""Exhaustive generation of small connected multigraphs and ribbon structures.

Graphs are produced up to graph isomorphism by edge augmentation on integer
endpoint pairs: each candidate is keyed by its canonical encoding, and only
the first candidate of each key becomes a ``Multigraph``.  The 2-connected
catalog tests its candidates with the integer cut-vertex kernel
``multigraph.cut_points`` before it keys them.  Ribbon structures
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

from .multigraph import Multigraph, cut_points


def _relabel_sorted(pairs):
    """The Multigraph on sorted (low, high) pairs over 0..n-1: v0.., e0.. labels."""
    vs = [f"v{i}" for i in range(1 + max(b for _, b in pairs))]
    return Multigraph(vs, {f"e{i}": (vs[a], vs[b]) for i, (a, b) in enumerate(pairs)})


def _graph_key(n: int, pairs) -> tuple:
    """Minimum edge-multiset encoding over degree-refined vertex bijections.

    The graph has vertices 0..n-1 and one (low, high) pair per edge; the key
    is (n, least sorted list of the codes low * n + high, which sort like the
    pairs) over the orders within the colour blocks.  Colours are renumbered
    by rank after each refinement round, which keeps blocks and their order.
    """
    around = [[] for _ in range(n)]
    for a, b in pairs:
        around[a].append(b)
        around[b].append(a)
    colors = [len(ws) for ws in around]
    for _ in range(n):
        nxt = [(colors[v], tuple(sorted(colors[w] for w in around[v]))) for v in range(n)]
        rank = {c: r for r, c in enumerate(sorted(set(nxt)))}
        stable = len(rank) == len(set(colors))
        colors = [rank[c] for c in nxt]
        if stable:
            break
    blocks = [[] for _ in rank]
    for v in range(n):
        blocks[colors[v]].append(v)
    cell = [[i * n + j if i < j else j * n + i for j in range(n)] for i in range(n)]
    ix = [0] * n
    best = None
    for combo in product(*map(permutations, blocks)):
        pos = 0
        for perm in combo:
            for v in perm:
                ix[v] = pos
                pos += 1
        enc = sorted([cell[ix[a]][ix[b]] for a, b in pairs])
        if best is None or enc < best:
            best = enc
    return (n, tuple(best))


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
def _pair_level(m: int, *, two_connected: bool = False) -> tuple[tuple[int, tuple], ...]:
    """The m-edge classes as (n, sorted pairs), the first candidate of each, by key.

    With two_connected, only the 2-connected classes, with the same
    representatives in the same order: each candidate is tested before it
    is keyed, and the test is an isomorphism invariant that keeps their order.
    """
    if m < 1:
        return ()
    if m == 1:
        return ((2, ((0, 1),)),)
    nxt = {}
    # distinct parents can offer the same candidate: key each one once
    for cand in dict.fromkeys(c for n, ps in _pair_level(m - 1) for c in _augmentations(n, ps)):
        if not two_connected or _two_connected(*cand):
            nxt.setdefault(_graph_key(*cand), cand)
    return tuple(nxt[k] for k in sorted(nxt))


def _two_connected(n: int, pairs) -> bool:
    """The candidate test: no cut vertex (Multigraph.is_two_connected's kernel)."""
    return next(cut_points(n, pairs), None) is None


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


@lru_cache(maxsize=None)
def _successor_orders(k: int, classes: tuple) -> tuple[tuple[int, ...], ...]:
    """Cyclic orders of positions 0..k-1 from 0 on, in permutation order, as
    successor tuples; each class, a tuple of increasing positions, must
    appear in increasing order.  Vertices of one shape share them."""
    out = []
    for perm in permutations(range(1, k)):
        cyc = (0, *perm)
        if all(tuple(i for i in cyc if i in cl) == cl for cl in classes):
            succ = [0] * k
            for a, b in zip(cyc, perm):
                succ[a] = b
            out.append(tuple(succ))
    return tuple(out)


def _rotation_product(g: Multigraph):
    """The dart rotations sigma of the normalised rotation product, in product order.

    Each vertex lists its incident edges from the smallest id on, in every
    order that the symmetry normalizations of the module docstring allow,
    as position classes over its sorted incident edges (_successor_orders).
    """
    from .ribbon import dart_numbering  # the multigraph levels never load ribbon

    constraints = {v: [] for v in g.vertices}
    for (u, w), es in _parallel_classes(g):
        constraints[u].append(es)
    for center, es in _leaf_twin_classes(g):
        constraints[center].append(es)

    dart, _ = dart_numbering(g)
    slots = []  # darts in the order their successors are listed below
    successors = []
    for v in g.vertices:
        inc = sorted(g.incident(v))
        if not inc:
            raise ValueError("isolated vertex has no rotation")
        darts = [dart[e, v] for e in inc]
        slots += darts
        classes = tuple(tuple(sorted(map(inc.index, es))) for es in constraints[v])
        orders = _successor_orders(len(inc), classes)
        successors.append([tuple(map(darts.__getitem__, succ)) for succ in orders])

    scatter = itemgetter(*sorted(range(len(slots)), key=slots.__getitem__))
    for nexts in product(*successors):
        yield scatter(tuple(chain.from_iterable(nexts)))


def _face_count(sigma) -> int:
    """The number of cycles of the face permutation d -> sigma[d] ^ 1, in one pass."""
    seen = [False] * len(sigma)
    count = 0
    for start in range(len(sigma)):
        if not seen[start]:
            count += 1
            d = start
            while not seen[d]:
                seen[d] = True
                d = sigma[d] ^ 1
    return count


@lru_cache(maxsize=4096)
def rotation_systems(g: Multigraph, plane_only: bool = False) -> tuple[RibbonGraph, ...]:
    """All ribbon structures on g up to ribbon isomorphism, deterministic order.

    Each member of the rotation product is filtered (faces = 2 - V + E when
    plane_only) and keyed by its canonical code on sigma alone; a
    ``RibbonGraph`` is built, unchecked, only for the first member of each code.
    """
    from .ribbon import RibbonGraph, canonical_labelling

    vcount = len(g.vertices)
    plane_faces = 2 - vcount + len(g.edges)
    found = {}
    for sigma in _rotation_product(g):
        if plane_only and _face_count(sigma) != plane_faces:
            continue
        found.setdefault(canonical_labelling(sigma, vcount)[0], sigma)
    return tuple(RibbonGraph.from_sigma(g, found[k]) for k in sorted(found))


def ribbon_graphs(max_edges: int, min_edges: int = 1):
    """Every ribbon graph in the size range, up to ribbon isomorphism."""
    out = []
    for g in connected_multigraphs(max_edges, min_edges):
        out.extend(rotation_systems(g))
    return out


def plane_graphs(max_edges: int, min_edges: int = 1, two_connected: bool = False):
    """Every plane ribbon graph in the size range, up to ribbon isomorphism.

    With two_connected, only those whose graph is 2-connected, in the same
    order; the lower levels, complete as the top one's parents, are tested
    before any Multigraph is built, and the top level before it is keyed.
    """
    if not two_connected:
        graphs = connected_multigraphs(max_edges, min_edges)
    else:
        levels = [_pair_level(m) for m in range(min_edges, max_edges)]
        if min_edges <= max_edges:
            levels.append(_pair_level(max_edges, two_connected=True))
        graphs = [_relabel_sorted(ps) for level in levels for n, ps in level if _two_connected(n, ps)]
    out = []
    for g in graphs:
        out.extend(rotation_systems(g, plane_only=True))
    return out
