import hashlib
import json
from itertools import chain, combinations_with_replacement, permutations, product
from operator import itemgetter

from rotorsand import catalog
from rotorsand.catalog import (
    connected_multigraphs,
    plane_graphs,
    ribbon_graphs,
    rotation_systems,
)
from rotorsand.multigraph import Multigraph, banana_graph, complete_graph, cycle_graph
from rotorsand.ribbon import RibbonGraph, canonical_labelling


def graph_canonical_key(g: Multigraph):
    """Minimum edge-multiset encoding over degree-refined vertex bijections.

    The catalog's key on string-labelled graphs, kept as the oracle of its
    integer kernel `catalog._graph_key`.
    """
    vs = g.vertices
    colors = {v: (g.degree(v),) for v in vs}
    for _ in range(len(vs)):
        nxt = {}
        for v in vs:
            around = sorted(colors[g.other(e, v)] for e in g.incident(v))
            nxt[v] = (colors[v], tuple(around))
        if len(set(nxt.values())) == len(set(colors.values())):
            colors = nxt
            break
        colors = nxt
    classes = {}
    for v in vs:
        classes.setdefault(colors[v], []).append(v)
    blocks = [classes[c] for c in sorted(classes)]
    best = None
    for perm_combo in product(*[permutations(b) for b in blocks]):
        ix = {}
        pos = 0
        for block, perm in zip(blocks, perm_combo):
            for v in perm:
                ix[v] = pos
                pos += 1
        enc = sorted(tuple(sorted((ix[a], ix[b]))) for a, b in (g.ends(e) for e in g.edges))
        enc = tuple(enc)
        if best is None or enc < best:
            best = enc
    return (len(vs), best)


def brute_connected_multigraphs(m):
    """Reference enumeration: all edge multisets on up to m+1 vertices,
    canonicalized by trying every vertex permutation."""
    found = set()
    for n in range(2, m + 2):
        pairs = list(combinations_with_replacement(range(n), 2))
        pairs = [p for p in pairs if p[0] != p[1]]
        for multi in combinations_with_replacement(pairs, m):
            used = {x for p in multi for x in p}
            if used != set(range(n)):
                continue
            g = Multigraph(
                [str(i) for i in range(n)],
                {f"e{k}": (str(a), str(b)) for k, (a, b) in enumerate(multi)},
            )
            if not g.is_connected():
                continue
            best = min(
                tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in multi))
                for perm in permutations(range(n))
            )
            found.add((n, best))
    return found


def level(listing, m: int):
    """The m-edge entries of a catalog listing, which runs by edge count."""
    return listing(m)[len(listing(m - 1)):]


def test_multigraph_counts_match_brute_force():
    for m in range(1, 6):
        ours = level(connected_multigraphs, m)
        assert len(ours) == len(brute_connected_multigraphs(m))


def test_int_key_matches_string_key_on_every_candidate():
    cands = [(2, ((0, 1),))]
    for m in range(1, 7):
        for n, pairs in catalog._pair_level(m):
            cands.extend(catalog._augmentations(n, pairs))
    assert len(cands) == 2278
    for n, pairs in cands:
        g = catalog._relabel_sorted(pairs)
        size, codes = catalog._graph_key(n, pairs)
        assert (size, tuple(divmod(c, n) for c in codes)) == graph_canonical_key(g)


def test_multigraph_enumeration_has_no_duplicates():
    keys = [graph_canonical_key(g) for g in connected_multigraphs(6)]
    assert len(keys) == len(set(keys))


def test_known_families_present():
    for m in range(1, 7):
        keys = {graph_canonical_key(g) for g in level(connected_multigraphs, m)}
        assert graph_canonical_key(banana_graph(m)) in keys
        assert graph_canonical_key(cycle_graph(m)) in keys
    assert graph_canonical_key(complete_graph(4)) in {
        graph_canonical_key(g) for g in level(connected_multigraphs, 6)
    }


def brute_rotation_count(g):
    """Count rotation systems up to ribbon isomorphism the slow way."""
    per_vertex = []
    for v in g.vertices:
        inc = sorted(g.incident(v))
        per_vertex.append([(inc[0],) + p for p in permutations(inc[1:])])
    seen = set()
    for combo in product(*per_vertex):
        rg = RibbonGraph(g, dict(zip(g.vertices, combo)))
        seen.add(rg.canonical_form())
    return len(seen)


def test_rotation_systems_match_unnormalized_enumeration():
    for g in connected_multigraphs(5):
        assert len(rotation_systems(g)) == brute_rotation_count(g)


def _is_increasing_subsequence(seq, members):
    sub = [e for e in seq if e in members]
    return sub == sorted(sub)


def rotation_product_reference(g: Multigraph):
    """The catalog's rotation product with an edge dict per vertex order,
    kept as the oracle of its position-level kernel `catalog._rotation_product`."""
    from rotorsand.ribbon import dart_numbering

    constraints = {v: [] for v in g.vertices}
    for (u, w), es in catalog._parallel_classes(g):
        constraints[u].append(frozenset(es))
    for center, es in catalog._leaf_twin_classes(g):
        constraints[center].append(frozenset(es))

    dart, _ = dart_numbering(g)
    slots = []  # darts in the order their successors are listed below
    successors = []
    for v in g.vertices:
        inc = sorted(g.incident(v))
        if not inc:
            raise ValueError("isolated vertex has no rotation")
        slots += (dart[e, v] for e in inc)
        head, rest = inc[0], inc[1:]
        nexts = []
        for perm in permutations(rest):
            seq = (head,) + perm
            if all(_is_increasing_subsequence(seq, cl) for cl in constraints[v]):
                after = dict(zip(seq, seq[1:] + seq[:1]))
                nexts.append(tuple(dart[after[e], v] for e in inc))
        successors.append(nexts)

    scatter = itemgetter(*sorted(range(len(slots)), key=slots.__getitem__))
    for nexts in product(*successors):
        yield scatter(tuple(chain.from_iterable(nexts)))


def test_rotation_product_matches_reference():
    members = 0
    for g in connected_multigraphs(6):
        got = list(catalog._rotation_product(g)[0])
        assert got == list(rotation_product_reference(g)), g.to_json()
        members += len(got)
    assert members == 2125


def test_sigma_code_matches_ribbon_labelling():
    members = 0
    for g in connected_multigraphs(5):
        for sigma in catalog._rotation_product(g)[0]:
            rg = RibbonGraph(g, RibbonGraph.from_sigma(g, sigma).rotation)
            assert sigma == rg.sigma
            code = canonical_labelling(sigma, len(g.vertices))[0]
            assert code == rg.canonical_labelling()[0]
            members += 1
    assert members == 267


def unpruned_rotation_systems(g: Multigraph, plane_only: bool):
    """rotation_systems without the residual shifts: every member of the
    product that is plane when plane_only is labelled."""
    n = len(g.vertices)
    found = {}
    for sigma in catalog._rotation_product(g)[0]:
        rg = RibbonGraph.from_sigma(g, sigma)
        if not plane_only or rg.is_plane():
            found.setdefault(canonical_labelling(sigma, n)[0], rg)
    return tuple(found[k] for k in sorted(found))


def test_pruned_rotation_systems_match_unpruned_labelling():
    shifted = 0
    for g in connected_multigraphs(6):
        _, shifts = catalog._rotation_product(g)
        for pi, after in shifts:
            assert after(pi) == tuple(range(len(pi)))
            assert all(pi[d ^ 1] == pi[d] ^ 1 for d in range(len(pi)))
        shifted += bool(shifts)
        for plane_only in (False, True):
            assert rotation_systems(g, plane_only) == unpruned_rotation_systems(g, plane_only)
    assert shifted == 108


def test_residual_shifts_skip_labellings(monkeypatch):
    # pinned, so that the pruning cannot switch off unseen: unpruned, the
    # 6-edge catalogs label all 2,125 members of the product, and the 714
    # plane ones
    from rotorsand import ribbon

    calls = []

    def counting(sigma, vertex_count):
        calls.append(sigma)
        return canonical_labelling(sigma, vertex_count)

    monkeypatch.setattr(ribbon, "canonical_labelling", counting)
    counts = []
    for plane_only in (False, True):
        calls.clear()
        uncached = rotation_systems.__wrapped__
        maps = [rg for g in connected_multigraphs(6) for rg in uncached(g, plane_only)]
        counts.append((len(maps), len(calls)))
    assert counts == [(699, 1047), (311, 408)]


def test_triple_edge_structures():
    systems = rotation_systems(banana_graph(3))
    assert len(systems) == 2
    genera = sorted(rg.euler_genus() for rg in systems)
    assert genera == [0, 1]


def test_plane_graphs_all_plane():
    for rg in plane_graphs(5):
        assert rg.is_plane()


def test_ribbon_counts_small():
    assert len(ribbon_graphs(1)) == 1
    assert len(level(ribbon_graphs, 2)) == 2
    assert len(level(ribbon_graphs, 3)) == 6
    assert len(level(plane_graphs, 3)) == 5


def test_two_connected_filter():
    for rg in plane_graphs(5, two_connected=True):
        assert rg.graph.is_two_connected()
    # complete: every 2-connected map, in catalog order, with its labels
    for m in range(1, 8):
        expected = [rg for rg in plane_graphs(m) if rg.graph.is_two_connected()]
        assert plane_graphs(m, two_connected=True) == expected
    gs = plane_graphs(8, two_connected=True)
    assert len(gs) == 222
    assert ribbon_digest(gs) == PLANE_2C_8_SHA256


# sha256 of ribbon_graphs(6) as a JSON pair: the to_json list, then the
# canonical_form list.  Pins the catalog's order, labels and canonical forms.
RIBBON_6_SHA256 = "2b764491a6489750866a1150c007d1b084e07b3667ca7366b1d87ca281ecce17"


def test_ribbon_catalog_pinned():
    assert ribbon_digest(ribbon_graphs(6)) == RIBBON_6_SHA256


# The same digest format for larger levels, and for the multigraph catalog
# the sha256 of the list of to_json() texts.
RIBBON_7_SHA256 = "7aa9b1ca214c5a8b2638374db259b83c919a2381d1e3b7b33324e3a67dac06cb"
PLANE_7_SHA256 = "cf7a59b943e6406d58184d06da089a7f8446d8fa8b781f2435c05cb0c3685275"
MULTIGRAPHS_8_SHA256 = "381bf8de170b8b2eab04e95d9c66fda4b1c5c843047a205b0cc2fc1a544f5446"
RIBBON_8_SHA256 = "20b1f9e3634e18932df25528160f8f7cf2619d7d62dda7798c4ff34386cf3e2d"
PLANE_2C_8_SHA256 = "bf7fc8a2d2d57d5751ffac9e6044a00a99d9c473488011937f59161a40af72ec"


def ribbon_digest(gs):
    text = json.dumps([[rg.to_json() for rg in gs], [list(rg.canonical_form()) for rg in gs]])
    return hashlib.sha256(text.encode()).hexdigest()


def test_larger_catalogs_pinned():
    assert ribbon_digest(ribbon_graphs(7)) == RIBBON_7_SHA256
    assert ribbon_digest(plane_graphs(7)) == PLANE_7_SHA256
    gs = connected_multigraphs(8)
    assert len(gs) == 1672
    text = json.dumps([g.to_json() for g in gs])
    assert hashlib.sha256(text.encode()).hexdigest() == MULTIGRAPHS_8_SHA256


def test_ribbon_level_8_pinned():
    # after test_07's unicycle sweep at 8 edges the rotation systems are
    # cached, and this costs only the JSON texts and one labelling per map
    gs = ribbon_graphs(8)
    assert len(gs) == 57675
    assert ribbon_digest(gs) == RIBBON_8_SHA256
