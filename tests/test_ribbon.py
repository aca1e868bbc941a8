import json
import pickle
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorsand import catalog
from rotorsand.catalog import connected_multigraphs, plane_graphs, ribbon_graphs, rotation_systems
from rotorsand.multigraph import Multigraph, banana_graph
from rotorsand.ribbon import (
    RibbonGraph,
    RibbonIsomorphism,
    canonical_labelling,
    is_automorphism,
    is_ribbon_isomorphism,
    labelling_isomorphism,
)
from rotorsand.lemmas import classify_sides
from rotorsand.rotor import tree_to_rotors


def ribbon_from_json(text: str) -> RibbonGraph:
    return RibbonGraph.from_obj(json.loads(text))


def e3_plane():
    return RibbonGraph(
        banana_graph(3), {"x": ("e0", "e1", "e2"), "y": ("e2", "e1", "e0")}
    )


def e3_twisted():
    return RibbonGraph(
        banana_graph(3), {"x": ("e0", "e1", "e2"), "y": ("e0", "e1", "e2")}
    )


def test_rotation_must_cover_incident_edges(triangle):
    with pytest.raises(ValueError):
        RibbonGraph(triangle, {"u": ("uv",), "v": ("uv", "vw"), "w": ("vw", "uw")})


def test_rotation_must_not_name_extra_vertices(triangle):
    rot = {"u": ("uv", "uw"), "v": ("uv", "vw"), "w": ("vw", "uw"), "zz": ()}
    with pytest.raises(ValueError, match="extra vertices"):
        RibbonGraph(triangle, rot)


def test_next_edge_degree_one():
    g = Multigraph(["a", "b"], {"e": ("a", "b")})
    rg = RibbonGraph(g, {"a": ("e",), "b": ("e",)})
    assert rg.next_edge("a", "e") == "e"


def test_next_edge_wraparound(square_ribbon):
    assert square_ribbon.next_edge("b", "ab") == "bc"
    assert square_ribbon.next_edge("b", "bc") == "ab"


def test_next_edge_on_drawn_embedding(square_ribbon):
    # at c the rotation runs cs, ac, bc counterclockwise
    assert square_ribbon.next_edge("c", "cs") == "ac"
    assert square_ribbon.next_edge("c", "bc") == "cs"


def test_faces_and_genus(triangle_ribbon, fig_ribbon):
    assert len(triangle_ribbon.faces()) == 2
    assert triangle_ribbon.euler_genus() == 0
    assert triangle_ribbon.is_plane()
    assert fig_ribbon.euler_genus() == 0
    assert e3_plane().is_plane()
    tw = e3_twisted()
    assert tw.euler_genus() == 1
    assert not tw.is_plane()


def test_face_tracing_covers_every_dart(square_ribbon):
    darts = [d for walk in square_ribbon.faces() for d in walk]
    assert len(darts) == 2 * len(square_ribbon.graph.edges)
    assert len(set(darts)) == len(darts)


def test_faces_are_dart_walks():
    for rg in [e3_plane(), e3_twisted(), *ribbon_graphs(4)[::7]]:
        walks = rg.faces()
        assert all(type(d) is int for walk in walks for d in walk)
        assert sorted(d for walk in walks for d in walk) == list(range(len(rg.sigma)))
        for walk in walks:
            assert [rg.sigma[d] ^ 1 for d in walk] == walk[1:] + walk[:1]


def test_edgeless_map_has_one_face():
    rg = RibbonGraph(Multigraph(["a"], {}), {"a": ()})
    assert rg.faces() == [[]]
    assert rg.euler_genus() == 0


def test_delete_and_contract_track_graph_minors(square_ribbon):
    g = square_ribbon.graph
    for e in g.edges:
        assert square_ribbon.delete(e).graph == g.delete(e)
        assert square_ribbon.contract(e).graph == g.contract(e)


def test_contract_double_edge_gives_point():
    g = banana_graph(2)
    rg = RibbonGraph(g, {"x": ("e0", "e1"), "y": ("e0", "e1")})
    got = rg.contract("e0")
    assert got.graph.vertices == ("x",)
    assert got.rotation == {"x": ()}


def test_contract_of_drawn_embedding_matches_figure(square_ribbon):
    got = square_ribbon.contract("bc")
    # merged vertex keeps the smaller id b; spliced order ab, cs, ac
    assert got.rotation["b"] == ("ab", "cs", "ac")
    assert got.is_plane()


def test_minors_preserve_planarity():
    rng = random.Random(7)
    pool = plane_graphs(5)
    for rg in rng.sample(pool, 50):
        for e in rg.graph.edges:
            if rg.delete(e).graph.is_connected():
                assert rg.delete(e).is_plane()
            assert rg.contract(e).is_plane()


def reference_delete(rg, e):
    """Deletion walked on the rotation's edge ids."""
    rot = {v: tuple(f for f in seq if f != e) for v, seq in rg.rotation.items()}
    return RibbonGraph(rg.graph.delete(e), rot)


def reference_contract(rg, e):
    """Contraction walked on the rotation's edge ids: with e's parallels
    gone, (e, e_1..e_p) at x and (e, ee_1..ee_l) at y splice into
    (e_1..e_p, ee_1..ee_l) at x."""
    x, y = rg.graph.ends(e)
    parallels = set(rg.graph.parallel_class(e))
    g2 = rg.graph.contract(e)

    def tail(v):
        seq = [f for f in rg.rotation[v] if f not in parallels or f == e]
        k = seq.index(e)
        return seq[k + 1 :] + seq[:k]

    rot = {v: tuple(f for f in rg.rotation[v] if f not in parallels) for v in g2.vertices}
    rot[x] = tuple(tail(x) + tail(y))
    return RibbonGraph(g2, rot)


def test_dart_minors_match_rotation_walks():
    minors = bridges = parallel = leaves = 0
    for rg in ribbon_graphs(6):
        g = rg.graph
        assert RibbonGraph(g, rg.rotation) == rg
        assert rg.reverse().reverse() == rg
        assert rg.reverse() == RibbonGraph(g, {v: seq[::-1] for v, seq in rg.rotation.items()})
        for e in g.edges:
            for got, want in ((rg.delete(e), reference_delete(rg, e)), (rg.contract(e), reference_contract(rg, e))):
                assert got == want and got.rotation == want.rotation, (rg.rotation, e)
                minors += 1
            bridges += not g.delete(e).is_connected()
            parallel += len(g.parallel_class(e)) > 1
            leaves += min(g.degree(v) for v in g.ends(e)) == 1
    assert minors == 8082  # both minors at every edge of the 699 maps
    assert bridges and parallel and leaves


def test_prev_edge_undoes_next_edge():
    for rg in ribbon_graphs(4):
        for e in rg.graph.edges:
            for x in rg.graph.ends(e):
                assert rg.prev_edge(x, rg.next_edge(x, e)) == e


def test_repr_of_a_map_split_into_components():
    g = Multigraph(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c")})
    rg = RibbonGraph(g, {"a": ("ab",), "b": ("ab", "bc"), "c": ("bc",)})
    assert repr(rg) == "RibbonGraph(3 vertices, 2 edges, genus 0)"
    assert repr(rg.delete("ab")) == "RibbonGraph(3 vertices, 1 edges, not connected)"


def test_reverse_is_involution(square_ribbon):
    assert square_ribbon.reverse().reverse() == square_ribbon


def test_reverse_preserves_planarity():
    for rg in plane_graphs(5):
        assert rg.reverse().is_plane()


def find_isomorphism(a, b):
    """Some ribbon isomorphism from a onto b, or None."""
    return next(iter(a.isomorphisms(b)), None)


def test_reversed_triple_edge_is_isomorphic_by_vertex_swap():
    rg = e3_plane()
    iso = find_isomorphism(rg, rg.reverse())
    assert iso is not None
    swap = RibbonIsomorphism(
        {"x": "y", "y": "x"}, {"e0": "e0", "e1": "e1", "e2": "e2"}
    )
    assert is_ribbon_isomorphism(rg, rg.reverse(), swap)


def test_identity_is_automorphism(square_ribbon):
    ident = RibbonIsomorphism(
        {v: v for v in square_ribbon.graph.vertices},
        {e: e for e in square_ribbon.graph.edges},
    )
    assert is_automorphism(square_ribbon, ident)


def test_triple_edge_vertex_swap_automorphism():
    tw = e3_twisted()
    swap = RibbonIsomorphism(
        {"x": "y", "y": "x"}, {"e0": "e0", "e1": "e1", "e2": "e2"}
    )
    assert is_automorphism(tw, swap)


def test_no_isomorphism_between_different_sizes(triangle_ribbon, square_ribbon):
    assert find_isomorphism(triangle_ribbon, square_ribbon) is None


def relabeled_copy(rg, rng):
    g = rg.graph
    vnames = list(g.vertices)
    enames = list(g.edges)
    rng.shuffle(vnames)
    rng.shuffle(enames)
    vmap = dict(zip(g.vertices, (f"V{x}" for x in vnames)))
    emap = dict(zip(g.edges, (f"E{x}" for x in enames)))
    g2 = Multigraph(
        vmap.values(),
        {emap[e]: (vmap[g.ends(e)[0]], vmap[g.ends(e)[1]]) for e in g.edges},
    )
    rot2 = {vmap[v]: tuple(emap[e] for e in seq) for v, seq in rg.rotation.items()}
    return RibbonGraph(g2, rot2)


def test_genus_is_isomorphism_invariant():
    rng = random.Random(3)
    pool = [rg for g in connected_multigraphs(5) for rg in rotation_systems(g)]
    for rg in rng.sample(pool, 25):
        other = relabeled_copy(rg, rng)
        iso = find_isomorphism(rg, other)
        assert iso is not None
        assert is_ribbon_isomorphism(rg, other, iso)
        assert rg.euler_genus() == other.euler_genus()
        assert rg.canonical_form() == other.canonical_form()


def test_labelling_isomorphism_onto_relabelled_copies():
    # every ribbon graph with at most 5 edges, against a seeded copy whose
    # shuffled ids renumber its darts
    rng = random.Random(8)
    moved = 0
    for rg in ribbon_graphs(5):
        other = relabeled_copy(rg, rng)
        code, (order, *_) = rg.canonical_labelling()
        code2, (order2, *_) = other.canonical_labelling()
        assert code == code2 == rg.canonical_form()
        assert sorted(order) == list(range(len(rg.sigma)))
        iso = labelling_isomorphism(rg, order, other, order2)
        assert is_ribbon_isomorphism(rg, other, iso)
        assert is_ribbon_isomorphism(other, rg, labelling_isomorphism(other, order2, rg, order))
        moved += order != order2
    assert moved > 0


def first_order(labelling):
    """A canonical labelling cut down to its code and its first order."""
    code, orders = labelling
    return code, orders[0]


def full_encoding_labelling(rg):
    """canonical_labelling as it was before anchors stopped early: every
    anchor's encoding is built in full, and the first minimal one is kept."""
    sigma = rg.sigma
    best, best_order = (), []
    for start in range(len(sigma)):
        labels = {start: 0}
        order = [start]
        for d in order:
            for nb in (sigma[d], d ^ 1):
                if nb not in labels:
                    labels[nb] = len(labels)
                    order.append(nb)
        enc = tuple(x for d in order for x in (labels[sigma[d]], labels[d ^ 1]))
        if not best or enc < best:
            best, best_order = enc, order
    return (len(rg.graph.vertices),) + best, tuple(best_order)


def test_canonical_labelling_matches_full_encoding():
    for rg in ribbon_graphs(5):
        assert first_order(rg.canonical_labelling()) == full_encoding_labelling(rg), rg


def anchor_labelling(sigma, vertex_count):
    """canonical_labelling as it was before anchors ran in lockstep: one
    anchor after another, each dropped once a prefix exceeds the best so far."""
    best, best_order = [], ()
    for start in range(len(sigma)):
        found = anchor_code(sigma, start, best)
        if found is not None:
            best, best_order = found
    return (vertex_count, *best), tuple(best_order)


def anchor_code(sigma, start, best):
    """The encoding and dart order from anchor start, if it beats best; None
    once a prefix exceeds best, and for a full tie, which keeps the first."""
    labels = [-1] * len(sigma)
    labels[start] = 0
    order = [start]
    enc = []
    tied = bool(best)  # enc equals best so far
    for d in order:
        for nb in (sigma[d], d ^ 1):
            x = labels[nb]
            if x < 0:
                x = labels[nb] = len(order)
                order.append(nb)
            if tied:
                b = best[len(enc)]
                if x != b:
                    if x > b:
                        return None
                    tied = False
            enc.append(x)
    return None if tied else (enc, order)


def anchored_isomorphisms(a, b):
    """RibbonGraph.isomorphisms as it was before it read the canonical
    labelling: anchor a's first edge at its lower end, try every (edge, end)
    of b as its image, and walk both rotations in lockstep from there."""
    ga, gb = a.graph, b.graph
    if len(ga.vertices) != len(gb.vertices) or len(ga.edges) != len(gb.edges):
        return []
    if not ga.edges:
        return [RibbonIsomorphism(dict(zip(ga.vertices, p)), {}) for p in permutations(gb.vertices)]
    e0 = ga.edges[0]
    found = {}
    for eb in gb.edges:
        for vb in gb.ends(eb):
            iso = anchored_match(a, b, (ga.ends(e0)[0], e0), (vb, eb))
            if iso is not None:
                found.setdefault(iso_key(iso), iso)
    return list(found.values())


def anchored_match(a, b, anchor_a, anchor_b):
    """The isomorphism sending anchor_a's (vertex, edge) to anchor_b's, or None."""
    ga, gb = a.graph, b.graph
    vmap = {anchor_a[0]: anchor_b[0]}
    emap = {anchor_a[1]: anchor_b[1]}
    stack = [anchor_a]
    done = set()
    while stack:
        v, e = stack.pop()
        if (v, e) in done:
            continue
        done.add((v, e))
        if len(a.rotation[v]) != len(b.rotation[vmap[v]]):
            return None
        ea, eb = e, emap[e]
        for _ in range(len(a.rotation[v])):
            na, nb = a.next_edge(v, ea), b.next_edge(vmap[v], eb)
            if emap.setdefault(na, nb) != nb:
                return None
            wa, wb = ga.other(na, v), gb.other(nb, vmap[v])
            if vmap.setdefault(wa, wb) != wb:
                return None
            stack.append((wa, na))
            ea, eb = na, nb
    if len(vmap) != len(ga.vertices) or len(emap) != len(ga.edges):
        return None
    if len(set(vmap.values())) != len(vmap) or len(set(emap.values())) != len(emap):
        return None
    iso = RibbonIsomorphism(vmap, emap)
    return iso if is_ribbon_isomorphism(a, b, iso) else None


def iso_key(iso):
    return tuple(sorted(iso.vertex_map.items())), tuple(sorted(iso.edge_map.items()))


def test_isomorphisms_match_anchored_search():
    # every map with at most 6 edges onto itself and onto its mirror: the
    # same isomorphisms as the lockstep walk from one anchored dart, each once
    pairs = total = 0
    for rg in ribbon_graphs(6):
        for other in (rg, rg.reverse()):
            got = [iso_key(iso) for iso in rg.isomorphisms(other)]
            assert len(set(got)) == len(got)
            assert set(got) == {iso_key(iso) for iso in anchored_isomorphisms(rg, other)}
            pairs += 1
            total += len(got)
    assert (pairs, total) == (1398, 1774)


def test_isomorphisms_refuse_maps_split_into_components():
    k2 = {"ab": ("a", "b")}
    rot = {"a": ("ab",), "b": ("ab",)}
    whole = RibbonGraph(Multigraph(["a", "b"], k2), rot)
    # a bridge cut leaves darts on both sides; an isolated vertex leaves none
    apart = RibbonGraph(
        Multigraph(list("abcd"), {**k2, "cd": ("c", "d")}), {**rot, "c": ("cd",), "d": ("cd",)}
    )
    beside = RibbonGraph(Multigraph(list("abc"), k2), {**rot, "c": ()})
    for m in (apart, beside):
        with pytest.raises(ValueError):
            m.isomorphisms(m)
        with pytest.raises(ValueError):
            whole.isomorphisms(m)
        with pytest.raises(ValueError):
            m.isomorphisms(whole)
    assert len(whole.isomorphisms(whole)) == 2


def test_lockstep_labelling_matches_anchor_search_on_rotation_products():
    members = 0
    for g in connected_multigraphs(6):
        for sigma in catalog._rotation_product(g):
            assert first_order(canonical_labelling(sigma, len(g.vertices))) == anchor_labelling(
                sigma, len(g.vertices)
            ), sigma
            members += 1
    assert members == 2125


def test_lockstep_labelling_matches_anchor_search_on_minors():
    # a bridge cut that leaves darts on both sides is refused: the anchor
    # search would label only the winning anchor's component
    edgeless = split = 0
    for rg in plane_graphs(5):
        for e in rg.graph.edges:
            for m in (rg.contract(e), rg.delete(e)):
                n = len(m.graph.vertices)
                expected = anchor_labelling(m.sigma, n)
                if len(expected[1]) == len(m.sigma):
                    assert first_order(m.canonical_labelling()) == expected, m.rotation
                else:
                    split += 1
                    with pytest.raises(ValueError, match="one component"):
                        m.canonical_labelling()
                edgeless += not m.graph.edges
    assert edgeless > 0 and split > 0


def test_canonical_form_refuses_maps_split_into_components():
    # K2 beside a path of two edges and K2 beside a triangle, both on 5
    # vertices: one anchor's walk labels only the K2, so both used to get
    # the code (5, 0, 1, 1, 0)
    edges = {"ab": ("a", "b"), "cd": ("c", "d"), "de": ("d", "e")}
    path = RibbonGraph(
        Multigraph(list("abcde"), edges),
        {"a": ("ab",), "b": ("ab",), "c": ("cd",), "d": ("cd", "de"), "e": ("de",)},
    )
    triangle = RibbonGraph(
        Multigraph(list("abcde"), {**edges, "ce": ("c", "e")}),
        {"a": ("ab",), "b": ("ab",), "c": ("cd", "ce"), "d": ("cd", "de"), "e": ("de", "ce")},
    )
    for m in (path, triangle):
        assert anchor_labelling(m.sigma, 5)[0] == (5, 0, 1, 1, 0)
        with pytest.raises(ValueError, match="one component"):
            m.canonical_form()
    # isolated vertices leave every dart reachable, and the vertex count
    # that leads the code tells them apart
    k2 = Multigraph(["a", "b"], {"ab": ("a", "b")})
    k2_apart = Multigraph(["a", "b", "c"], {"ab": ("a", "b")})
    rot = {"a": ("ab",), "b": ("ab",)}
    assert RibbonGraph(k2, rot).canonical_form() == (2, 0, 1, 1, 0)
    assert RibbonGraph(k2_apart, {**rot, "c": ()}).canonical_form() == (3, 0, 1, 1, 0)


def test_edgeless_labelling():
    assert canonical_labelling((), 1) == ((1,), ((),))
    assert canonical_labelling((), 2) == ((2,), ((),))


@st.composite
def relabelled_sigma(draw):
    """A ribbon_graphs(6) map's sigma under an edge permutation and dart-pair flips."""
    rg = draw(st.sampled_from(ribbon_graphs(6)))
    m = len(rg.graph.edges)
    perm = draw(st.permutations(range(m)))
    flips = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    moved = [2 * perm[d >> 1] + ((d & 1) ^ flips[d >> 1]) for d in range(2 * m)]
    sigma = [0] * (2 * m)
    for d in range(2 * m):
        sigma[moved[d]] = moved[rg.sigma[d]]
    return rg, tuple(sigma)


@given(relabelled_sigma())
@settings(max_examples=300, deadline=None)
def test_lockstep_labelling_matches_anchor_search_on_relabelled_maps(case):
    rg, sigma = case
    n = len(rg.graph.vertices)
    code, order = first_order(canonical_labelling(sigma, n))
    assert (code, order) == anchor_labelling(sigma, n)
    assert code == rg.canonical_form()


def test_canonical_form_separates_the_two_triple_edges():
    assert e3_plane().canonical_form() != e3_twisted().canonical_form()
    assert e3_plane().canonical_form() == e3_plane().reverse().canonical_form()


def test_classify_sides_triangle_cycle_is_empty(triangle_ribbon):
    cyc = [("u", "uv"), ("v", "vw"), ("w", "uw")]
    sides = classify_sides(triangle_ribbon, cyc)
    assert not sides.left_edges and not sides.right_edges
    assert not sides.left_vertices and not sides.right_vertices


def test_classify_sides_square_diagonal(square_ribbon):
    ccw = [("a", "ab"), ("b", "bc"), ("c", "cs"), ("s", "sa")]
    sides = classify_sides(square_ribbon, ccw)
    assert sides.left_edges == frozenset({"ac"})
    assert sides.right_edges == frozenset()
    cw = [("a", "sa"), ("s", "cs"), ("c", "bc"), ("b", "ab")]
    sides2 = classify_sides(square_ribbon, cw)
    assert sides2.right_edges == frozenset({"ac"})
    assert sides2.left_edges == frozenset()


def test_classify_sides_partitions_and_swaps():
    rng = random.Random(11)
    for rg in rng.sample(plane_graphs(6), 40):
        g = rg.graph
        # use any tree path plus a closing edge as the test cycle
        trees = g.spanning_trees()
        t = trees[0]
        for f in g.edges:
            if f in t:
                continue
            u, w = g.ends(f)
            # the tree path from w to u, along the rotors that point to u
            rotors = tree_to_rotors(g, t, u)
            cyc = []
            at = w
            while at != u:
                cyc.append((at, rotors[at]))
                at = g.other(rotors[at], at)
            cyc.append((u, f))
            sides = classify_sides(rg, cyc)
            cyc_edges = {e for _, e in cyc}
            assert sides.left_edges | sides.right_edges == set(g.edges) - cyc_edges
            assert not (sides.left_edges & sides.right_edges)
            rev = list(reversed([(g.other(e, v), e) for v, e in cyc]))
            flipped = classify_sides(rg, rev)
            assert flipped.left_edges == sides.right_edges
            assert flipped.right_edges == sides.left_edges
            break


def test_classify_sides_parallel_two_cycle():
    g = Multigraph(
        ["x", "y", "z"],
        {"e0": ("x", "y"), "e1": ("x", "y"), "e2": ("x", "y"), "p": ("x", "z"), "q": ("x", "z")},
    )
    rg = RibbonGraph(
        g, {"x": ("e0", "e1", "e2", "p", "q"), "y": ("e2", "e1", "e0"), "z": ("q", "p")}
    )
    assert rg.is_plane()
    sides = classify_sides(rg, [("x", "e0"), ("y", "e2")])
    assert sides.left_edges | sides.right_edges == {"e1", "p", "q"}
    assert {"e1"} in (sides.left_edges, sides.right_edges)


def test_ribbon_json_round_trip(square_ribbon):
    assert ribbon_from_json(square_ribbon.to_json()) == square_ribbon
    assert pickle.loads(pickle.dumps(square_ribbon)) == square_ribbon
