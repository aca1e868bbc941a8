import hashlib
import json
import random
from itertools import combinations, product

import pytest

from rotorsand import matroid, sandpile
from rotorsand.catalog import connected_multigraphs, plane_graphs
from rotorsand.errors import InvariantViolation
from rotorsand.intlinalg import ColumnLattice, rank
from rotorsand.lp import separating_functional
from rotorsand.matroid import (
    BBY_VARIANTS,
    RegularMatroid,
    SignaturePair,
    bby_act,
    bby_action,
    bby_table,
    bby_vector,
    check_acyclic,
    check_acyclic_pair,
    default_signatures,
    from_graph,
    minor,
    r10,
    verify_matroid_consistency,
)
from rotorsand.multigraph import Multigraph, banana_graph, complete_graph


@pytest.fixture
def worked_matroid():
    """The oriented square-with-diagonal example: columns e1..e5 for the
    arcs a->b, b->c, c->d, a->d, a->c."""
    return RegularMatroid(
        ["e1", "e2", "e3", "e4", "e5"],
        [
            [-1, 0, 0, -1, -1],
            [1, -1, 0, 0, 0],
            [0, 1, -1, 0, 1],
            [0, 0, 1, 1, 0],
        ],
    )


WORKED_SIGMA = [
    (1, 1, 0, 0, -1),
    (1, 1, 1, -1, 0),
    (0, 0, 1, -1, 1),
]
WORKED_SIGMA_STAR = [
    (1, -1, 0, 0, 0),
    (1, 0, -1, 0, 1),
    (1, 0, 0, 1, 1),
    (0, 1, -1, 0, 1),
    (0, 1, 0, 1, 1),
    (0, 0, 1, 1, 0),
]


def test_non_unimodular_matrix_rejected():
    with pytest.raises(ValueError):
        RegularMatroid(["a", "b"], [[1, 2], [0, 1]])


def _incidence(n):
    m = from_graph(complete_graph(n))
    return m.labels, m.matrix


def test_unimodularity_check_is_bounded(monkeypatch):
    RegularMatroid(*_incidence(6))  # 54,173 square minors, under the limit
    RegularMatroid(r10().labels, r10().matrix)

    def no_minors(sub):
        raise AssertionError("a square minor was evaluated")

    monkeypatch.setattr(matroid, "det", no_minors)
    with pytest.raises(ValueError, match="minors"):
        RegularMatroid(*_incidence(9))


def test_worked_matroid_shape(worked_matroid):
    m = worked_matroid
    assert m.rank == 3
    assert len(m.bases()) == 8
    assert m.group_order() == 8


def test_worked_signature_tables(worked_matroid):
    sig = default_signatures(worked_matroid)
    assert sorted(sig.circuits) == sorted(WORKED_SIGMA)
    assert sorted(sig.cocircuits) == sorted(WORKED_SIGMA_STAR)


def test_bridge_has_no_circuit():
    m = from_graph(banana_graph(1))
    assert m.circuits() == ()
    assert check_acyclic(m.circuits())  # vacuously


def test_from_graph_bases_are_trees():
    rng = random.Random(17)
    pool = list(connected_multigraphs(5))
    for g in rng.sample(pool, 20):
        m = from_graph(g)
        assert set(m.bases()) == set(g.spanning_trees())


def test_default_signatures_always_acyclic():
    for g in connected_multigraphs(5):
        sig = default_signatures(from_graph(g))
        assert check_acyclic_pair(sig)


def test_flipped_circuit_signature_can_go_cyclic(triangle):
    m = from_graph(triangle)
    sig = default_signatures(m)
    (c,) = sig.circuits
    # the triangle has one circuit; negating it alone stays acyclic, but a
    # hand-built cyclic family must be caught
    assert check_acyclic((c, tuple(-x for x in c))) is False


def test_one_negation_breaks_acyclicity_on_triple_edge():
    # the three circuits of the triple edge can positively span zero once a
    # single chosen orientation flips
    m = from_graph(banana_graph(3))
    sig = default_signatures(m)
    assert len(sig.circuits) == 3
    assert check_acyclic(sig.circuits)
    for i in range(3):
        flipped = list(sig.circuits)
        flipped[i] = tuple(-x for x in flipped[i])
        if not check_acyclic(flipped):
            break
    else:
        raise AssertionError("no single negation went cyclic")


def test_acyclicity_certificates_verified():
    rows = [(1, 0), (0, 1), (-1, -1)]
    ok, cert = separating_functional(rows)
    assert not ok
    assert sum(cert) > 0
    rows2 = [(1, 0), (0, 1), (1, 1)]
    ok2, w = separating_functional(rows2)
    assert ok2
    assert all(sum(a * b for a, b in zip(r, w)) >= 1 for r in rows2)


def test_brute_force_acyclicity_oracle():
    # tiny instances: compare the solver against bounded enumeration
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randrange(1, 4)
        rows = [
            tuple(rng.randrange(-1, 2) for _ in range(3)) for _ in range(k)
        ]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        ok, _ = separating_functional(rows)
        brute = True
        for coeffs in product(range(0, 4), repeat=len(rows)):
            if not any(coeffs):
                continue
            s = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(3)]
            if all(x == 0 for x in s):
                brute = False
                break
        assert ok == brute, rows


def test_class_identity(worked_matroid):
    m = worked_matroid
    assert m.class_of([1, 0, 2, 0, 1]) == m.class_of([1, 1, 0, 1, 1])
    assert m.class_of([0, 0, 0, 0, 0]) == m.class_of(list(m.circuits()[0]))


def fundamental_circuit(m: RegularMatroid, basis: frozenset, e) -> tuple[int, ...]:
    """The circuit inside basis + e, as the signature-free signed vector."""
    if e in basis:
        raise ValueError(f"{e!r} is in the basis")
    return m.fundamental_vectors(basis)[m._index[e]]


def fundamental_cocircuit(m: RegularMatroid, basis: frozenset, e) -> tuple[int, ...]:
    """The cocircuit inside the complement of basis plus e."""
    if e not in basis:
        raise ValueError(f"{e!r} is not in the basis")
    return m.fundamental_vectors(basis)[m._index[e]]


def test_fundamental_circuit_and_cocircuit(worked_matroid):
    m = worked_matroid
    b = frozenset({"e2", "e3", "e5"})
    assert fundamental_circuit(m, b, "e1") == (1, 1, 0, 0, -1)
    assert fundamental_cocircuit(m, b, "e2") == (1, -1, 0, 0, 0)
    with pytest.raises(ValueError):
        fundamental_circuit(m, b, "e2")
    with pytest.raises(ValueError):
        fundamental_cocircuit(m, b, "e1")
    with pytest.raises(ValueError):
        fundamental_circuit(m, frozenset({"e1", "e2", "e5"}), "e3")  # a triangle


def test_bby_vectors_match_worked_example(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    assert bby_vector(m, sig, frozenset({"e2", "e3", "e5"})) == (1, 0, 1, 0, 1)
    assert bby_vector(m, sig, frozenset({"e1", "e3", "e4"})) == (1, 1, 0, 1, 1)


def test_bby_action_worked_example(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    out = bby_act(m, sig, [0, 0, 1, 0, 0], frozenset({"e2", "e3", "e5"}))
    assert out == frozenset({"e1", "e3", "e4"})


def test_bby_identity_fixes_every_basis(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    for b in m.bases():
        assert bby_act(m, sig, [0] * 5, b) == b


def test_bby_vectors_distinct_classes(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    keys = {m.class_of(bby_vector(m, sig, b)) for b in m.bases()}
    assert len(keys) == len(m.bases())


def test_bby_free_and_transitive(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    b0 = m.bases()[0]
    # orbit of b0 under all class representatives covers all bases
    reps = set()
    for coeffs in product(range(2), repeat=m.size):
        reps.add(m.class_of(list(coeffs)))
    outs = {bby_act(m, sig, list(rep), b0) for rep in reps}
    assert outs == set(m.bases())


def test_group_order_equals_basis_count_small():
    for g in connected_multigraphs(6):
        m = from_graph(g)
        assert m.group_order() == len(m.bases())
        assert m.group_order() == sandpile.group_structure(g).order


def test_minor_matches_graph_minor(worked_matroid):
    g = Multigraph(
        ["a", "b", "c", "d"],
        {
            "e1": ("a", "b"),
            "e2": ("b", "c"),
            "e3": ("c", "d"),
            "e4": ("a", "d"),
            "e5": ("a", "c"),
        },
    )
    m = from_graph(g)
    sig = default_signatures(m)
    for e in g.edges:
        sub, _ = minor(m, sig, e, "delete")
        gm = from_graph(g.delete(e)) if g.delete(e).is_connected() else None
        if gm is not None:
            assert {frozenset(_supp(sub, v)) for v in sub.circuits()} == {
                frozenset(_supp(gm, v)) for v in gm.circuits()
            }
        contracted = g.contract(e)
        sub2, _ = minor(m, sig, e, "contract")
        gm2 = from_graph(contracted)
        # contraction in the graph drops parallel loops, the matroid keeps
        # them as loop elements; compare circuits off the loops
        loops = {x for x in sub2.labels if sub2.is_loop(x)}
        assert {
            frozenset(_supp(sub2, v)) for v in sub2.circuits() if not _is_loop_circuit(sub2, v)
        } == {frozenset(_supp(gm2, v)) for v in gm2.circuits()}
        assert loops == set(m.labels) - set(contracted.edges) - {e}


def _supp(m, vec):
    return [m.labels[j] for j, x in enumerate(vec) if x != 0]


def _is_loop_circuit(m, vec):
    supp = _supp(m, vec)
    return len(supp) == 1


def test_minor_signatures_stay_acyclic(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    for e in m.labels:
        if not m.is_coloop(e):
            _, ind = minor(m, sig, e, "delete")
            assert check_acyclic_pair(ind)
        if not m.is_loop(e):
            _, ind = minor(m, sig, e, "contract")
            assert check_acyclic_pair(ind)


def test_minor_ops_commute(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    a, b = "e1", "e3"
    m1, s1 = minor(m, sig, a, "contract")
    m2, _ = minor(m1, s1, b, "delete")
    m3, s3 = minor(m, sig, b, "delete")
    m4, _ = minor(m3, s3, a, "contract")
    assert m2.labels == m4.labels
    assert set(m2.circuits()) == set(m4.circuits())
    assert set(m2.cocircuits()) == set(m4.cocircuits())


def test_variant_tables_match_negated_pairs():
    # each variant's table is the base table of the pair with the variant's
    # families negated outright
    def neg(vectors):
        return tuple(tuple(-x for x in v) for v in vectors)

    for m in [from_graph(g) for g in connected_multigraphs(5)] + [r10()]:
        pair = default_signatures(m)
        for tag, (flip_circuits, flip_cocircuits) in BBY_VARIANTS.items():
            negated = SignaturePair(
                neg(pair.circuits) if flip_circuits else pair.circuits,
                neg(pair.cocircuits) if flip_cocircuits else pair.cocircuits,
            )
            assert bby_table(m, pair, tag) == bby_table(m, negated)


def test_consistency_harness_on_worked_matroid(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    for tag in BBY_VARIANTS:
        rep = verify_matroid_consistency(m, sig, tag)
        assert rep["checked"] > 0
        assert isinstance(rep["violations"], list)


def test_consistency_skips_ineligible_elements(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    rep = verify_matroid_consistency(m, sig)
    # eligibility: contract needs the element in both bases, delete outside
    # both; count matches a direct recount
    count = 0
    table = bby_table(m, sig)
    for f in m.labels:
        unit = [int(x == f) for x in m.labels]
        for b in m.bases():
            b2 = bby_act(m, sig, unit, b)
            for e in m.labels:
                if e == f:
                    continue
                if (e in b and e in b2) or (e not in b and e not in b2):
                    count += 1
    assert rep["checked"] == count


def test_r10_is_regular_with_matching_counts():
    m = r10()
    assert m.rank == 5 and m.size == 10
    assert len(m.bases()) == 162
    assert m.group_order() == 162
    sig = default_signatures(m)
    assert check_acyclic_pair(sig)


def test_graphic_group_order_matches_sandpile():
    for g in connected_multigraphs(5):
        assert from_graph(g).group_order() == sandpile.group_structure(g).order


def _kernel_cases():
    """Every graphic matroid with at most 6 edges, R10, and each
    single-element minor of these."""
    for m in [from_graph(g) for g in connected_multigraphs(6)] + [r10()]:
        yield m
        pair = default_signatures(m)
        for e in m.labels:
            if not m.is_coloop(e):
                yield minor(m, pair, e, "delete")[0]
            if not m.is_loop(e):
                yield minor(m, pair, e, "contract")[0]


def _minimal(sets):
    return {s for s in sets if not any(s - {x} in sets for x in s)}


def _support(m, vec):
    return frozenset(_supp(m, vec))


def test_pivot_walk_matches_rank_oracle():
    count = 0
    for m in _kernel_cases():
        count += 1
        a = m.matrix
        r = rank(a)
        bases = [
            frozenset(m.labels[j] for j in js)
            for js in combinations(range(m.size), r)
            if rank([[row[j] for j in js] for row in a]) == r
        ]
        assert (m.rank, m.bases()) == (r, tuple(bases))
        subsets = [frozenset(c) for k in range(m.size + 1) for c in combinations(m.labels, k)]
        dependent = {s for s in subsets if not any(s <= b for b in bases)}
        transversal = {s for s in subsets if all(s & b for b in bases)}
        for family, supports in ((m.circuits(), dependent), (m.cocircuits(), transversal)):
            assert family == tuple(sorted(family))
            assert all(set(v) <= {-1, 0, 1} and next(x for x in v if x) == 1 for v in family)
            assert len({_support(m, v) for v in family}) == len(family)
            assert {_support(m, v) for v in family} == _minimal(supports)
        for v in m.circuits():
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
        for v in m.cocircuits():
            assert rank([*a, v]) == r
        for b in bases:
            for e, v in zip(m.labels, m.fundamental_vectors(b)):
                if e in b:
                    assert v in m.cocircuits() and _support(m, v) & b == {e}
                else:
                    assert v in m.circuits() and _support(m, v) - b == {e}
    assert count == 1551


# sha256 of the bases, circuits and cocircuits of every graphic matroid with
# at most 5 edges, then R10, as one JSON list; taken from the brute-force
# subset search the pivot walk replaced.
MATROID_5_SHA256 = "2666806aaf24f1ff738c3c134bbb019b1dd6db2296419806f2dbb3392e48bcfe"


def test_matroid_families_pinned():
    ms = [from_graph(g) for g in connected_multigraphs(5)] + [r10()]
    text = json.dumps([[[sorted(b) for b in m.bases()], m.circuits(), m.cocircuits()] for m in ms])
    assert hashlib.sha256(text.encode()).hexdigest() == MATROID_5_SHA256


# sha256 of every act the consistency harness reads: for each graphic matroid
# with at most 5 edges, then R10, in catalog order, each variant of the
# default signatures, each generator f and each basis B, the JSON row
# [variant, f, sorted(B), sorted(B')] with B' the basis [e_f] sends B to;
# taken from a fresh Hermite reduction of tag(B) + e_f per act, before acts
# were read off class tables.
ACT_5_SHA256 = "83ba68c8aef2fc0a69b8f63747792cc61b4bc6b1d0ddbdff42ab712cd10f9f52"


def test_bby_acts_pinned():
    digest = hashlib.sha256()
    for m in [from_graph(g) for g in connected_multigraphs(5)] + [r10()]:
        pair = default_signatures(m)
        for tag in BBY_VARIANTS:
            act = bby_action(m, pair, tag)
            for j, f in enumerate(m.labels):
                for b in m.bases():
                    digest.update(json.dumps([tag, f, sorted(b), sorted(act(j, b))]).encode())
    assert digest.hexdigest() == ACT_5_SHA256


def test_class_table_steps_are_reductions(worked_matroid, fig_graph):
    # the matroid's class table, and the same closure on a graph's
    # reduced-Laplacian lattice; then on the lattices of every plane graph
    # with at most 5 edges and every graphic matroid with at most 4
    m = worked_matroid
    assert m.group_order() == 8
    lap = sandpile._class_lattice(fig_graph)
    matroids = [m] + [from_graph(g) for g in connected_multigraphs(4)]
    laps = [lap] + [sandpile._class_lattice(rg.graph) for rg in plane_graphs(5)]
    closures = [(mm.lattice(), mm.class_table()) for mm in matroids]
    closures += [(lattice, lattice.cosets()) for lattice in laps]
    for lattice, (index, succ) in closures:
        reps = sorted(index, key=index.get)
        assert len(reps) == len(succ) == lattice.index_in_ambient()
        assert reps[0] == lattice.reduce([0] * lattice.dim)
        for i, rep in enumerate(reps):
            for j in range(lattice.dim):
                step = [x + (k == j) for k, x in enumerate(rep)]
                assert succ[i][j] == index[lattice.reduce(step)]
    assert len(lap.cosets()[0]) == sandpile.tree_count(fig_graph)


def class_of_table(m, pair, variant):
    """bby_table as it was before it walked the class table: each basis's
    variant tag keyed by a Hermite reduction, ``m.class_of``."""
    flips = BBY_VARIANTS[variant]  # indexed by membership in the basis
    table = {}
    for b in m.bases():
        tag = bby_vector(m, pair, b)
        key = m.class_of([x ^ flips[e in b] for e, x in zip(m.labels, tag)])
        assert key not in table
        table[key] = b
    assert len(table) == m.group_order()
    return table


def test_bby_tables_match_class_of_oracle():
    # the closure-walk tables equal the reduction-keyed ones, and come in
    # the class table's numbering order, which bby_action and the harness
    # read them in
    for m in [from_graph(g) for g in connected_multigraphs(5)] + [r10()]:
        pair = default_signatures(m)
        for tag in BBY_VARIANTS:
            table = bby_table(m, pair, tag)
            assert table == class_of_table(m, pair, tag)
            assert list(table) == list(m.class_table()[0])


def test_class_closure_count_is_checked(worked_matroid, fig_graph, monkeypatch):
    # a closure that stops short of the lattice index is an invariant
    # violation, for the sandpile classes and for the matroid's
    monkeypatch.setattr(ColumnLattice, "index_in_ambient", lambda self: 10**6)
    sandpile.enumerate_classes.cache_clear()
    with pytest.raises(InvariantViolation, match="coset closure"):
        sandpile.enumerate_classes(fig_graph)
    with pytest.raises(InvariantViolation, match="coset closure"):
        bby_action(worked_matroid, default_signatures(worked_matroid))


def test_minor_matroids_are_cached_per_element_and_op(worked_matroid):
    m = worked_matroid
    sig = default_signatures(m)
    sub, ind = minor(m, sig, "e1", "delete")
    assert m.minor_matroid("e1", "delete") is sub
    negated = sig._replace(circuits=tuple(tuple(-x for x in v) for v in sig.circuits))
    assert minor(m, negated, "e1", "delete")[0] is sub
    assert minor(m, sig, "e1", "contract")[0] is not sub
    flipped = minor(m, negated, "e1", "delete")[1]
    assert set(flipped.circuits) == {tuple(-x for x in v) for v in ind.circuits}
    with pytest.raises(ValueError):
        m.minor_matroid("e1", "shrink")
    with pytest.raises(KeyError):
        m.minor_matroid("e9", "delete")


def test_conjecture_search_builds_each_minor_once(monkeypatch):
    # one sweep over the graphic matroids with at most 4 edges: each minor
    # (matroid, element, op) and its induced pair are built once for all four
    # variants, and each (matroid or minor, variant) still gets its own
    # bby_table with both checks
    built, minors, tables, induced = [], [], [], []
    init, build_minor, table = RegularMatroid.__init__, RegularMatroid.minor_matroid, matroid.bby_table
    induce = matroid._induced_signature

    def counting_init(self, *args, **kwargs):
        built.append(self)  # kept alive, so no id is reused
        init(self, *args, **kwargs)

    def counting_minor(self, e, op):
        if (e, op) not in self._minors:
            minors.append((id(self), e, op))
        return build_minor(self, e, op)

    def counting_table(m, pair, *args):
        tables.append(id(m))
        return table(m, pair, *args)

    def counting_induce(*args, **kwargs):
        induced.append(args)
        return induce(*args, **kwargs)

    monkeypatch.setattr(RegularMatroid, "__init__", counting_init)
    monkeypatch.setattr(RegularMatroid, "minor_matroid", counting_minor)
    monkeypatch.setattr(matroid, "bby_table", counting_table)
    monkeypatch.setattr(matroid, "_induced_signature", counting_induce)
    report = matroid.conjecture_search(4)
    assert (report["instances"], report["checked"], report["findings"]) == (80, 1144, [])
    assert len(minors) == len(set(minors)) == 87
    assert len(built) == 20 + 87  # was 20 + 4 * 87 with a minor built per variant
    assert len(tables) == 4 * len(built)
    assert len(induced) == 2 * 87  # was 4 * 2 * 87 with an induced pair per variant


def test_flipped_minor_signature_is_caught(worked_matroid, monkeypatch):
    # negative control: the contraction of e1 gets the circuit signature of
    # the flipped variant, so its acts no longer match the matroid's
    m = worked_matroid
    sig = default_signatures(m)
    clean = verify_matroid_consistency(m, sig)
    assert clean["violations"] == []
    true_minor = matroid.minor

    def skewed_minor(mm, pair, e, op):
        sub, induced = true_minor(mm, pair, e, op)
        if (e, op) == ("e1", "contract"):
            induced = induced._replace(circuits=tuple(tuple(-x for x in v) for v in induced.circuits))
        return sub, induced

    monkeypatch.setattr(matroid, "minor", skewed_minor)
    rep = verify_matroid_consistency(m, sig)
    assert rep["checked"] == clean["checked"]
    assert {(v["condition"], v["element"]) for v in rep["violations"]} == {(1, "e1")}
    assert len(rep["violations"]) == 9
