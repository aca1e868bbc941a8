import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorsand.intlinalg import ColumnLattice, _hermite_columns, det, rank, smith_diagonal


def brute_det(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = sign
        for i in range(n):
            prod *= m[i][perm[i]]
        total += prod
    return total


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(small_matrix)
@settings(max_examples=200)
def test_det_matches_permanent_expansion(m):
    assert det(m) == brute_det(m)


def test_det_singular():
    assert det([[1, 2], [2, 4]]) == 0


def test_rank():
    assert rank([[1, 2, 3], [2, 4, 6], [0, 1, 0]]) == 2


def test_smith_diagonal_known():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_diagonal(m) == [2, 2, 156]


@given(small_matrix)
@settings(max_examples=100)
def test_smith_divisibility_and_determinant(m):
    diag = smith_diagonal(m)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    d = det(m)
    prod = 1
    for x in diag:
        prod *= x
    assert abs(d) == prod


def test_smith_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(3)
    for _ in range(300):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            # a product through k < min(nr, nc) dimensions is rank-deficient
            k = rng.randint(0, min(nr, nc) - 1)
            a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
            b = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(k)]
            m = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]
        else:
            m = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        snf = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
        assert smith_diagonal(m) == [abs(int(snf[i, i])) for i in range(min(nr, nc))], m


def brute_membership(cols, v, box=3):
    n = len(v)
    if not cols:
        return all(x == 0 for x in v)
    for coeffs in product(range(-box, box + 1), repeat=len(cols)):
        got = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)]
        if got == list(v):
            return True
    return False


def test_lattice_membership_against_brute_force():
    cols = [[2, 0, 1], [0, 3, 1]]
    lat = ColumnLattice(3, cols)
    for v in product(range(-4, 5), repeat=3):
        expected = brute_membership(cols, list(v))
        assert lat.contains(list(v)) == expected


def test_lattice_reduce_is_canonical_on_cosets():
    cols = [[2, 1], [0, 3]]
    lat = ColumnLattice(2, cols)
    assert lat.index_in_ambient() == 6
    reps = set()
    for v in product(range(-6, 7), repeat=2):
        reps.add(lat.reduce(list(v)))
    assert len(reps) == 6
    # congruent vectors reduce identically
    assert lat.reduce([5, 4]) == lat.reduce([5 + 2, 4 + 1]) == lat.reduce([5, 4 + 3])


def test_lattice_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        ColumnLattice(2, [[1, 2, 3]])


def hermite_columns_reference(dim, cols):
    """Column HNF with every column operation over the whole column.

    The Hermite reduction as it stood before its column operations started
    at the current row; kept as the oracle for that restriction.
    """
    work = [list(c) for c in cols if any(x != 0 for x in c)]
    basis = []
    pivot_rows = []
    for r in range(dim):
        while True:
            live = [i for i, c in enumerate(work) if c[r] != 0]
            if len(live) <= 1:
                break
            p = min(live, key=lambda i: abs(work[i][r]))
            pc = work[p]
            for i in live:
                if i == p:
                    continue
                q = work[i][r] // pc[r]
                work[i] = [a - q * b for a, b in zip(work[i], pc)]
        live = [i for i, c in enumerate(work) if c[r] != 0]
        if not live:
            continue
        col = work.pop(live[0])
        if col[r] < 0:
            col = [-x for x in col]
        for k in range(len(basis)):
            q = basis[k][r] // col[r]
            if q != 0:
                basis[k] = [a - q * b for a, b in zip(basis[k], col)]
        basis.append(col)
        pivot_rows.append(r)
        work = [c for c in work if any(x != 0 for x in c)]
    return basis, pivot_rows


def test_hermite_columns_match_the_full_column_reference():
    # square, wide and tall matrices, full rank and rank-deficient, with and
    # without zero columns; the input columns stay untouched
    rng = random.Random(41)
    for _ in range(1500):
        dim, ncols = rng.randint(1, 6), rng.randint(0, 7)
        k = rng.randint(0, min(dim, ncols) + 1)
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(dim)]
        b = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(k)]
        cols = [[sum(a[i][t] * b[t][j] for t in range(k)) for i in range(dim)] for j in range(ncols)]
        if rng.random() < 0.3:
            cols = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(ncols)]
        before = [list(c) for c in cols]
        assert _hermite_columns(dim, cols) == hermite_columns_reference(dim, cols), cols
        assert cols == before
