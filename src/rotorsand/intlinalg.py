"""Exact integer linear algebra: determinants, Smith form, Hermite lattice bases.

Everything runs over Python ints, so there is no overflow and no floating
point anywhere.  Matrices are sequences of equal-length integer rows.
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantViolation


def det(matrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rref(matrix):
    """Gauss-Jordan over the rationals: (reduced rows, pivot columns).

    Rows come back as Fractions, pivot rows first, each pivot 1 and alone
    in its column.  Stops as soon as every row holds a pivot.
    """
    from fractions import Fraction  # only rref needs it; kept off the start-up path

    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pivot_step(rows, r, c)
        pivots.append(c)
    return rows, pivots


def pivot_step(rows, r: int, c: int) -> None:
    """One Gauss-Jordan step in place: scale row r to a 1 in column c, then
    clear column c from every other row.  Entries are Fractions."""
    inv = 1 / rows[r][c]
    rows[r] = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]


def rank(matrix) -> int:
    """Rank over the rationals."""
    return len(rref(matrix)[1])


def smith_diagonal(matrix) -> list[int]:
    """Diagonal d1 | d2 | ... of the Smith normal form (nonnegative).

    Column Hermite reduction of the matrix, then of the transpose of what
    it left, in turn until that is diagonal: each round is a unimodular
    change of basis on one side, and each round that leaves a leading entry
    in place clears its row and column.  gcd/lcm swaps then make the
    diagonal a divisor chain.  Returns one entry per rank, padded with zeros
    up to min(rows, cols).
    """
    if not matrix or not matrix[0]:
        return []
    dim, cols = len(matrix), [list(c) for c in zip(*matrix)]
    while True:
        cols, _ = _hermite_columns(dim, cols)
        if all(x == 0 for k, c in enumerate(cols) for i, x in enumerate(c) if i != k):
            break
        dim, cols = len(cols), [list(r) for r in zip(*cols)]
    diag = [c[k] for k, c in enumerate(cols)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag + [0] * (min(len(matrix), len(matrix[0])) - len(diag))


class ColumnLattice:
    """The sublattice of Z^n spanned by a set of integer column vectors.

    Stored as a column-style Hermite basis: pivots on strictly increasing
    rows, positive, with entries to their right reduced into [0, pivot).
    Supports exact membership tests, a canonical coset representative and,
    at full rank, the numbering of every coset (``cosets``).
    """

    def __init__(self, dim: int, columns):
        self.dim = dim
        cols = [list(c) for c in columns]
        for c in cols:
            if len(c) != dim:
                raise ValueError("column of wrong dimension")
        self.basis, self.pivot_rows = _hermite_columns(dim, cols)

    @property
    def lattice_rank(self) -> int:
        return len(self.basis)

    def index_in_ambient(self) -> int:
        """Index [Z^n : L]; requires the lattice to have full rank."""
        if self.lattice_rank != self.dim:
            raise ValueError("lattice is not full rank")
        out = 1
        for k, r in enumerate(self.pivot_rows):
            out *= self.basis[k][r]
        return out

    def _eliminate(self, vector, first: int = 0):
        """Clear the vector against the pivots from index ``first`` on; the
        caller vouches that it is already reduced on the rows before."""
        v = list(vector)
        for k in range(first, len(self.pivot_rows)):
            r = self.pivot_rows[k]
            q = v[r] // self.basis[k][r]
            if q != 0:
                v = [a - q * b for a, b in zip(v, self.basis[k])]
        return v

    def contains(self, vector) -> bool:
        return all(x == 0 for x in self._eliminate(vector))

    def reduce(self, vector) -> tuple[int, ...]:
        """Canonical representative of vector + L (unique per coset).

        For a full-rank lattice this lands in the fundamental box of the
        Hermite basis, so two vectors reduce equally iff they are congruent.
        """
        if self.lattice_rank != self.dim:
            raise ValueError("canonical reduction needs a full-rank lattice")
        return tuple(self._eliminate(vector))

    def cosets(self) -> tuple[dict, tuple[tuple[int, ...], ...]]:
        """(index, succ): every coset of the full-rank lattice numbered once.

        Breadth-first from 0 by adding unit vectors to reduced keys: index
        maps each coset's ``reduce`` key to its number, in the order found,
        and succ[i][j] is the number of key i plus the j-th unit vector.  The
        unit vectors generate Z^n, so the closure reaches every coset; that
        it finds exactly ``index_in_ambient()`` of them is asserted.

        A step eliminates only from pivot j on: at full rank pivot k sits on
        row k, and a reduced key plus e_j is still reduced on the rows above
        j, so the earlier pivots would each subtract nothing.
        """
        zero = self.reduce([0] * self.dim)
        keys, index, succ = [zero], {zero: 0}, []
        for key in keys:  # keys grows as new cosets turn up
            row = []
            for j in range(self.dim):
                nxt = tuple(self._eliminate(key[:j] + (key[j] + 1,) + key[j + 1 :], j))
                if nxt not in index:
                    index[nxt] = len(keys)
                    keys.append(nxt)
                row.append(index[nxt])
            succ.append(tuple(row))
        if len(keys) != self.index_in_ambient():
            raise InvariantViolation("coset closure disagrees with the lattice index")
        return index, tuple(succ)


def _hermite_columns(dim, cols):
    """Column HNF of the given columns; returns (basis columns, pivot rows).

    Only elementary column operations are used, so the spanned lattice never
    changes.  After extracting the pivot for row r, every remaining working
    column is zero at r, which makes the basis triangular on pivot rows; it
    also keeps the working columns zero above row r, so every operation
    with one of them starts there.
    """
    work = [list(c) for c in cols if any(c)]
    basis = []
    pivot_rows = []
    for r in range(dim):
        live = [c for c in work if c[r] != 0]
        while len(live) > 1:
            pc = min(live, key=lambda c: abs(c[r]))
            tail = pc[r:]
            for c in live:
                if c is not pc:
                    q = c[r] // tail[0]
                    c[r:] = [a - q * b for a, b in zip(c[r:], tail)]
            live = [c for c in live if c[r] != 0]
        if not live:
            continue
        col = live[0]
        work = [c for c in work if c is not col and any(c[r + 1 :])]
        if col[r] < 0:
            col = [-x for x in col]
        # keep earlier pivots reduced against the new one
        for b in basis:
            q = b[r] // col[r]
            if q != 0:
                b[r:] = [x - q * y for x, y in zip(b[r:], col[r:])]
        basis.append(col)
        pivot_rows.append(r)
    return basis, pivot_rows
