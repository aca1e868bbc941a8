"""Exact rational linear feasibility via a tiny phase-1 simplex.

One question is asked here: given integer row vectors C_1..C_k, is there a w
with C_i . w >= 1 for all i?  By the Gordan alternative this fails exactly
when some nonnegative, nonzero combination of the rows vanishes, so the
solver always returns a verified certificate for whichever side holds.
"""

from __future__ import annotations

from fractions import Fraction

from .intlinalg import pivot_step


def _phase1(eq_rows, rhs):
    """Minimize artificial mass for {x >= 0 : A x = b}; returns x or None.

    Bland's rule, exact fractions; rows are normalized to nonnegative rhs.
    """
    m = len(eq_rows)
    if m == 0:
        return []
    n = len(eq_rows[0])
    tab = []
    for i, (row, b) in enumerate(zip(eq_rows, rhs)):
        sign = -1 if b < 0 else 1
        # structural columns, the artificial identity, then the rhs
        unit = [Fraction(int(i == j)) for j in range(m)]
        tab.append([Fraction(sign * x) for x in row] + unit + [Fraction(sign * b)])
    basis = list(range(n, n + m))
    # the tableau's last row holds the reduced costs for minimizing the
    # artificial mass: structural columns carry the column sums, artificial
    # columns start at zero and must never re-enter the basis
    cost = [sum(col) for col in zip(*tab)]
    cost[n : n + m] = [Fraction(0)] * m
    tab.append(cost)

    while True:
        enter = next((j for j in range(n) if tab[m][j] > 0 and j not in basis), None)
        if enter is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            break  # unbounded cannot happen in phase 1; defensive
        _, _, leave = min(ratios)
        pivot_step(tab, leave, enter)
        basis[leave] = enter

    if tab[m][-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    return x


def separating_functional(rows):
    """(True, w) with row . w >= 1 for each row, else (False, y) with
    y >= 0 nonzero, sum_i y_i row_i = 0.  Both certificates are re-verified
    exactly before returning."""
    rows = [list(r) for r in rows]
    if not rows:
        return True, []
    n = len(rows[0])
    k = len(rows)
    # primal: row . (wp - wn) - s = 1,  all variables >= 0
    eq = []
    for i, r in enumerate(rows):
        surplus = [Fraction(0)] * k
        surplus[i] = Fraction(-1)
        eq.append([Fraction(x) for x in r] + [Fraction(-x) for x in r] + surplus)
    x = _phase1(eq, [1] * k)
    if x is not None:
        w = [x[j] - x[n + j] for j in range(n)]
        assert all(sum(a * b for a, b in zip(r, w)) >= 1 for r in rows)
        return True, w
    # alternative: y >= 0, rows^T y = 0, sum y = 1
    eq2 = [[Fraction(rows[i][j]) for i in range(k)] for j in range(n)]
    eq2.append([Fraction(1)] * k)
    y = _phase1(eq2, [0] * n + [1])
    if y is None:
        raise AssertionError("both sides of the alternative failed")
    assert all(y_i >= 0 for y_i in y) and sum(y) == 1
    for j in range(n):
        assert sum(y[i] * rows[i][j] for i in range(k)) == 0
    return False, y
