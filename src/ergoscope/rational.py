"""Exact linear algebra over the rationals.

Everything here works on plain sequences of :class:`fractions.Fraction`
(rows of matrices, vectors).  No floating point enters any computation;
callers convert to float only for display.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction_rows(rows: Sequence[Sequence]) -> tuple[Row, ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity_rows(n: int) -> tuple[Row, ...]:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a: Sequence[Row], b: Sequence[Row]) -> tuple[Row, ...]:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def mat_vec(a: Sequence[Row], v: Sequence[Fraction]) -> Row:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_add(a: Sequence[Row], b: Sequence[Row]) -> tuple[Row, ...]:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Sequence[Row], b: Sequence[Row]) -> tuple[Row, ...]:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, a: Sequence[Row]) -> tuple[Row, ...]:
    return tuple(tuple(c * x for x in row) for row in a)


def max_abs(a: Sequence[Row]) -> Fraction:
    return max((abs(x) for row in a for x in row), default=ZERO)


def max_diff(a: Sequence[Row], b: Sequence[Row]) -> Fraction:
    return max(
        (abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)),
        default=ZERO,
    )


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(rows: Sequence[Sequence[Fraction]], n_cols: int) -> tuple[Row, ...]:
    """Canonical basis of {v : A v = 0}, one vector per free column."""
    if not rows:
        return identity_rows(n_cols)
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * n_cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return ()
    n_cols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [ZERO] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][n_cols]
    return tuple(x)


def lp_feasible_point(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Row | None:
    """Exact phase-1 simplex: some x >= 0 with A x = b, or None.

    Dense tableau with Bland's rule, so it terminates on every input.
    Intended for small systems (dozens of rows/columns).
    """
    a = [list(map(Fraction, row)) for row in rows]
    b = [Fraction(x) for x in rhs]
    if not a:
        return ()
    n = len(a[0])
    # Drop redundant rows first so every artificial can leave the basis.
    reduced, pivots = rref([row + [bi] for row, bi in zip(a, b)])
    if n in pivots:
        return None
    rows2 = [r for r in reduced if any(x != 0 for x in r)]
    a = [r[:n] for r in rows2]
    b = [r[n] for r in rows2]
    for i in range(len(a)):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    m = len(a)
    if m == 0:
        return tuple([ZERO] * n)
    # Tableau columns: n structural + m artificial + rhs.
    tab = [a[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # Cost row for minimizing the sum of artificials.
    cost = [ZERO] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    while True:
        enter = next(
            (j for j in range(n + m) if cost[j] < 0 and j not in basis), None
        )
        if enter is None:
            break
        ratios = [
            (tab[i][n + m] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            break
        _, _, leave = min(ratios)  # Bland: smallest ratio, then smallest basis index
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if -cost[n + m] != 0:
        return None
    x = [ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][n + m]
    return tuple(x)
