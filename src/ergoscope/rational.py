"""Exact linear algebra over the rationals.

Matrices and vectors come in as plain sequences of
:class:`fractions.Fraction` or int entries.  The products work on
``Fraction`` entries; the one elimination, ``rref``, and the phase-1
simplex work on integer rows, each a positive multiple of the rational
row it stands for, and divide only where they build a ``Fraction``
result.  No floating point enters any computation; callers convert to
float only for display.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Sequence

Row = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def check_rational(value, name: str) -> None:
    """Raise ValueError unless ``value`` is a rational number (not a bool)."""
    if type(value) not in (Fraction, int) and (isinstance(value, bool)
                                              or not isinstance(value, numbers.Rational)):
        raise ValueError(f"need a rational {name}, got {value!r}")


def identity_rows(n: int) -> tuple[Row, ...]:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a: Sequence[Row], b: Sequence[Row]) -> tuple[Row, ...]:
    """Exact A B.  Each entry sums, from ZERO, only the products of two
    nonzero entries, so it stays a Fraction and zeros cost nothing."""
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = [[ZERO] * (len(b[0]) if b else 0) for _ in a]
    for acc, row in zip(out, a):
        for x, b_row in zip(row, b_nonzero):
            for j, y in b_row if x else ():
                acc[j] += x * y
    return tuple(map(tuple, out))


def mat_vec(a: Sequence[Row], v: Sequence[Fraction]) -> Row:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_sub(a: Sequence[Row], b: Sequence[Row]) -> tuple[Row, ...]:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def integer_form(xs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(d, (d * x for x in xs)) for the least common denominator d of xs:
    the entries as integers over one denominator."""
    d = math.lcm(*[x.denominator for x in xs])
    return d, tuple(x.numerator * (d // x.denominator) for x in xs)


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries (a zero row stays as it is)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Fraction-free elimination on the pivot p = rows[r][c] > 0: every other
    row with an entry f != 0 in column c becomes ``p row_i - f row_r``
    divided by the gcd of its entries.  Each row stays a positive multiple
    of the rational row it stands for, so every zero entry, every sign and
    every ratio of two entries of a row are those of the rational pivot."""
    row, p = rows[r], rows[r][c]
    for i, other in enumerate(rows):
        f = other[c]
        if f and i != r:
            rows[i] = _primitive([p * x - f * y for x, y in zip(other, row)])


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form on integer rows; returns (rows, pivot columns).

    Each row is read as integers over its least common denominator and
    kept primitive, and row r's pivot is made positive before ``_pivot``
    eliminates its column, so the reduced rational row r is ``rows[r]``
    divided by ``rows[r][pivots[r]]``, and the zero entries, and with them
    the pivot columns, are those of the rational elimination.
    """
    m = []
    for row in rows:
        d = math.lcm(*[x.denominator for x in row])
        m.append(_primitive([x.numerator * (d // x.denominator) for x in row]))
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        _pivot(m, r, c)
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
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * n_cols
        v[fc] = ONE
        for row, pc in zip(reduced, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return tuple(basis)


def lp_feasible_point(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Row | None:
    """Exact phase-1 simplex: some x >= 0 with A x = b, or None.

    Dense tableau with Bland's rule, so it terminates on every input.
    Intended for small systems (dozens of rows/columns).  Redundant rows
    go first, so that every artificial can leave the basis: zero and
    repeated rows of [A | b] before the elimination, the rest by it.  The
    reduced echelon form depends only on the row space, so the tableau
    and the point returned do not depend on row order or repeats.

    Every tableau row is a primitive integer row, and the cost row is the
    tableau's last, so one ``_pivot`` updates them all and keeps every sign
    and every ratio rhs_i / entry_i that Bland's rule reads: the pivots and
    the vertex, x[bv] = rhs_i / row_i[bv], are the rational tableau's.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    if not rows:
        return ()
    n = len(rows[0])
    if set(map(len, rows)) != {n}:
        raise ValueError(f"ragged rows: need {n} entries in every row")
    distinct = dict.fromkeys((*row, bi) for row, bi in zip(rows, rhs))
    reduced, pivots = rref([row for row in distinct if any(row)])
    if n in pivots:
        return None
    m = len(pivots)
    if m == 0:
        return tuple([ZERO] * n)
    # Tableau columns: n structural + m artificial + rhs.  Reduced row i is
    # its pivot p times the rational row, so its artificial entry is p; a
    # negative b flips the row.
    scales = [row[pc] for row, pc in zip(reduced, pivots)]
    tab = []
    for i, row in enumerate(reduced[:m]):
        s = -1 if row[n] < 0 else 1
        tab.append([s * x for x in row[:n]] + [0] * m + [s * row[n]])
        tab[i][n + i] = scales[i]
    basis = [n + i for i in range(m)]
    # Reduced costs for minimizing the sum of artificials: 0 on the basic
    # artificials, minus the column sums elsewhere, -sum b at the right;
    # here times the lcm of the scales.
    lcm = math.lcm(*scales)
    cost = [-sum(lcm // p * row[j] for p, row in zip(scales, tab)) for j in range(n + m + 1)]
    cost[n:n + m] = [0] * m
    tab.append(_primitive(cost))
    while True:
        cost = tab[-1]
        enter = next(
            (j for j in range(n + m) if cost[j] < 0 and j not in basis), None
        )
        if enter is None:
            break
        # Bland: smallest ratio, then smallest basis index.  Phase 1 is bounded
        # below by 0, so a column of negative reduced cost has a positive entry.
        _, _, leave = min((Fraction(row[-1], row[enter]), basis[i], i)
                          for i, row in enumerate(tab[:m]) if row[enter] > 0)
        _pivot(tab, leave, enter)
        basis[leave] = enter
    if tab[-1][n + m] != 0:
        return None
    x = [ZERO] * n
    for row, bv in zip(tab, basis):
        if bv < n:
            x[bv] = Fraction(row[n + m], row[bv])
    return tuple(x)
