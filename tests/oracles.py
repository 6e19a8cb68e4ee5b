"""Exact oracles shared by the tests; no library code calls them."""

from ergoscope.rational import ZERO, rref


def solve(rows, rhs):
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
