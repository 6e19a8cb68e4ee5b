"""Reference implementations shared by the tests; no library code calls them.

``solve`` is exact.  The cosgrid references are the earlier floating-point
routines, kept verbatim so that the faster ones can be required to give
the same bytes, except that the stepwise one calls ``np.multiply`` by
name, the same multiply as its earlier ``*=``, so that a test can
substitute a faulty one.  ``cayley_table`` composes image rows, independently of
the generator graphs, and ``multiplicative_on_all_pairs`` checks a map of
elements against it pair by pair.
"""

import numpy as np

from ergoscope.cosgrid import GridLimitReport, GridModel, iterate_adjoint, pi_projection
from ergoscope.rational import ZERO, rref
from ergoscope.transforms import TransSemigroup, _keys


def cayley_table(sg: TransSemigroup) -> np.ndarray:
    """table[i, j] = index of elements[i] o elements[j] (m x m)."""
    keys = _keys(sg.images)
    return np.stack([np.searchsorted(keys, _keys(sg.images[:, sg.images[j]]))
                     for j in range(sg.size)], axis=1)


def multiplicative_on_all_pairs(sg: TransSemigroup, images: np.ndarray) -> bool:
    """Whether elements[i] -> images[i] maps every product s o t to images[s] o images[t]."""
    table = cayley_table(sg)
    return all(np.array_equal(images[table[:, t]], images[:, images[t]])
               for t in range(sg.size))


def principal_ideal(sg: TransSemigroup, a: int) -> frozenset[int]:
    """S^1 a S^1: everything reached from a by left and right generator steps."""
    members = {a}
    frontier = [a]
    while frontier:
        fresh = set(sg.left[frontier].ravel().tolist())
        fresh |= set(sg.right[frontier].ravel().tolist())
        fresh -= members
        members |= fresh
        frontier = list(fresh)
    return frozenset(members)


def enumerate_all_ideals(sg: TransSemigroup) -> list[frozenset[int]]:
    """Every nonempty two-sided ideal, by brute force over subsets.

    A subset is an ideal when both generator graphs map it into itself.
    Exponential in the semigroup size; only for small oracles.
    """
    m = sg.size
    if m > 20:
        raise ValueError("subset enumeration is only feasible for small semigroups")
    steps = [set(sg.left[q].tolist()) | set(sg.right[q].tolist()) for q in range(m)]
    ideals = []
    for bits in range(1, 1 << m):
        members = {i for i in range(m) if bits >> i & 1}
        if all(steps[q] <= members for q in members):
            ideals.append(frozenset(members))
    return ideals


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


def iterate_stepwise(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """n single steps, asserting bit-exact pi-mass invariance at each."""
    pi_mass = mu[model.pi_indices].copy()
    out = mu.astype(float).copy()
    for _ in range(n):
        np.multiply(out, model.diagonal, out=out)
        assert np.array_equal(out[model.pi_indices], pi_mass)
    return out


def cesaro_adjoint(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_{k<n} D^k mu via the closed geometric form per entry."""
    if n < 1:
        raise ValueError("need n >= 1")
    d = model.diagonal
    sums = np.empty_like(d)
    ones = d == 1.0
    sums[ones] = float(n)
    dn = d[~ones]
    sums[~ones] = (1.0 - dn**n) / (1.0 - dn)
    return mu * sums / n


def weak_star_limit_check(model: GridModel, mu: np.ndarray, tol: float,
                          max_n: int = 10**14) -> GridLimitReport:
    """Raw powers and Cesàro averages against the pi projection."""
    target = pi_projection(model, mu)
    n_power = n_cesaro = None
    n = 1
    power_dist = cesaro_dist = float("inf")
    while n <= max_n and (n_power is None or n_cesaro is None):
        if n_power is None:
            power_dist = float(np.sum(np.abs(iterate_adjoint(model, mu, n) - target)))
            if power_dist <= tol:
                n_power = n
        if n_cesaro is None:
            cesaro_dist = float(np.sum(np.abs(cesaro_adjoint(model, mu, n) - target)))
            if cesaro_dist <= tol:
                n_cesaro = n
        n *= 2
    return GridLimitReport(
        converged=n_power is not None and n_cesaro is not None,
        n_power=n_power,
        n_cesaro=n_cesaro,
        power_distance=power_dist,
        cesaro_distance=cesaro_dist,
        limit_is_probability=bool(abs(float(np.sum(target)) - 1.0) <= tol),
    )
