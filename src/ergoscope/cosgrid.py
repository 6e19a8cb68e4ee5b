"""Iterating the |cos| multiplication operator on a grid.

The operator (Tf)(x) = |cos(x)| f(x) is modeled as a diagonal matrix on
the grid x_i = i*pi/m.  Diagonal entries at exact multiples of pi are
forced to exactly 1.0 rather than computed through the cosine routine,
so the fixed-point structure is exact; all other entries sit strictly
below 1 and their mass decays geometrically under iteration.  This is
the one floating-point module; tolerances are explicit arguments.

The full function-space statements (trivial fixed space, failure of
strong mean ergodicity) live on the line, not on a grid: grid vectors
supported on multiples of pi are fixed here, and the model reproduces
only the weak* limit onto the pi point masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLAMP = 1.0 - 1e-12


@dataclass(frozen=True, eq=False)
class GridModel:
    points: np.ndarray
    diagonal: np.ndarray
    pi_indices: np.ndarray
    multiples_of_pi: int
    subdivisions: int


def build_grid(multiples_of_pi: int, subdivisions: int) -> GridModel:
    """Grid over [0, K*pi] with every multiple of pi a grid point."""
    if multiples_of_pi < 1 or subdivisions < 1:
        raise ValueError("need at least one pi multiple and one subdivision")
    count = multiples_of_pi * subdivisions + 1
    idx = np.arange(count)
    points = idx * (np.pi / subdivisions)
    diagonal = np.abs(np.cos(points))
    pi_indices = idx[idx % subdivisions == 0]
    off = np.ones(count, dtype=bool)
    off[pi_indices] = False
    diagonal[off] = np.minimum(diagonal[off], CLAMP)
    diagonal[pi_indices] = 1.0
    assert np.all(diagonal[off] < 1.0)
    return GridModel(points, diagonal, pi_indices, multiples_of_pi, subdivisions)


def uniform_weights(model: GridModel) -> np.ndarray:
    n = len(model.points)
    return np.full(n, 1.0 / n)


def dirac_weights(model: GridModel, index: int) -> np.ndarray:
    w = np.zeros(len(model.points))
    w[index] = 1.0
    return w


def iterate_adjoint(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """Entrywise mu_i * d_i^n; mass at pi indices is preserved exactly."""
    if n < 0:
        raise ValueError("need n >= 0")
    return mu * model.diagonal**n


def iterate_stepwise(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """n single steps, asserting bit-exact pi-mass invariance at each; the
    steps fill a buffer of at most 1 MiB whose pi columns are checked after each fill."""
    if n < 0:
        raise ValueError("need n >= 0")
    out = mu.astype(float)
    steps = np.empty((max(1, min(n, 2**17 // len(out))), len(out)))
    for done in range(0, n, len(steps)):
        for row in steps[:n - done]:
            out = np.multiply(out, model.diagonal, out=row)
        assert (steps[:n - done, model.pi_indices] == mu[model.pi_indices]).all()
    return out.copy()


def pi_projection(model: GridModel, mu: np.ndarray) -> np.ndarray:
    """The measure sum_k mu({pi k}) delta_{pi k}; off-pi mass dropped."""
    out = np.zeros_like(mu, dtype=float)
    out[model.pi_indices] = mu[model.pi_indices]
    return out


def off_pi_mass(model: GridModel, mu: np.ndarray) -> float:
    total = float(np.sum(np.abs(mu)))
    return total - float(np.sum(np.abs(mu[model.pi_indices])))


def cesaro_adjoint(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_{k<n} D^k mu via the closed geometric form per entry."""
    if n < 1:
        raise ValueError("need n >= 1")
    d = model.diagonal
    off = d != 1.0
    return _geometric_mean(mu, d**n, n, off, 1.0 - d[off])


def _geometric_mean(mu, dn, n, off, gap):
    """(1/n) sum_{k<n} D^k mu from dn = d**n and gap = 1 - d[off]."""
    sums = np.full_like(dn, float(n))
    sums[off] = (1.0 - dn[off]) / gap
    return mu * sums / n


@dataclass(frozen=True)
class GridLimitReport:
    converged: bool
    n_power: int | None
    n_cesaro: int | None
    power_distance: float
    cesaro_distance: float
    limit_is_probability: bool


def weak_star_limit_check(model: GridModel, mu: np.ndarray, tol: float,
                          max_n: int = 10**14) -> GridLimitReport:
    """Raw powers and Cesàro averages against the pi projection.

    Both iterations must land within ``tol`` of the projection in l1
    norm; the first checked n achieving it is reported for each, on a
    doubling schedule.  Powers converge geometrically but Cesàro
    averages only like 1/n, so their n is much larger; the closed form
    in :func:`cesaro_adjoint` keeps that evaluation cheap.  Each n computes
    d^n once for both, skipping entries where d^(n/2) underflowed: fl(d^m)
    = 0 means d^m < 2^-1074, so d^(2m) < 2^-2148 rounds to 0 too.  When mu has
    no mass on multiples of pi the limit is the zero vector: total mass
    is lost and the limit is not a probability measure.
    """
    if not tol >= 0:
        raise ValueError("need tol >= 0")
    d = model.diagonal
    off = d != 1.0
    gap = 1.0 - d[off]
    dn = np.ones_like(d)
    target = pi_projection(model, mu)
    n_power = n_cesaro = None
    n = 1
    power_dist = cesaro_dist = float("inf")
    while n <= max_n and (n_power is None or n_cesaro is None):
        live = dn != 0.0
        dn[live] = d[live] ** n
        if n_power is None:
            power_dist = float(np.sum(np.abs(mu * dn - target)))
            if power_dist <= tol:
                n_power = n
        if n_cesaro is None:
            cesaro_dist = float(np.sum(np.abs(_geometric_mean(mu, dn, n, off, gap) - target)))
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


def off_pi_trace_rows(model: GridModel, mu: np.ndarray, ns) -> list[tuple[str, str]]:
    """CSV rows (n, off_pi_mass) for decay plots."""
    return [
        (str(n), repr(off_pi_mass(model, iterate_adjoint(model, mu, n))))
        for n in ns
    ]
