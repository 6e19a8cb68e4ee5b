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

from .transforms import SizeCapError, check_int, element_cap

CLAMP = 1.0 - 1e-12
STEP_BUFFER = 2**17


@dataclass(frozen=True, eq=False)
class GridModel:
    points: np.ndarray
    diagonal: np.ndarray
    pi_indices: np.ndarray
    multiples_of_pi: int
    subdivisions: int


def build_grid(multiples_of_pi: int, subdivisions: int) -> GridModel:
    """Grid over [0, K*pi] with every multiple of pi a grid point.

    Raises :class:`SizeCapError` when the K*m + 1 points exceed the element cap.
    """
    check_int(multiples_of_pi, "multiples_of_pi", 1)
    check_int(subdivisions, "subdivisions", 1)
    count = multiples_of_pi * subdivisions + 1
    if count > element_cap():
        raise SizeCapError(f"grid of {count} points exceeds element cap {element_cap()}")
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
    check_int(index, "index", 0, len(model.points))
    w = np.zeros(len(model.points))
    w[index] = 1.0
    return w


def _check_measure(model: GridModel, mu: np.ndarray) -> None:
    if np.shape(mu) != model.points.shape:
        raise ValueError(f"measure of shape {np.shape(mu)} on a grid of {len(model.points)} points")


def iterate_adjoint(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """Entrywise mu_i * d_i^n; mass at pi indices is preserved exactly."""
    _check_measure(model, mu)
    check_int(n, "n", 0)
    return mu * model.diagonal**n


def iterate_stepwise(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """n single steps x <- fl(x * d), asserting bit-exact pi-mass invariance at each.

    Distinct entries: each entry is its own recurrence, and a multiply is
    a deterministic function of its operands, so two entries whose start
    value and diagonal entry have the same bits have the same bits at
    every step.  Only one entry per distinct pair, keyed on the ``uint64``
    bits of both, is stepped; the result is scattered back to the grid.
    |cos| has period pi and mirrors about pi/2, so many grid entries
    collapse: a uniform mu on ``build_grid(2, 100)`` has 152 distinct pairs
    in 201 entries.

    Blocks: each live entry owns one column of a buffer of ``STEP_BUFFER``
    float64 entries (1 MiB), its start value in the first row and its
    diagonal entry in the others; a block holds at least one step.  One
    ``np.multiply.reduce`` along the columns multiplies each row into a
    running row of all live entries, in step order (a float multiply
    reduction is a plain ordered loop, with no pairwise regrouping), so
    every entry still takes x <- fl(x * d) one step at a time while one
    vector multiply advances them all.  It stops one step short of the
    block's end, which one more multiply by the diagonal gives.  The pi
    entries take the first columns; an in-place ``np.multiply.accumulate``
    steps them through the block, and every step is compared with mu on
    the ``uint64`` view, so a NaN mass keeps its bits.

    Fixed points: an entry whose step leaves its bits unchanged (with
    d > 0: +-0, +-inf, NaN, a subnormal that x * d rounds back to x) keeps
    them at every later step.  After each block the off-pi entries whose
    last step left their bits unchanged, compared on the ``uint64`` view,
    leave the live set; the pi entries never leave.
    """
    _check_measure(model, mu)
    check_int(n, "n", 0)
    values = mu.astype(float)
    # Group equal bit pairs off one lexsort of the two uint64 columns.  It
    # sorts the d bits first, in grid order, where |cos| runs in monotone
    # stretches and sorts fast.
    bits = model.diagonal.view(np.uint64), values.view(np.uint64)
    order = np.lexsort(bits)
    d_bits, mu_bits = (column[order] for column in bits)
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (mu_bits[1:] != mu_bits[:-1]) | (d_bits[1:] != d_bits[:-1])
    first = order[fresh]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(fresh) - 1
    out = values[first]
    pi = np.zeros(len(out), dtype=bool)
    pi[inverse[model.pi_indices]] = True
    pi_cols = np.count_nonzero(pi)
    live = np.argsort(~pi, kind="stable")
    pi_mass = out[live[:pi_cols]].view(np.uint64)
    diagonal = model.diagonal[first[live]]
    start = out[live]
    buf = np.empty(max(2 * len(out), min(STEP_BUFFER, (n + 1) * len(out))))
    done = 0
    while done < n:
        steps = min(n - done, len(buf) // len(live) - 1)
        block = buf[:len(live) * (steps + 1)].reshape(steps + 1, len(live))
        block[0] = start
        block[1:] = diagonal
        before = np.multiply.reduce(block[:-1], axis=0)
        pi_steps = block[:, :pi_cols]
        np.multiply.accumulate(pi_steps, axis=0, out=pi_steps)
        assert (pi_steps.view(np.uint64) == pi_mass).all()
        done += steps
        start = before * diagonal
        moved = start.view(np.uint64) != before.view(np.uint64)
        moved[:pi_cols] = True
        if not moved.all():
            out[live] = start
            live, start, diagonal = live[moved], start[moved], diagonal[moved]
    out[live] = start
    return out[inverse]


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
    _check_measure(model, mu)
    check_int(n, "n", 1)
    d = model.diagonal
    off = d != 1.0
    dn = d**n
    sums = np.full_like(dn, float(n))
    sums[off] = (1.0 - dn[off]) / (1.0 - d[off])
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
    in :func:`cesaro_adjoint` keeps that evaluation cheap.

    Each n computes d^n once for both, and only for the off-pi entries
    whose power has not underflowed, held as a compacted index with their
    d and gap 1 - d: fl(d^m) = 0 means d^m < 2^-1074, so d^(2m) < 2^-2148
    rounds to 0 too, and such an entry keeps the geometric sum 1/gap, the
    bits of (1 - 0)/gap.  Both distances are summed over the whole grid
    in grid order, through one reused buffer, so pairwise summation sees
    the same terms in the same places as the direct formulas.  When mu
    has no mass on multiples of pi the limit is the zero vector: total
    mass is lost and the limit is not a probability measure.
    """
    if not tol >= 0:
        raise ValueError("need tol >= 0")
    check_int(max_n, "max_n", 1)
    _check_measure(model, mu)
    d = model.diagonal
    off = d != 1.0
    fixed = np.flatnonzero(~off)
    live = np.flatnonzero(off)
    d_live = d[live]
    gap_live = 1.0 - d_live
    dn = np.ones_like(d)
    sums = np.empty_like(d)
    terms = np.empty_like(d)
    target = pi_projection(model, mu)
    n_power = n_cesaro = None
    n = 1
    power_dist = cesaro_dist = float("inf")
    while n <= max_n and (n_power is None or n_cesaro is None):
        y = d_live ** n
        dn[live] = y
        keep = y != 0.0
        np.subtract(1.0, y, out=y)
        sums[live] = np.divide(y, gap_live, out=y)
        sums[fixed] = n
        if n_power is None:
            power_dist = _l1_distance(np.multiply(mu, dn, out=terms), target)
            if power_dist <= tol:
                n_power = n
        if n_cesaro is None:
            np.multiply(mu, sums, out=terms)
            cesaro_dist = _l1_distance(np.divide(terms, n, out=terms), target)
            if cesaro_dist <= tol:
                n_cesaro = n
        if not keep.all():
            live, d_live, gap_live = live[keep], d_live[keep], gap_live[keep]
        n *= 2
    return GridLimitReport(
        converged=n_power is not None and n_cesaro is not None,
        n_power=n_power,
        n_cesaro=n_cesaro,
        power_distance=power_dist,
        cesaro_distance=cesaro_dist,
        limit_is_probability=bool(abs(float(np.sum(target)) - 1.0) <= tol),
    )


def _l1_distance(terms: np.ndarray, target: np.ndarray) -> float:
    """sum |terms - target|, computed in place in ``terms``."""
    np.subtract(terms, target, out=terms)
    return float(np.sum(np.abs(terms, out=terms)))


def off_pi_trace_rows(model: GridModel, mu: np.ndarray, ns) -> list[tuple[str, str]]:
    """CSV rows (n, off_pi_mass) for decay plots."""
    return [
        (str(n), repr(off_pi_mass(model, iterate_adjoint(model, mu, n))))
        for n in ns
    ]
