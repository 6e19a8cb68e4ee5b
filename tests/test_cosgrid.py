import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergoscope.cosgrid import (
    GridLimitReport,
    build_grid,
    cesaro_adjoint,
    dirac_weights,
    iterate_adjoint,
    iterate_stepwise,
    off_pi_mass,
    off_pi_trace_rows,
    pi_projection,
    uniform_weights,
    weak_star_limit_check,
)
from ergoscope.transforms import SizeCapError


def test_grid_structure():
    model = build_grid(2, 100)
    assert len(model.points) == 201
    assert list(model.pi_indices) == [0, 100, 200]
    assert all(model.diagonal[i] == 1.0 for i in model.pi_indices)
    off = np.delete(model.diagonal, model.pi_indices)
    assert np.all(off < 1.0)
    assert math.isclose(model.points[100], math.pi)


def test_dirac_at_pi_is_fixed():
    model = build_grid(2, 100)
    mu = dirac_weights(model, 100)
    for n in (1, 10, 10**5):
        assert np.array_equal(iterate_adjoint(model, mu, n), mu)


def test_off_pi_geometric_decay():
    model = build_grid(2, 100)
    index = 50  # x = pi/2, |cos| clamped small
    c = model.diagonal[index]
    mu = dirac_weights(model, index)
    for n in (1, 5, 20):
        out = iterate_adjoint(model, mu, n)
        assert out[index] == pytest.approx(c**n)
        assert off_pi_mass(model, out) <= c**n + 1e-15


def test_uniform_l1_bound_at_1e5():
    # Off-pi mass after n steps is at most 201 * (1/201) * c^n with
    # c = cos(pi/100), far below 1e-6 at n = 1e5.
    model = build_grid(2, 100)
    mu = uniform_weights(model)
    out = iterate_adjoint(model, mu, 10**5)
    dist = float(np.abs(out - pi_projection(model, mu)).sum())
    c = math.cos(math.pi / 100)
    assert dist <= 201 * (1 / 201) * c**10**5 + 1e-15
    assert dist <= 1e-6


def test_stepwise_pi_mass_bit_exact():
    model = build_grid(2, 100)
    mu = uniform_weights(model)
    out = iterate_stepwise(model, mu, 500)
    assert np.array_equal(out[model.pi_indices], mu[model.pi_indices])


def test_weak_star_limit_uniform():
    model = build_grid(2, 100)
    report = weak_star_limit_check(model, uniform_weights(model), 1e-6)
    assert report.converged
    assert report.n_power is not None and report.n_power <= 10**5
    assert report.n_cesaro is not None
    assert report.limit_is_probability is False  # off-pi mass was lost


def test_weak_star_limit_dirac_at_zero():
    model = build_grid(2, 100)
    report = weak_star_limit_check(model, dirac_weights(model, 0), 1e-12)
    assert report.n_power == 1 and report.n_cesaro == 1
    assert report.limit_is_probability


def test_off_pi_only_measure_loses_all_mass():
    model = build_grid(2, 100)
    mu = dirac_weights(model, 37)
    report = weak_star_limit_check(model, mu, 1e-9)
    assert report.converged
    assert not report.limit_is_probability
    assert np.all(pi_projection(model, mu) == 0.0)


def test_cesaro_matches_direct_average():
    model = build_grid(1, 7)
    mu = uniform_weights(model)
    n = 50
    direct = np.zeros_like(mu)
    for k in range(n):
        direct += iterate_adjoint(model, mu, k)
    direct /= n
    assert np.allclose(cesaro_adjoint(model, mu, n), direct, atol=1e-12, rtol=0)


def test_cesaro_and_power_limits_coincide():
    model = build_grid(2, 100)
    mu = uniform_weights(model)
    tol = 1e-6
    report = weak_star_limit_check(model, mu, tol)
    target = pi_projection(model, mu)
    a = iterate_adjoint(model, mu, report.n_power)
    b = cesaro_adjoint(model, mu, report.n_cesaro)
    assert float(np.abs(a - b).sum()) <= 2 * tol


def test_trace_rows():
    model = build_grid(2, 100)
    rows = off_pi_trace_rows(model, uniform_weights(model), [1, 10, 100])
    assert [r[0] for r in rows] == ["1", "10", "100"]
    masses = [float(r[1]) for r in rows]
    assert masses == sorted(masses, reverse=True)


# The faster weak_star_limit_check and iterate_stepwise against the
# earlier routines, kept verbatim in ``oracles``: same bytes everywhere.

@st.composite
def grid_measures(draw):
    """A grid with K 1-3 and 1-2,000 subdivisions, and a uniform, Dirac
    (on or off pi), random signed, zero or special measure on it; the
    special one puts NaN, +-inf, +0.0 and -0.0 on random off-pi entries.
    Some grids have negative off-pi diagonal entries, where 0.0 * d = -0.0,
    so that value and bit equality differ."""
    model = build_grid(draw(st.integers(1, 3)), draw(st.integers(1, 2000)))
    size = len(model.points)
    # With one subdivision every point is a multiple of pi.
    off = [i for i in range(1, size - 1) if model.diagonal[i] != 1.0] or [0]
    kind = draw(st.sampled_from(["uniform", "dirac_pi", "dirac_off", "signed", "zero", "special"]))
    if kind == "uniform":
        mu = uniform_weights(model)
    elif kind == "dirac_pi":
        mu = dirac_weights(model, int(draw(st.sampled_from(list(model.pi_indices)))))
    elif kind == "dirac_off":
        mu = dirac_weights(model, draw(st.sampled_from(off)))
    elif kind in ("signed", "special"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mu = rng.standard_normal(size) * draw(st.sampled_from([1.0, 1e-300, 1e-310]))
        if kind == "special" and off != [0]:
            specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
            mu[off] = np.where(rng.random(len(off)) < 0.5, rng.choice(specials, len(off)), mu[off])
    else:
        mu = np.zeros(size)
    if draw(st.booleans()) and off != [0]:
        diagonal = model.diagonal.copy()
        diagonal[draw(st.lists(st.sampled_from(off), min_size=1, max_size=50))] *= -1
        model = dataclasses.replace(model, diagonal=diagonal)
    return model, mu


TOLS = [0.0] + [10.0**-k for k in range(3, 16)]


@settings(max_examples=300, deadline=None)
@given(grid_measures(), st.sampled_from(TOLS),
       st.integers(1, 2**12) | st.just(10**14))
@example((build_grid(2, 10**4), uniform_weights(build_grid(2, 10**4))), 1e-12, 10**14)
# With tol 0 the power distance must reach exactly 0, when the mass underflows.
@example((build_grid(1, 7), dirac_weights(build_grid(1, 7), 3)), 0.0, 10**14)
def test_weak_star_check_matches_reference(model_mu, tol, max_n):
    model, mu = model_mu
    # inf * 0 and inf - inf are NaN in both, as they should be.
    with np.errstate(invalid="ignore"):
        new = weak_star_limit_check(model, mu, tol, max_n)
        ref = oracles.weak_star_limit_check(model, mu, tol, max_n)
    for field in dataclasses.fields(ref):
        assert repr(getattr(new, field.name)) == repr(getattr(ref, field.name))


def negated_off_pi(model):
    """``model`` with every off-pi diagonal entry negated."""
    return dataclasses.replace(model, diagonal=np.where(model.diagonal < 1, -model.diagonal, 1.0))


@settings(max_examples=15, deadline=None)
@given(grid_measures())
@example((build_grid(1, 1), np.array([0.5, -2.0**-1074])))
# Zeros that change sign at every step: equal in value, never in bits.
@example((negated_off_pi(build_grid(2, 100)), np.zeros(201)))
@example((build_grid(2, 100), uniform_weights(build_grid(2, 100))))
@example((build_grid(2, 100), dirac_weights(build_grid(2, 100), 37)))
def test_stepwise_matches_reference_across_blocks(model_mu):
    model, mu = model_mu
    block = max(1, 2**17 // len(mu))
    # The counts reach past the first block and past the first fixed
    # entries leaving the live set.  The reference runs on from one count
    # to the next, as a step reads only the values of the step before.
    ref, done = mu, 0
    for n in sorted((0, 1, block - 1, block, block + 1, block + 5, block + 40, 3 * block + 7)):
        ref, done = oracles.iterate_stepwise(model, ref, n - done), n
        assert iterate_stepwise(model, mu, n).tobytes() == ref.tobytes()


def distinct_pairs(model, mu):
    """The number of distinct (mu_i, d_i) bit pairs: the entries iterate_stepwise steps."""
    values = np.asarray(mu, dtype=float).view(np.uint64).tolist()
    return len(set(zip(values, model.diagonal.view(np.uint64).tolist())))


@settings(max_examples=15, deadline=None)
@given(grid_measures())
@example((build_grid(2, 100), uniform_weights(build_grid(2, 100))))
@example((build_grid(2, 100), dirac_weights(build_grid(2, 100), 37)))
@example((negated_off_pi(build_grid(3, 2000)), uniform_weights(build_grid(3, 2000))))
def test_stepwise_matches_reference_across_distinct_blocks(model_mu):
    # A block holds 2**17 // (distinct pairs) steps, not 2**17 // len(mu).
    model, mu = model_mu
    block = max(1, 2**17 // distinct_pairs(model, mu))
    ref, done = mu, 0
    for n in sorted({0, 1, block - 1, block, block + 1, block + 5, block + 40, 3 * block + 7}):
        ref, done = oracles.iterate_stepwise(model, ref, n - done), n
        assert iterate_stepwise(model, mu, n).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stepwise_one_step_blocks_match_reference(n):
    # Over 65,536 distinct entries a row of the buffer holds one step, so
    # the fixed entries are found against each block's start values.
    model = build_grid(1, 2**17)
    rng = np.random.default_rng(7)
    mu = rng.standard_normal(len(model.points))
    off = np.flatnonzero(model.diagonal != 1.0)
    specials = [0.0, -0.0, np.inf, np.nan, 5e-324]
    mu[off[:1000]] = np.resize(specials, 1000)
    assert distinct_pairs(model, mu) > 2**16
    with np.errstate(invalid="ignore"):
        out = iterate_stepwise(model, mu, n)
        ref = oracles.iterate_stepwise(model, mu, n)
    assert out.tobytes() == ref.tobytes()


def test_stepwise_keys_hold_the_value_and_the_diagonal_entry():
    # d[1], d[99] and d[199] have the same bits; only mu tells them apart.
    model = build_grid(2, 100)
    assert model.diagonal[1] == model.diagonal[99] == model.diagonal[199]
    one_mirror = uniform_weights(model)
    one_mirror[99] *= 3
    for mu in (one_mirror, np.linspace(1.0, 2.0, 201) / 301.5):
        for n in (1, 1000, 10**4):
            out = iterate_stepwise(model, mu, n)
            assert out.tobytes() == oracles.iterate_stepwise(model, mu, n).tobytes()
            assert out[1] != out[99]


# Off-pi start values whose steps are fixed at once, never, or only
# after a while: NaN, +-inf, +-0, subnormals and the normal numbers
# around them.
SPECIAL_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0**-1060,
                  -2.2e-310, 2.0**-1022, 1.0, -0.75, 1e300]


GRIDS_UP_TO_40_POINTS = [(1, m) for m in range(1, 40)] + [(2, m) for m in range(1, 20)]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(GRIDS_UP_TO_40_POINTS), st.booleans(), st.data())
@example((1, 1), False, None)  # width 1: two pi entries of one value
@example((1, 2), False, None)  # a NaN off pi
@example((1, 39), True, None)
def test_stepwise_matches_reference_across_live_widths(grid, negate, data):
    # Every live width from 1 to 40: grids of at most 40 points and start
    # values drawn from a small pool, so that some pairs repeat.
    model = build_grid(*grid)
    if negate:
        model = negated_off_pi(model)
    if data is None:
        mu = np.full(len(model.points), 0.5)
        mu[1:-1] = np.nan
    else:
        pool = data.draw(st.lists(st.sampled_from(SPECIAL_VALUES) | st.floats(-2.0, 2.0),
                                  min_size=1, max_size=len(model.points)))
        mu = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=len(model.points),
                                         max_size=len(model.points))))
    width = distinct_pairs(model, mu)
    assert 1 <= width <= 40
    block = 2**17 // width - 1
    ref, done = mu, 0
    for n in sorted({0, 1, block - 1, block, block + 1, 2 * block + 3}):
        ref, done = oracles.iterate_stepwise(model, ref, n - done), n
        assert iterate_stepwise(model, mu, n).tobytes() == ref.tobytes()


def test_stepwise_matches_reference_on_many_distinct_entries():
    # 15,130 distinct pairs: the first blocks hold 7 steps each.
    model = build_grid(2, 10**4)
    mu = uniform_weights(model)
    assert distinct_pairs(model, mu) == 15130
    assert iterate_stepwise(model, mu, 1000).tobytes() == \
        oracles.iterate_stepwise(model, mu, 1000).tobytes()


@pytest.mark.parametrize("points", range(1, 9))
def test_stepwise_matches_reference_on_small_supports(points):
    # A measure on a few off-pi points, each with its own value: after the
    # first block only the pi entries and these points are live.
    model = build_grid(2, 100)
    rng = np.random.default_rng(points)
    off = np.flatnonzero(model.diagonal != 1.0)
    mu = np.zeros(len(model.points))
    mu[rng.choice(off, points, replace=False)] = rng.random(points)
    for n in (1, 2**17 // distinct_pairs(model, mu) + 1, 10**5):
        assert iterate_stepwise(model, mu, n).tobytes() == \
            oracles.iterate_stepwise(model, mu, n).tobytes()


def test_stepwise_keeps_a_nan_mass_on_pi():
    # NaN * 1.0 keeps the bits of NaN, payload too, though NaN != NaN.
    model = build_grid(1, 10)
    mu = uniform_weights(model)
    mu[0] = np.uint64(0x7FF8000000000123).view(np.float64)
    out = iterate_stepwise(model, mu, 3)
    assert out[:1].tobytes() == mu[:1].tobytes()
    assert out.tobytes() == oracles.iterate_stepwise(model, mu, 3).tobytes()


class MultiplyWidths:
    """``np.multiply`` recording the width of each reduce along ``axis=0``,
    one per block: the live entries that block steps."""

    multiply = np.multiply

    def __init__(self):
        self.widths = []

    def reduce(self, rows, axis=0, out=None):
        assert axis == 0
        self.widths.append(rows.shape[1])
        return self.multiply.reduce(rows, axis=axis, out=out)

    def accumulate(self, rows, axis=0, out=None):
        return self.multiply.accumulate(rows, axis=axis, out=out)


def test_stepwise_multiplies_distinct_live_entries_only(monkeypatch):
    model = build_grid(2, 100)
    mu = uniform_weights(model)
    distinct = distinct_pairs(model, mu)
    assert distinct == 152
    widths = MultiplyWidths()
    with monkeypatch.context() as patch:
        patch.setattr(np, "multiply", widths)
        final = iterate_stepwise(model, mu, 10**5)
    assert max(widths.widths) == distinct
    # Each block but the last fills the 1 MiB buffer: one column per live
    # entry, its start value and then its steps.
    s = sum(2**17 // width - 1 for width in widths.widths[:-1])
    assert s < 10**5 <= s + 2**17 // widths.widths[-1] - 1
    # The last block steps the pi entries and those whose step s changed
    # their bits: the fixed entries have left the live set.
    before = iterate_stepwise(model, mu, s - 1)
    moved = before.view(np.uint64) != oracles.iterate_stepwise(model, before, 1).view(np.uint64)
    moved[model.pi_indices] = True
    live = len(set(zip(mu[moved].view(np.uint64).tolist(),
                       model.diagonal[moved].view(np.uint64).tolist())))
    assert widths.widths[-1] == live < distinct
    assert hashlib.sha256(final.tobytes()).hexdigest() == STEPWISE_SHA256


def test_negative_arguments_raise():
    model = build_grid(1, 10)
    mu = uniform_weights(model)
    with pytest.raises(ValueError, match="need n >= 0"):
        iterate_stepwise(model, mu, -1)
    for tol in (-1e-9, float("nan")):
        with pytest.raises(ValueError, match="need tol >= 0"):
            weak_star_limit_check(model, mu, tol)


@pytest.mark.parametrize("call, message", [
    (lambda: build_grid(True, 10), "need an integer multiples_of_pi, got True"),
    (lambda: build_grid(2, True), "need an integer subdivisions, got True"),
    (lambda: build_grid(2, 100.5), "need an integer subdivisions, got 100.5"),
    (lambda: weak_star_limit_check(build_grid(1, 10), uniform_weights(build_grid(1, 10)),
                                   1e-6, max_n=-3), "need max_n >= 1"),
], ids=["multiples-bool", "subdivisions-bool", "subdivisions-float", "max-n-negative"])
def test_grid_counts_must_be_positive_integers(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def off_by_one_ulp(model):
    """``model`` with its first pi diagonal entry just below 1."""
    diagonal = model.diagonal.copy()
    diagonal[model.pi_indices[0]] = 1 - 2**-53
    return dataclasses.replace(model, diagonal=diagonal)


class LateFault:
    """``np.multiply`` whose factors of exactly 1.0, the pi entries of the
    diagonal, multiply as ``off_by_one_ulp``'s from the ``step``-th step
    on.  A call is one step, its second operand the factors, and so is
    each row after the first of an accumulate along ``axis=0``, the one
    that steps the pi entries for their check; a reduce passes through.
    So the first wrong pi mass appears at that step however the steps
    are batched: with a fixed diagonal it always appears at step 1."""

    multiply = np.multiply

    def __init__(self, step):
        self.step = step
        self.done = 0

    def _factors(self, factors):
        factors = np.array(factors, ndmin=2)
        late = factors[max(0, self.step - 1 - self.done):]
        late[late == 1.0] = 1 - 2**-53
        self.done += len(factors)
        return factors

    def __call__(self, values, factors, out=None):
        return self.multiply(values, self._factors(factors)[0], out=out)

    def accumulate(self, rows, axis=0, out=None):
        assert axis == 0
        rows = np.concatenate([rows[:1], self._factors(rows[1:])])
        return self.multiply.accumulate(rows, axis=0, out=out)

    def reduce(self, rows, axis=0, out=None):
        return self.multiply.reduce(rows, axis=axis, out=out)


@pytest.mark.parametrize("stepwise", [iterate_stepwise, oracles.iterate_stepwise],
                         ids=["blocked", "reference"])
def test_stepwise_catches_a_wrong_pi_entry(stepwise, monkeypatch):
    model = build_grid(2, 100)
    mu = uniform_weights(model)
    with pytest.raises(AssertionError):
        stepwise(off_by_one_ulp(model), mu, 1)

    def late_fault(step, n):
        with monkeypatch.context() as patch:
            patch.setattr(np, "multiply", LateFault(step))
            stepwise(model, mu, n)

    block = 2**17 // distinct_pairs(model, mu) - 1
    # The fault is at the last step of the first, full block.
    late_fault(block + 1, block)
    with pytest.raises(AssertionError):
        late_fault(block, block)
    # The first block is full and right; the fault is in the partial last one.
    late_fault(block + 3, block + 2)
    with pytest.raises(AssertionError):
        late_fault(block + 3, block + 5)
    # After the first block the fixed entries have left the live set; the pi
    # entries must still be stepped and checked.
    late_fault(4 * block + 3, 4 * block + 2)
    with pytest.raises(AssertionError):
        late_fault(4 * block + 3, 4 * block + 5)


def test_inputs_are_checked(monkeypatch):
    model = build_grid(2, 10)
    mu = uniform_weights(model)
    for call in (lambda: iterate_stepwise(model, mu[:5], 0),
                 lambda: iterate_adjoint(model, mu[:5], 1),
                 lambda: cesaro_adjoint(model, np.ones((21, 1)), 1),
                 lambda: weak_star_limit_check(model, mu[:5], 1e-6)):
        with pytest.raises(ValueError, match="measure of shape"):
            call()
    for n in (2.5, True, np.float64(2.0), "2"):
        for call in (iterate_adjoint, cesaro_adjoint, iterate_stepwise):
            with pytest.raises(ValueError, match="need an integer n"):
                call(model, mu, n)
    with pytest.raises(ValueError, match="need n >= 1"):
        cesaro_adjoint(model, mu, 0)
    assert np.array_equal(iterate_adjoint(model, mu, np.int64(3)), iterate_adjoint(model, mu, 3))
    for index in (-1, 21, 1.0, True):
        with pytest.raises(ValueError, match="index"):
            dirac_weights(model, index)
    assert dirac_weights(model, 20)[20] == 1.0
    monkeypatch.setenv("ERGOSCOPE_MAX_ELEMENTS", "21")
    assert len(build_grid(2, 10).points) == 21
    with pytest.raises(SizeCapError, match="grid of 22 points exceeds element cap 21"):
        build_grid(1, 21)


# Recorded from the routines before the underflow skip and the blocked check.
STEPWISE_SHA256 = "3ca0940822c09f2cea983b19e3df6ffb4ecb7194458ab4d1f64167512a115f9d"
BENCHMARK_REPORTS = {
    (100, 1e-06): GridLimitReport(True, 32768, 67108864, 1.8836941484957743e-09,
                                  9.790037382903913e-07, False),
    (100, 1e-09): GridLimitReport(True, 65536, 68719476736, 1.7830225816513036e-16,
                                  9.560583381742103e-10, False),
    (100, 1e-12): GridLimitReport(True, 65536, 70368744177664, 1.7830225816513036e-16,
                                  9.336507208732522e-13, False),
    (1000, 1e-06): GridLimitReport(True, 2097152, 1073741824, 6.401455859819201e-08,
                                   6.199786730038362e-07, False),
    (1000, 1e-09): GridLimitReport(True, 4194304, 1099511627776, 2.0499563221886754e-12,
                                   6.054479228553088e-10, False),
    (1000, 1e-12): GridLimitReport(False, 8388608, None, 2.1022110416713806e-21,
                                   9.4601237946142e-12, False),
    (10000, 1e-06): GridLimitReport(True, 134217728, 8589934592, 2.6577315678227007e-07,
                                    7.759892321882859e-07, False),
    (10000, 1e-09): GridLimitReport(True, 268435456, 8796093022208, 3.531945115149068e-10,
                                    7.578019845588729e-10, False),
    (10000, 1e-12): GridLimitReport(False, 536870912, None, 6.237630014120093e-16,
                                    9.472524806985911e-11, False),
}


def test_golden_stepwise_bytes_and_benchmark_reports():
    model = build_grid(2, 100)
    tracemalloc.start()
    try:
        final = iterate_stepwise(model, uniform_weights(model), 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(final.tobytes()).hexdigest() == STEPWISE_SHA256
    # One buffer of at most 1 MiB; the pi entries are stepped and checked
    # in their columns of it, in place.
    assert peak <= 1.1 * 2**20
    for (subdivisions, tol), expected in BENCHMARK_REPORTS.items():
        model = build_grid(2, subdivisions)
        assert repr(weak_star_limit_check(model, uniform_weights(model), tol)) == repr(expected)
