"""Differential tests: each exact product of the net path is done once.

``matrix_powers`` stops multiplying at the first repeated power and reads
the rest off by period, ``mat_mul`` sums only products of two nonzero
entries, ``convex_combination`` adds the weights of equal matrices before
one sparse sum, and ``OperatorMatrix`` caches its hash.  The references
below are the definitions they replaced: the step-by-step powers, the
dense product and the sequential scale-and-add.  ``power_periodicity``
shares the first-repeat loop of ``matrix_powers``; its reference composes
``Transformation`` objects one at a time.  ``abel`` rescales an ``abel_net``
step; its reference is the power loop it replaced, in ``oracles``.
``power_counts`` reads each power's multiplicity in a Følner box side off
the first-repeat cycle; its reference counts the list of all N powers.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from ergoscope import rational
from ergoscope.envelope import power_periodicity
from ergoscope.nets import (
    abel,
    abel_net,
    first_repeat,
    folner_net,
    matrix_powers,
    power_counts,
)
from ergoscope.operators import (
    OperatorMatrix,
    adjoint_matrix,
    convex_combination,
    koopman_matrix,
)
from ergoscope.rational import ZERO
from ergoscope.transforms import Transformation

F = Fraction


# Reference definitions.

def ref_powers(m, count):
    powers = [OperatorMatrix.identity(m.n)]
    for _ in range(count - 1):
        powers.append(OperatorMatrix(ref_mat_mul(powers[-1].rows, m.rows)))
    return powers


def ref_power_periodicity(t):
    """Compose powers one at a time until one repeats."""
    powers = [Transformation.identity(t.degree)]
    while (nxt := t.compose(powers[-1])) not in powers:
        powers.append(nxt)
    start = powers.index(nxt)
    return start, len(powers) - start, powers


def ref_mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def ref_convex_combination(weighted):
    weighted = [(m, Fraction(w)) for m, w in weighted]
    total = sum(w for _, w in weighted)
    if total != 1 or any(w < 0 for _, w in weighted):
        raise ValueError("weights must be nonnegative and sum to 1")
    acc = weighted[0][0].scale(weighted[0][1])
    for m, w in weighted[1:]:
        acc = acc + m.scale(w)
    return acc


# Strategies.

def maps(n):
    return st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation)


def permutations(n):
    return st.permutations(range(n)).map(tuple).map(Transformation)


def shaped_maps():
    """Any map, or a permutation, on 1-7 states."""
    return st.integers(1, 7).flatmap(lambda n: st.one_of(maps(n), permutations(n)))


def fraction_matrices(rows, cols, signed=True):
    """Sparse matrices: about half the entries are zero."""
    low = -3 if signed else 0
    entry = st.one_of(st.just(ZERO), st.fractions(low, 3, max_denominator=5))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols).map(tuple),
                    min_size=rows, max_size=rows).map(tuple)


def square(n):
    return fraction_matrices(n, n).map(OperatorMatrix)


# matrix_powers.

@settings(max_examples=150, deadline=None)
@given(shaped_maps(), st.integers(0, 3), st.integers(-2, 2), st.integers(1, 40))
@example(Transformation((1, 2, 3, 4, 2)), 0, 0, 1)
@example(Transformation((1, 2, 3, 4, 2)), 0, 0, 5)
@example(Transformation((1, 2, 3, 4, 2)), 0, 0, 6)
def test_matrix_powers_match_step_by_step_products(t, scale, offset, count):
    """count below, at and above preperiod + period, and far beyond it."""
    p, q, _ = power_periodicity(t)
    count = max(1, count if scale == 0 else scale * (p + q) + offset)
    m = adjoint_matrix(t)
    powers = matrix_powers(m, count)
    assert powers == ref_powers(m, count)
    # Past the first repeat the list reuses the objects of one period.
    for k in range(p + q, count):
        assert powers[k] is powers[k - q]


@settings(max_examples=150, deadline=None)
@given(shaped_maps(), st.integers(1, 40))
@example(Transformation((1, 2, 3, 4, 2)), 4)
@example(Transformation((1, 2, 3, 4, 2)), 5)
def test_one_period_routine_matches_the_step_by_step_loop(t, count):
    """power_periodicity and matrix_powers share one first-repeat loop."""
    p, q, powers = power_periodicity(t)
    assert (p, q, powers) == ref_power_periodicity(t)
    m = adjoint_matrix(t)
    periodic = [adjoint_matrix(powers[k if k < p else p + (k - p) % q]) for k in range(count)]
    assert matrix_powers(m, count) == periodic == ref_powers(m, count)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(F(1, 9), F(8, 9), max_denominator=9).filter(lambda x: x < 1),
                min_size=1, max_size=3),
       st.integers(1, 12))
def test_matrix_powers_of_a_contraction_never_repeat(diagonal, count):
    n = len(diagonal)
    m = OperatorMatrix(tuple(
        tuple(diagonal[i] if i == j else ZERO for j in range(n)) for i in range(n)
    ))
    products = []
    mul = OperatorMatrix.__matmul__
    with mock.patch.object(OperatorMatrix, "__matmul__",
                           lambda a, b: products.append(1) or mul(a, b)):
        powers = matrix_powers(m, count)
    assert powers == ref_powers(m, count)
    assert len(set(powers)) == count
    assert len(products) == count - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(square), st.integers(1, 8))
def test_matrix_powers_of_any_matrix_match(m, count):
    assert matrix_powers(m, count) == ref_powers(m, count)


@settings(max_examples=150, deadline=None)
@given(st.one_of(shaped_maps().map(adjoint_matrix), st.integers(1, 3).flatmap(square)),
       st.integers(1, 40), st.integers(0, 20))
@example(adjoint_matrix(Transformation((1, 2, 3, 4, 2))), 40, 0)
@example(adjoint_matrix(Transformation((1, 2, 3, 4, 2))), 5, 0)
def test_power_counts_match_the_counted_list(m, n, beyond):
    """n below, at and past the first repeat, from a cycle searched up to n + beyond."""
    cycle = first_repeat(OperatorMatrix.identity(m.n), lambda p: p @ m, n + beyond)
    counts = power_counts(*cycle, n)
    ref = oracles.power_counts(m, n)
    assert list(counts.items()) == list(ref.items())


def test_abel_mean_matches_the_power_loop():
    for images in ((1, 2, 0), (1, 2, 3, 4, 2), (0, 0)):
        m = koopman_matrix(Transformation(images))
        mean = abel(m, 3, F(1, 1000))
        coeff, acc = F(2, 3), OperatorMatrix.zeros(m.n)
        for power in ref_powers(m, mean.terms):
            acc = acc + power.scale(coeff)
            coeff = coeff / 3
        assert mean.matrix == acc


@st.composite
def abel_matrices(draw):
    """A permutation pushforward or a diagonal with entries in [0, 1]."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return adjoint_matrix(Transformation(tuple(draw(st.permutations(range(n))))))
    diagonal = draw(st.lists(st.fractions(0, 1, max_denominator=12), min_size=n, max_size=n))
    return OperatorMatrix.from_rows([[d if i == j else 0 for j in range(n)]
                                     for i, d in enumerate(diagonal)])


@settings(max_examples=150, deadline=None)
@given(abel_matrices(), st.fractions(F(11, 10), 6, max_denominator=20), st.integers(1, 9))
def test_abel_is_the_rescaled_abel_net_step(m, r, digits):
    tail_tol = F(1, 10**digits)
    mean, ref = abel(m, r, tail_tol), oracles.abel(m, r, tail_tol)
    assert (mean.matrix.rows, mean.terms, mean.tail_bound) == (ref.matrix.rows, ref.terms,
                                                               ref.tail_bound)


@pytest.mark.parametrize("images, preperiod, period", [
    ((1, 2, 3, 4, 2), 2, 3),      # 0 -> 1 -> 2 -> 3 -> 4 -> 2
    ((1, 2, 3, 0, 5, 4), 0, 4),   # cycles of length 4 and 2
    ((0, 0, 1, 2, 3, 4), 5, 1),   # a path into a fixed point
])
def test_folner_net_builds_each_power_once(images, preperiod, period):
    t = Transformation(images)
    assert power_periodicity(t)[:2] == (preperiod, period)
    m = adjoint_matrix(t)
    calls = []
    mul = rational.mat_mul
    with mock.patch.object(rational, "mat_mul",
                           lambda a, b: calls.append(1) or mul(a, b)):
        net = folner_net([m], [32])
    assert len(calls) <= preperiod + period + 1
    expected = ref_convex_combination((p, F(1, 32)) for p in ref_powers(m, 32))
    assert net.steps[0].matrix == expected


# mat_mul.

@st.composite
def product_shapes(draw):
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(fraction_matrices(r, k)), draw(fraction_matrices(k, c))


@settings(max_examples=60, deadline=None)
@given(product_shapes())
def test_mat_mul_matches_the_dense_product(ab):
    a, b = ab
    product = rational.mat_mul(a, b)
    assert product == ref_mat_mul(a, b)
    assert all(type(x) is Fraction for row in product for x in row)


def test_mat_mul_of_zero_matrices_gives_fractions():
    zero = ((ZERO, ZERO), (ZERO, ZERO))
    assert rational.mat_mul(zero, zero) == zero
    ints = ((0, 1), (0, 0))
    product = rational.mat_mul(ints, ints)
    assert product == ((0, 0), (0, 0))
    assert all(type(x) is Fraction for row in product for x in row)


# convex_combination.

@st.composite
def weighted_matrices(draw):
    """Weighted matrices with repeats, from a small pool of one size."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(fraction_matrices(n, n, signed=False).map(OperatorMatrix),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    raw = draw(st.lists(st.integers(0, 7), min_size=len(picks), max_size=len(picks)))
    assume(sum(raw) > 0)
    return [(m, F(r, sum(raw))) for m, r in zip(picks, raw)]


@settings(max_examples=60, deadline=None)
@given(weighted_matrices())
def test_convex_combination_matches_scale_and_add(weighted):
    result = convex_combination(weighted)
    assert result == ref_convex_combination(weighted)
    assert all(type(x) is Fraction for row in result.rows for x in row)


@pytest.mark.parametrize("weights", [
    (F(1, 2), F(1, 3)),            # sums below one
    (F(3, 2), F(-1, 2)),           # a negative weight
    (F(1, 2), F(1, 2), F(1, 2)),   # sums above one
    (),                            # nothing to combine
])
def test_convex_combination_rejects_bad_weights_as_before(weights):
    m = adjoint_matrix(Transformation((1, 0)))
    weighted = [(m, w) for w in weights]
    with pytest.raises(ValueError) as new:
        convex_combination(weighted)
    with pytest.raises(ValueError) as ref:
        ref_convex_combination(weighted)
    assert str(new.value) == str(ref.value)


def test_abel_net_steps_match_scale_and_add():
    m = adjoint_matrix(Transformation((1, 2, 0)))
    net = abel_net(m, [2, 4])
    for step in net.steps:
        assert step.matrix == ref_convex_combination(step.combination)


# The cached hash.

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(square))
def test_hash_matches_a_fresh_copy(m):
    copy = OperatorMatrix(m.rows)
    assert hash(m) == hash(copy) == hash(m)
    assert m == copy and {m: 1}[copy] == 1
    product = m @ OperatorMatrix.identity(m.n)
    assert hash(product) == hash(m)
