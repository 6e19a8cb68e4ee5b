"""The zero search over the Ellis kernel, and zero identities on image arrays.

``convex_koehler_zero`` solves its exact LP over the kernel K alone, and
``_absorbed`` reads A_t Q = Q A_t = Q off the zero's support labels for
every row of an image array at once.  Its reference is the oracle
``absorbed``, the earlier array check that pushes the columns of any Q
forward, whose own references are the pair of exact matrix products and
the oracle ``absorbs``, which checks one image tuple at a time on the
rows of Q.  The commuting zero composes one period of each map's powers as image
tuples; its reference convolves per-map limits keyed by ``Transformation``.
"""

import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ergoscope.envelope import (
    _absorbed,
    classify,
    convex_koehler_zero,
    ellis,
    power_periodicity,
    verify_zero_on_all_elements,
)
from ergoscope.operators import OperatorMatrix, adjoint_matrix, pushforward
from ergoscope.systems import FiniteSystem, random_system
from ergoscope.transforms import Transformation, kernel
from oracles import absorbed, absorbs

# Entries of this denominator scale a column past 2**63, onto Python integers.
WIDE = 3 ** 40


@st.composite
def map_and_matrix(draw, wide=st.just(False)):
    """A map t and a matrix Q that absorbs A_t on neither, one or both sides.

    P, the Cesàro limit of the powers of A_t, satisfies A_t P = P A_t = P,
    so P B absorbs A_t from the left, B P from the right and P B P from
    both, while a plain B usually absorbs it on neither side.  A ``wide``
    B has entries k / 3**40.
    """
    n = draw(st.integers(1, 5))
    t = Transformation(draw(st.tuples(*[st.integers(0, n - 1)] * n)))
    entry = (st.integers(-3 * WIDE, 3 * WIDE).map(lambda k: Fraction(k, WIDE))
             if draw(wide) else st.fractions(min_value=-3, max_value=3, max_denominator=4))
    b = OperatorMatrix(tuple(
        tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(n)
    ))
    preperiod, period, powers = power_periodicity(t)
    p = pushforward((s, Fraction(1, period)) for s in powers[preperiod:])
    sides = draw(st.sampled_from(["neither", "left", "right", "both"]))
    q = {"neither": b, "left": p @ b, "right": b @ p, "both": p @ b @ p}[sides]
    return t, q, sides


@settings(max_examples=150, deadline=None)
@given(map_and_matrix())
def test_absorbs_matches_matrix_products(case):
    t, q, sides = case
    a = adjoint_matrix(t)
    left, right = a @ q == q, q @ a == q
    assert absorbs(q, t.images) == (left and right)
    assert absorbs(q, list(t.images)) == (left and right)
    if sides in ("left", "both"):
        assert left
    if sides in ("right", "both"):
        assert right


def test_absorbs_tells_the_two_sides_apart():
    # t sends both states to 0; A_t = [[1, 1], [0, 0]].
    t = Transformation((0, 0))
    a = adjoint_matrix(t)
    only_left = OperatorMatrix.from_rows([[1, 0], [0, 0]])
    only_right = OperatorMatrix.from_rows([[0, 0], [1, 1]])
    assert a @ only_left == only_left and only_left @ a != only_left
    assert only_right @ a == only_right and a @ only_right != only_right
    assert not absorbs(only_left, t.images)
    assert not absorbs(only_right, t.images)
    assert absorbs(OperatorMatrix.from_rows([[1, 1], [0, 0]]), t.images)
    images = np.array([t.images, (0, 1), (1, 0)])
    assert absorbed(only_left, images).tolist() == [False, True, False]
    assert absorbed(only_right, images).tolist() == [False, True, False]
    assert absorbed(OperatorMatrix.from_rows([[1, 1], [0, 0]]), images).tolist() == [
        True, True, False]


def wide_columns(q):
    """Whether some column of Q, scaled to integers by its common
    denominator, has an absolute sum of at least 2**63."""
    return any(math.lcm(*(x.denominator for x in col)) * sum(map(abs, col)) >= 2 ** 63
               for col in zip(*q.rows))


def assert_absorbed_matches(q, images):
    """The oracle ``absorbed`` on the stacked rows, in one block and in blocks
    of one row, equals ``absorbs`` and the exact matrix products row by row."""
    products = [adjoint_matrix(Transformation(row)) for row in images]
    expected = [a @ q == q and q @ a == q for a in products]
    assert [absorbs(q, row) for row in images] == expected
    assert absorbed(q, np.array(images)).tolist() == expected
    with mock.patch.object(oracles, "PUSH_BLOCK", 1):
        assert absorbed(q, np.array(images)).tolist() == expected
    return expected


@settings(max_examples=150, deadline=None)
@given(map_and_matrix(wide=st.booleans()), st.data())
def test_absorbed_matches_oracle_and_products(case, data):
    t, q, sides = case
    n = t.degree
    others = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), max_size=6))
    expected = assert_absorbed_matches(q, [t.images, *others])
    if sides == "both":
        assert expected[0]


def test_absorbed_on_python_integers():
    # Every column has denominator 3**40 > 2**63, so the pushforward
    # block holds Python integers; an int64 block could not hold them.
    a, b = Fraction(WIDE // 2, WIDE), Fraction(WIDE - WIDE // 2, WIDE)
    q = OperatorMatrix.from_rows([[a, a, a], [b, b, b], [0, 0, 0]])
    assert wide_columns(q)
    images = [(0, 1, 2), (0, 1, 0), (0, 1, 1), (1, 0, 2), (0, 0, 2), (2, 1, 0)]
    assert assert_absorbed_matches(q, images) == [True, True, True, False, False, False]


def test_absorbed_on_classify_certificates():
    """Every certificate ``classify`` finds is absorbed by every closure
    element, and on random maps the label check agrees with the oracle."""
    rng = random.Random(21)
    found = rejected = 0
    for seed in range(40):
        sys_ = random_system(3 + seed % 4, 1 + seed % 3, seed=seed)
        report = classify(sys_)
        if report.zero.status != "found":
            continue
        found += 1
        cert, sg = report.zero.certificate, ellis(sys_)
        assert _absorbed(cert, sg.images).all()
        assert all(absorbs(cert.matrix, row) for row in sg.images.tolist())
        maps = [tuple(rng.randrange(sys_.n) for _ in range(sys_.n)) for _ in range(60)]
        expected = assert_absorbed_matches(cert.matrix, maps)
        assert _absorbed(cert, np.array(maps)).tolist() == expected
        rejected += expected.count(False)
    assert found >= 20 and rejected >= 500


@pytest.mark.parametrize("n, g, seed, size", [(5, 3, 9, 103), (8, 3, 2, 3_596)])
def test_one_element_kernel_gets_a_zero(n, g, seed, size):
    sys_ = random_system(n, g, seed=seed)
    sg = ellis(sys_)
    assert (sg.size, len(kernel(sg))) == (size, 1)
    report = classify(sys_)
    assert report.zero.status == "found"
    assert report.zero.method == "linear_feasibility"
    assert report.weak_star_mean_ergodic.value == "true"
    cert = report.zero.certificate
    (z,) = kernel(sg)
    assert cert.witness == ((Transformation(tuple(sg.images[z].tolist())), Fraction(1)),)
    assert verify_zero_on_all_elements(cert, sg) == 2 * size
    # Every state its own support: the closed form of the identity matrix.
    not_a_zero = dataclasses.replace(cert, labels=tuple(range(n)),
                                     supports=tuple(frozenset({x}) for x in range(n)))
    assert not_a_zero.matrix == OperatorMatrix.identity(n)
    with pytest.raises(AssertionError, match="zero identity fails on element"):
        verify_zero_on_all_elements(not_a_zero, sg)


def ref_cesaro_product(sys_):
    """The earlier definition: each map's Cesàro limit as weights on
    ``Transformation`` objects, convolved generator by generator, and the
    witness sorted by image tuple."""
    weights = None
    for g in sys_.generator_maps:
        preperiod, period, powers = power_periodicity(g)
        limit = {s: Fraction(1, period) for s in powers[preperiod:]}
        if weights is None:
            weights = limit
            continue
        product = {}
        for s, ws in weights.items():
            for t, wt in limit.items():
                key = s.compose(t)
                product[key] = product.get(key, Fraction(0)) + ws * wt
        weights = product
    return tuple(sorted(weights.items(), key=lambda kv: kv[0].images))


@st.composite
def commuting_systems(draw):
    """1-3 powers of one map on 1-6 states."""
    n = draw(st.integers(1, 6))
    base = Transformation(draw(st.tuples(*[st.integers(0, n - 1)] * n)))
    exponents = draw(st.lists(st.integers(1, 2 * n), min_size=1, max_size=3))
    return FiniteSystem(tuple(map(str, range(n))),
                        tuple((f"g{i}", base.power(k)) for i, k in enumerate(exponents)))


@settings(max_examples=150, deadline=None)
@given(commuting_systems())
def test_cesaro_product_matches_the_convolved_limits(sys_):
    assert convex_koehler_zero(sys_).certificate.witness == ref_cesaro_product(sys_)
