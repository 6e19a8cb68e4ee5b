"""Budget checks, the exact LP's dropped rows, and the zero checks' messages.

``lp_feasible_point`` drops zero and repeated rows of [A | b] before its
elimination; since the reduced echelon form depends only on the row space,
appending such rows and shuffling them must leave the point unchanged.
``verify_zero_on_all_elements`` and ``_certify`` check a whole image array
at once, yet name the first failing element or generator in order, and
``_certify`` names a witness that does not sum to the zero.
"""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergoscope import rational
from ergoscope.envelope import (
    Budget,
    _certify,
    _zero_by_feasibility,
    classify,
    ellis,
    verify_zero_on_all_elements,
)
from ergoscope.operators import OperatorMatrix, adjoint_matrix
from ergoscope.systems import FiniteSystem, random_system
from ergoscope.transforms import SizeCapError, Transformation
from oracles import absorbs


@pytest.mark.parametrize("field, value, message", [
    ("lp_max_elements", None, "need an integer lp_max_elements, got None"),
    ("lp_max_elements", -1, "need lp_max_elements >= 0"),
    ("lp_max_elements", True, "need an integer lp_max_elements, got True"),
    ("lp_max_elements", 2.5, "need an integer lp_max_elements, got 2.5"),
    ("max_elements", -1, "need max_elements >= 0"),
    ("max_elements", True, "need an integer max_elements, got True"),
    ("max_elements", 2.5, "need an integer max_elements, got 2.5"),
])
def test_budget_rejects_bad_values(field, value, message):
    with pytest.raises(ValueError) as info:
        Budget(**{field: value})
    assert str(info.value) == message


def test_budget_accepts_its_range():
    assert Budget(max_elements=None, lp_max_elements=0) == Budget(None, 0)
    assert Budget(max_elements=0).max_elements == 0
    assert Budget(lp_max_elements=np.int64(5)).lp_max_elements == 5
    report = classify(random_system(5, 3, seed=9), Budget(lp_max_elements=0))
    assert report.zero.notes == (
        "1 kernel elements exceed the exact-refutation budget 0",)


def padded(rows, rhs, rng, extra):
    """The rows of [A | b] with ``extra`` repeats and zero rows appended, shuffled."""
    n = len(rows[0])
    pairs = list(zip(rows, rhs))
    for _ in range(extra):
        pairs.append(rng.choice(pairs) if rng.random() < 0.6 else ([0] * n, 0))
    rng.shuffle(pairs)
    return [row for row, _ in pairs], [b for _, b in pairs]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.tuples(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                     st.integers(-2, 2)), min_size=1, max_size=6)),
       st.integers(0, 8), st.randoms(use_true_random=False))
def test_lp_point_ignores_repeats_zero_rows_and_order(lp, extra, rng):
    rows = [[Fraction(x) for x in row] for row, _ in lp]
    rhs = [Fraction(b) for _, b in lp]
    point = rational.lp_feasible_point(rows, rhs)
    assert rational.lp_feasible_point(*padded(rows, rhs, rng, extra)) == point
    if point is not None:
        assert min(point, default=0) >= 0
        assert list(rational.mat_vec(rows, point)) == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
           st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation),
           min_size=1, max_size=3)),
       st.randoms(use_true_random=False))
def test_lp_point_on_feasibility_rows_ignores_repeats_and_order(gens, rng):
    sys_ = FiniteSystem(tuple(str(i) for i in range(gens[0].degree)),
                        tuple((f"g{i}", g) for i, g in enumerate(gens)))
    try:
        sg = ellis(sys_, max_elements=40)
    except SizeCapError:
        assume(False)
    with mock.patch.object(rational, "lp_feasible_point",
                           wraps=rational.lp_feasible_point) as lp:
        _zero_by_feasibility(sys_, sg)
    rows, rhs = lp.call_args.args
    point = rational.lp_feasible_point(rows, rhs)
    assert rational.lp_feasible_point(*padded(rows, rhs, rng, 12)) == point


def test_verify_names_the_first_failing_element():
    """Q = A_e for the idempotent power e of each closure element, held in
    closed form on the singletons of its image, absorbs some elements and
    not others; the message names the first failure in ``sg.images`` order."""
    sys_ = random_system(4, 2, seed=9)
    sg = ellis(sys_)
    cert = classify(sys_).zero.certificate
    assert verify_zero_on_all_elements(cert, sg) == 2 * sg.size
    rows = sg.images.tolist()
    later = 0
    for z in rows:
        # z^(n!) is idempotent: n! passes the preperiod and is a multiple of the period.
        e = Transformation(tuple(z)).power(math.factorial(sys_.n))
        image = sorted(set(e.images))
        q = dataclasses.replace(cert, labels=tuple(image.index(y) for y in e.images),
                                supports=tuple(frozenset({y}) for y in image))
        assert q.matrix == adjoint_matrix(e)
        first = next((i for i, row in enumerate(rows) if not absorbs(q.matrix, row)), None)
        if first is None:
            assert verify_zero_on_all_elements(q, sg)
            continue
        later += first > 0
        with pytest.raises(AssertionError) as info:
            verify_zero_on_all_elements(q, sg)
        assert str(info.value) == f"zero identity fails on element {tuple(rows[first])}"
    assert later >= 1


def test_certify_names_the_first_failing_generator():
    # Supports {0, 1} and {2, 3}, so the zero's labels are (0, 0, 1, 1).
    sys_ = FiniteSystem(("0", "1", "2", "3"), (
        ("fix", Transformation((0, 1, 2, 3))),
        ("low", Transformation((1, 0, 2, 3))),
        ("high", Transformation((0, 1, 3, 2))),
    ))
    quarter = Fraction(1, 4)
    average = {(0, 1, 2, 3): quarter, (1, 0, 2, 3): quarter,
               (0, 1, 3, 2): quarter, (1, 0, 3, 2): quarter}
    with pytest.raises(AssertionError) as info:
        _certify(average, sys_, (0, 1, 0, 1))
    assert str(info.value) == "Q is not a zero: generator 'low' fails A Q = Q A = Q"
    with pytest.raises(AssertionError) as info:
        _certify(average, FiniteSystem(sys_.states, sys_.generators[::-1]), (0, 1, 0, 1))
    assert str(info.value) == "Q is not a zero: generator 'high' fails A Q = Q A = Q"
    with pytest.raises(AssertionError) as info:
        _certify({(0, 1, 2, 3): Fraction(1)}, sys_, (0, 0, 1, 1))
    assert str(info.value) == "Q is not the witness's convex combination"
    low_only = FiniteSystem(sys_.states, sys_.generators[1:2])
    cert = _certify({(0, 1, 2, 3): Fraction(1, 2), (1, 0, 2, 3): Fraction(1, 2)},
                    low_only, (0, 0, 1, 2))
    assert cert.checks == ("A[low] Q = Q A[low] = Q",
                           "Q is a convex combination of semigroup pushforwards")
    half = Fraction(1, 2)
    assert cert.matrix == OperatorMatrix.from_rows(
        [[half, half, 0, 0], [half, half, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

