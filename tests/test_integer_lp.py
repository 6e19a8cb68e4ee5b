"""Differential tests: the integer elimination and phase-1 simplex against
the ``Fraction`` ones they replace.

``rational.rref`` keeps each row as a primitive integer multiple of the
rational row, with a positive pivot, and ``rational.lp_feasible_point``
holds every tableau row the same way.  Read as rationals, the reduced rows
and pivots must be those of ``oracles.rref``, and the point, or None, that
of ``oracles.lp_feasible_point``: on small ``Fraction`` systems with zero
and repeated rows, on every kernel LP that ``classify`` sets up for the
benchmark corpus (seeds 1000-1149), and in the bytes of the report.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ergoscope import rational
from ergoscope.envelope import classify, report_json
from ergoscope.systems import random_system

entries = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 6]))


@st.composite
def systems(draw):
    """Rows of A and entries of b, with some rows repeated and some zero."""
    n = draw(st.integers(0, 5))
    pairs = draw(st.lists(st.tuples(st.lists(entries, min_size=n, max_size=n), entries),
                          max_size=6))
    if pairs:
        for _ in range(draw(st.integers(0, 3))):
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(
                [*pairs, ([Fraction(0)] * n, Fraction(0))])))
    return [row for row, _ in pairs], [b for _, b in pairs]


def as_rationals(reduced, pivots):
    """The rows of ``rational.rref``, each divided by its pivot; zero rows as they are."""
    return [[Fraction(x, row[pc]) for x in row] for row, pc in zip(reduced, pivots)] + [
        list(map(Fraction, row)) for row in reduced[len(pivots):]]


@settings(max_examples=400, deadline=None)
@given(systems())
def test_integer_rref_and_lp_match_the_fraction_ones(system):
    rows, rhs = system
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    reduced, pivots = rational.rref(aug)
    expected, expected_pivots = oracles.rref(aug)
    assert pivots == expected_pivots
    assert as_rationals(reduced, pivots) == expected
    assert all(row[pc] > 0 for row, pc in zip(reduced, pivots))
    assert rational.lp_feasible_point(rows, rhs) == oracles.lp_feasible_point(rows, rhs)


@pytest.mark.parametrize("rows, rhs, point", [
    ([], [], ()),
    ([[]], [0], ()),
    ([[]], [1], None),
    ([[0, 0], [0, 0]], [0, 0], (0, 0)),
    ([[1, 1], [1, 1]], [-1, -1], None),
    ([[Fraction(1, 2), Fraction(1, 3)], [1, -1]], [1, 0], (Fraction(6, 5), Fraction(6, 5))),
])
def test_lp_edge_cases(rows, rhs, point):
    assert rational.lp_feasible_point(rows, rhs) == point
    assert oracles.lp_feasible_point(rows, rhs) == point


@pytest.mark.parametrize("rows, rhs, message", [
    ([[1, 0], [0, 1]], [1], "2 rows but 1 right-hand sides"),
    ([[1, 0]], [1, 0], "1 rows but 2 right-hand sides"),
    ([], [1], "0 rows but 1 right-hand sides"),
    ([[1, 0], [1]], [1, 1], "ragged rows: need 2 entries in every row"),
    ([[1], [1, 0]], [1, 1], "ragged rows: need 1 entries in every row"),
])
def test_lp_rejects_mismatched_shapes(rows, rhs, message):
    with pytest.raises(ValueError) as info:
        rational.lp_feasible_point(rows, rhs)
    assert str(info.value) == message


def corpus(seeds):
    """The benchmark corpus systems: n and g drawn from the seed, then the maps."""
    for seed in seeds:
        rng = random.Random(seed)
        n, g = rng.randint(3, 6), rng.randint(1, 3)
        yield random_system(n, g, seed=seed)


def test_every_corpus_kernel_lp_matches_the_fraction_simplex():
    with mock.patch.object(rational, "lp_feasible_point",
                           wraps=rational.lp_feasible_point) as lp:
        for sys_ in corpus(range(1000, 1150)):
            classify(sys_)
    assert lp.call_count == 13
    for (rows, rhs), _ in lp.call_args_list:
        assert all(type(x) is int for row in rows for x in row)
        point = rational.lp_feasible_point(rows, rhs)
        assert point is not None
        assert point == oracles.lp_feasible_point(rows, rhs)


def test_reports_match_the_fraction_simplex_byte_for_byte(monkeypatch):
    swept = [random_system(n, g, seed=seed)
             for n in range(3, 8) for g in (2, 3) for seed in range(40)]
    reports = [(sys_, report_json(report)) for sys_ in swept
               if (report := classify(sys_)).zero.method == "linear_feasibility"]
    assert len(reports) >= 40
    monkeypatch.setattr(rational, "lp_feasible_point", oracles.lp_feasible_point)
    for sys_, report in reports:
        assert report_json(classify(sys_)) == report
