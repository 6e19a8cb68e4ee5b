"""One rule where there were special cases, and operands of different sizes refused.

``_power_bound`` accepts every matrix M >= 0 whose row sums or whose column
sums are all at most 1, so ``abel`` takes every pushforward A_t, injective
or not.  ``verify_net`` reads its status off the trailing window of
``worst_by_step()``; one test pins each branch of that rule.  A word is its
runs, so equal words compare and hash alike.  ``Transformation.power``
squares, and is checked against the loop in ``oracles``.  ``cesaro_trace``
counts a depth-0 function once per position.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ergoscope.nets import (
    _power_bound,
    abel,
    cesaro_net,
    constant_net,
    detect_limit,
    interleave,
    verify_net,
)
from ergoscope.operators import (
    Measure,
    OperatorMatrix,
    adjoint_matrix,
    convex_combination,
    fixed_space,
    koopman_matrix,
    pushforward,
    separation_check,
)
from ergoscope.subshift import BinaryWord, CylinderFunction, cesaro_trace, rolandex_prefix
from ergoscope.transforms import Transformation

F = Fraction
SHIFT = adjoint_matrix(Transformation((1, 2, 0)))
UNIFORM = OperatorMatrix.from_rows([[F(1, 3)] * 3] * 3)


def maps(n):
    return st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation)


# The Abel power bound.

@pytest.mark.parametrize("r, tail_tol", [(2, F(1, 1000)), (F(3, 2), F(1, 7)), (5, F(1, 10))])
def test_abel_of_a_non_injective_pushforward_has_the_closed_form_weights(r, tail_tol):
    # t = (0, 0, 1): t^n = (0, 0, 0) for n >= 2, so with terms >= 2 the
    # truncated Abel mean puts (r-1)/r on I, (r-1)/r^2 on A_t and
    # r^-2 - r^-terms on A_(t^2).
    r = F(r)
    t = Transformation((0, 0, 1))
    result = abel(adjoint_matrix(t), r, tail_tol)
    terms = 1
    while r ** -terms > tail_tol:
        terms += 1
    assert terms >= 2
    assert (result.terms, result.tail_bound) == (terms, r ** -terms)
    assert result.matrix == pushforward([(Transformation.identity(3), (r - 1) / r),
                                         (t, (r - 1) / r**2),
                                         (Transformation((0, 0, 0)), r**-2 - r**-terms)])
    assert result == oracles.abel(adjoint_matrix(t), r, tail_tol)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(maps), st.sampled_from([F(11, 10), 2, 5]))
def test_abel_of_any_pushforward_matches_the_power_loop(t, r):
    assert abel(adjoint_matrix(t), r, F(1, 100)) == oracles.abel(adjoint_matrix(t), r, F(1, 100))


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 1]],
    [[F(1, 2), F(1, 3)], [F(1, 4), 0]],          # row and column sums below 1
    [[1, 1], [0, 0]],                            # column sums 1, a row sum 2
    [[1, 0], [1, 0]],                            # row sums 1, a column sum 2
])
def test_power_bound_accepts_nonnegative_row_or_column_substochastic(rows):
    assert _power_bound(OperatorMatrix.from_rows(rows)) == 1


@pytest.mark.parametrize("rows", [
    [[F(-1, 2), 0], [0, F(1, 2)]],               # a negative entry
    [[1, 1], [0, 1]],                            # a row sum and a column sum 2
], ids=["negative-entry", "row-and-column-sums-above-one"])
def test_power_bound_refuses_the_rest(rows):
    with pytest.raises(ValueError, match="power bound"):
        _power_bound(OperatorMatrix.from_rows(rows))


# Each branch of verify_net's rule, and detect_limit's short trace.

def test_verify_net_not_ergodic_when_the_tail_stays_above_tol():
    net = constant_net(SHIFT, [(SHIFT, F(1))], 4)
    verdict = verify_net(net, [SHIFT], "left", F(1, 2))
    assert verdict.worst_by_step() == [1] * 4
    assert verdict.status == "not_ergodic"


def test_verify_net_undetermined_on_a_mixed_tail():
    eye = OperatorMatrix.identity(3)
    net = interleave(constant_net(UNIFORM, [(UNIFORM, F(1))], 2),
                     constant_net(eye, [(eye, F(1))], 2))
    verdict = verify_net(net, [SHIFT], "two_sided", 0)
    assert verdict.worst_by_step() == [0, 1, 0, 1]
    assert verdict.status == "undetermined"


def test_verify_net_undetermined_when_the_tail_improves_above_tol():
    verdict = verify_net(cesaro_net(SHIFT, [4, 5, 7]), [SHIFT], "left", 0)
    assert verdict.worst_by_step() == [F(1, 4), F(1, 5), F(1, 7)]
    assert verdict.status == "undetermined"


def test_verify_net_undetermined_on_a_net_shorter_than_the_window():
    net = constant_net(UNIFORM, [(UNIFORM, F(1))], 2)
    verdict = verify_net(net, [SHIFT], "two_sided", 0, window=3)
    assert verdict.worst_by_step() == [0, 0]
    assert verdict.status == "undetermined"


def test_detect_limit_needs_a_full_window():
    assert detect_limit([UNIFORM, UNIFORM], 0, window=3) is None


# Words are their runs.

def test_words_with_the_same_runs_are_equal_and_hash_alike():
    word, same = rolandex_prefix(7), BinaryWord.from_string("1000000")
    assert word.runs == same.runs == ((1, 1), (0, 6))
    assert word == same
    assert hash(word) == hash(same)


# Operands of different sizes.

@pytest.mark.parametrize("call", [
    lambda: pushforward([(Transformation((1, 2, 0)), F(1, 2)), (Transformation((1, 0)), F(1, 2))]),
    lambda: pushforward([(Transformation((1, 0)), F(1, 2)), (Transformation((1, 2, 0)), F(1, 2))]),
    lambda: convex_combination([(SHIFT, F(1, 2)), (adjoint_matrix(Transformation((1, 0))), F(1, 2))]),
    lambda: convex_combination([(adjoint_matrix(Transformation((1, 0))), F(1, 2)), (SHIFT, F(1, 2))]),
    lambda: convex_combination([(koopman_matrix(Transformation((0, 0, 1))), F(1, 2)),
                                (OperatorMatrix.identity(2), F(1, 2))]),
    lambda: fixed_space([OperatorMatrix.identity(2), OperatorMatrix.identity(3)]),
    lambda: fixed_space([OperatorMatrix.identity(3), OperatorMatrix.identity(2)]),
    lambda: separation_check([(1, 1, 1)], [(1, 0)]),
    lambda: detect_limit([Measure.dirac(3, 0), Measure.dirac(2, 0), Measure.dirac(2, 0)], 0),
    lambda: Measure.dirac(2, 0).pairing((1, 1, 1)),
], ids=["pushforward-3-2", "pushforward-2-3", "convex-3-2", "convex-2-3", "convex-koopman",
        "fixed-space-2-3", "fixed-space-3-2", "separation", "detect-limit", "pairing"])
def test_operands_of_different_sizes_are_refused(call):
    with pytest.raises(ValueError, match="size mismatch|zip"):
        call()


# Powers of a map by squaring.

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(maps), st.integers(0, 50))
def test_power_matches_the_composition_loop(t, k):
    assert t.power(k) == oracles.power(t, k)


def test_power_of_a_huge_exponent_returns_within_a_second():
    t = Transformation((1, 2, 3, 4, 0, 0))  # a 5-cycle with a tail into it
    start = time.perf_counter()
    p = t.power(2**60)
    assert time.perf_counter() - start < 1
    assert p == oracles.power(t, 6)  # past the tail, powers repeat with period 5


# cesaro_trace at every depth.

@settings(max_examples=200, deadline=None)
@given(data=st.data(), bits=st.text("01", min_size=1, max_size=24),
       depth=st.integers(0, 3), value=st.fractions(-5, 5))
@example(data=None, bits="01", depth=0, value=F(1))
def test_constant_cylinder_function_averages_to_its_value(data, bits, depth, value):
    word = BinaryWord.from_string(bits)
    last = word.length - max(depth, 1) + 1
    if last < 1:
        return
    ns = [last] if data is None else data.draw(st.lists(st.integers(1, last), min_size=1))
    f = CylinderFunction(depth, (value,) * 2**depth)
    assert cesaro_trace(word, f, ns) == [value] * len(ns)
