"""Differential tests: the net layer on integers over one denominator.

Every ``OperatorMatrix`` has one integer form, ``integer_rows``: a
pushforward reads it off its map and a weighted sum records the integers
it added.  ``verify_net`` reads each defect off the integer forms of the
step and the generator, ``abel_net`` weighs the powers by integers over
their sum, and ``convex_combination`` checks the integer weights that it
sums.  The references in ``oracles`` are the earlier ``Fraction`` product,
distance and convex sum, and the earlier Abel weights.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ergoscope.nets import NetSample, NetStep, abel_net, cesaro_net, verify_net
from ergoscope.operators import OperatorMatrix, adjoint_matrix, convex_combination, pushforward
from ergoscope.rational import ONE
from ergoscope.transforms import Transformation

F = Fraction


# Strategies.

def maps(n):
    return st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation)


@st.composite
def stochastic(draw, n):
    """Column-stochastic matrices whose first column has two positive
    entries, so never a pushforward; pushforwards on one state."""
    if n == 1:
        return adjoint_matrix(draw(maps(1)))
    column = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    cols[0][0] += 1
    cols[0][1] += 1
    return OperatorMatrix(tuple(zip(*(tuple(F(k, sum(c)) for k in c) for c in cols))))


def generators(n):
    return st.one_of(maps(n).map(adjoint_matrix), stochastic(n))


def signed(n):
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    return st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple),
                    min_size=n, max_size=n).map(lambda rows: OperatorMatrix(tuple(rows)))


def weighted_maps(n):
    """Pushforwards of a few maps under positive weights: they record the
    integers they summed, over a denominator that need not be least."""
    pair = st.tuples(maps(n), st.integers(1, 9))
    return st.lists(pair, min_size=1, max_size=4).map(
        lambda ps: pushforward((t, F(k, 7)) for t, k in ps))


def steps(n):
    return st.one_of(weighted_maps(n), stochastic(n), signed(n), maps(n).map(adjoint_matrix))


def sized(parts):
    return st.integers(1, 6).flatmap(lambda n: st.tuples(*(part(n) for part in parts)))


# Integer forms.

@settings(max_examples=80, deadline=None)
@given(sized([steps]))
def test_integer_rows_are_the_entries_over_one_denominator(case):
    (m,) = case
    d, rows = m.integer_rows
    assert [[F(x, d) for x in row] for row in rows] == [list(row) for row in m.rows]


@settings(max_examples=60, deadline=None)
@given(sized([maps, maps]))
def test_products_of_pushforwards_record_their_composed_map(case):
    s, t = case
    product = adjoint_matrix(s) @ adjoint_matrix(t)
    assert vars(product)["images"] == s.compose(t).images
    assert product == oracles.matmul(adjoint_matrix(s), adjoint_matrix(t))
    assert hash(product) == hash(adjoint_matrix(s.compose(t)))


# Defects.

def fraction_defect(m, g, side):
    return oracles.max_entry_distance(m, oracles.matmul(g, m) if side == "left"
                                      else oracles.matmul(m, g))


@settings(max_examples=150, deadline=None)
@given(sized([steps, generators, generators]))
def test_defects_match_the_fraction_products(case):
    m, g, h = case
    net = NetSample((NetStep("step", m, ((m, ONE),)),))
    trace = verify_net(net, [g, h], "two_sided", 0).trace
    assert [(r.generator, r.side) for r in trace] == [
        ("g0", "left"), ("g0", "right"), ("g1", "left"), ("g1", "right")]
    expected = [fraction_defect(m, x, side) for x in (g, h) for side in ("left", "right")]
    assert [r.defect for r in trace] == expected
    assert all(type(r.defect) is Fraction for r in trace)


SHIFT3 = adjoint_matrix(Transformation((1, 2, 0)))


def test_verify_net_needs_a_generator():
    net = cesaro_net(SHIFT3, [2, 4, 8])
    with pytest.raises(ValueError, match="need at least one generator"):
        verify_net(net, [], "two_sided", 0)
    with pytest.raises(ValueError, match="need at least one generator"):
        verify_net(net, iter([]), "left", 0)


@pytest.mark.parametrize("side", ["left", "right", "two_sided"])
@pytest.mark.parametrize("generator", [
    adjoint_matrix(Transformation((1, 0))),
    adjoint_matrix(Transformation((1, 2, 3, 0))),
    OperatorMatrix.from_rows([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]),
], ids=["map-2", "map-4", "stochastic-2"])
def test_verify_net_refuses_a_generator_of_another_size(side, generator):
    net = cesaro_net(SHIFT3, [2, 4, 8])
    with pytest.raises(ValueError, match="size mismatch"):
        verify_net(net, [SHIFT3, generator], side, 0)


# Abel weights.

@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(1, 60), st.integers(1, 30), sized([maps]))
@example(7, 6, 24, (Transformation((1, 2, 0)),))       # r = 13/7
@example(2, 1, 24, (Transformation((1, 0)),))          # r = 3/2
@example(10, 1, 24, (Transformation((0, 0, 1)),))      # r = 11/10
def test_abel_weights_match_negative_powers_over_their_sum(b, extra, terms, case):
    (t,) = case
    r = F(b + extra, b)
    m = adjoint_matrix(t)
    step = abel_net(m, [r], terms).steps[0]
    assert step.descriptor == f"abel r={r}"
    assert [w for _, w in step.combination] == oracles.abel_weights(r, terms)
    assert all(type(w) is Fraction for _, w in step.combination)
    assert step.matrix == oracles.convex_combination(step.combination)


@pytest.mark.parametrize("r", [F(3, 2), F(13, 7), F(2), F(11, 10), F(1.1)])
def test_abel_weights_of_the_checked_ratios(r):
    step = abel_net(SHIFT3, [r]).steps[0]
    assert [w for _, w in step.combination] == oracles.abel_weights(r, 24)


# Convexity on integers.

@st.composite
def weightings(draw):
    """(weights, fault): convex weights, or ones with a negative weight,
    a sum other than 1, or none at all."""
    ks = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any))
    weights = [F(k, sum(ks)) for k in ks]
    fault = draw(st.sampled_from(["none", "negative", "sum", "empty"]))
    if fault == "negative":
        weights[0] += F(1, 3)
        weights.append(F(-1, 3))
    elif fault == "sum":
        weights[-1] += draw(st.sampled_from([F(1, 5), F(-1, 7), F(1)]))
    elif fault == "empty":
        weights = []
    return weights, fault


@settings(max_examples=100, deadline=None)
@given(weightings(), st.integers(1, 4).flatmap(lambda n: st.lists(
    st.one_of(maps(n).map(adjoint_matrix), stochastic(n), signed(n)), min_size=6, max_size=6)))
def test_convex_combination_refuses_what_the_fraction_check_refused(case, matrices):
    weights, fault = case
    combo = list(zip(matrices, weights))
    if fault == "none":
        assert convex_combination(combo) == oracles.convex_combination(combo)
        return
    for combine in (convex_combination, oracles.convex_combination):
        with pytest.raises(ValueError, match="weights must be nonnegative and sum to 1"):
            combine(combo)
