"""Differential tests: products and averages of pushforwards run as maps, and distances.

``OperatorMatrix.images`` reads the map t off a pushforward A_t, so ``@``
composes two pushforwards' maps instead of multiplying entries, and
multiplies every other pair by ``rational.mat_mul``; ``convex_combination``
is ``pushforward``, one sum of integer weights over their common
denominator.  The references in ``oracles`` are the ``Fraction`` product,
convex sum and distance.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ergoscope import rational
from ergoscope.envelope import classify, koehler
from ergoscope.nets import abel_net, cesaro_net, detect_limit, folner_net, verify_net
from ergoscope.operators import (
    OperatorMatrix,
    adjoint_matrix,
    convex_combination,
    koopman_matrix,
    pushforward,
)
from ergoscope.systems import cyclic_shift_system, random_system
from ergoscope.transforms import Transformation

F = Fraction


# Strategies.

def maps(n):
    return st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation)


def general(n, denominators=st.integers(1, 6)):
    """Sparse signed matrices; entries over a drawn denominator."""
    entry = st.one_of(st.just(0), st.integers(-4, 4)).flatmap(
        lambda k: denominators.map(lambda d: F(k, d)))
    return st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple),
                    min_size=n, max_size=n).map(lambda rows: OperatorMatrix(tuple(rows)))


def shared(n):
    """Entries over one denominator d shared by the whole matrix."""
    return st.integers(1, 12).flatmap(lambda d: general(n, st.just(d)))


def operands(n, kind):
    if kind == "map":
        return maps(n).map(adjoint_matrix)
    return st.one_of(general(n), shared(n), maps(n).map(koopman_matrix))


def assert_fractions(m):
    assert all(type(x) is Fraction for row in m.rows for x in row)


# The map of a pushforward.

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(maps))
def test_pushforward_from_rows_equals_and_hashes_like_adjoint_matrix(t):
    built = OperatorMatrix.from_rows(
        [[1 if t(x) == y else 0 for x in range(t.degree)] for y in range(t.degree)])
    a = adjoint_matrix(t)
    assert built == a and hash(built) == hash(a) and {a: 1}[built] == 1
    assert built.images == a.images == t.images


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 2]],            # a column holding a 2
    [[1, 1], [1, 0]],            # a column holding two 1s
    [[1, 0], [0, 0]],            # an empty column
    [[F(1, 2), 0], [F(1, 2), 1]],
    [[1, -1], [0, 1]],
])
def test_non_pushforwards_have_no_map(rows):
    assert OperatorMatrix.from_rows(rows).images is None


def test_koopman_matrix_of_a_permutation_is_the_inverse_pushforward():
    t = Transformation((1, 2, 0))
    assert koopman_matrix(t).images == (2, 0, 1)
    assert koopman_matrix(Transformation((0, 0, 1))).images is None


# Products.

@pytest.mark.parametrize("left, right", [
    ("map", "map"), ("map", "general"), ("general", "map"), ("general", "general"),
])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_match_the_fraction_product(left, right, data):
    n = data.draw(st.integers(1, 8))
    a = data.draw(operands(n, left))
    b = data.draw(operands(n, right))
    product = a @ b
    assert product == oracles.matmul(a, b)
    assert hash(product) == hash(oracles.matmul(a, b))
    assert_fractions(product)
    if a.images is not None and b.images is not None:
        assert product.images == tuple(a.images[y] for y in b.images)


@pytest.mark.parametrize("a, b", [(3, 2), (2, 3)])
def test_products_of_mismatched_sizes_name_both(a, b):
    with pytest.raises(ValueError, match=f"size mismatch: {a}-state matrix and {b}-state operand"):
        OperatorMatrix.identity(a) @ OperatorMatrix.identity(b)
    with pytest.raises(ValueError, match="size mismatch"):
        OperatorMatrix.zeros(a) @ OperatorMatrix.from_rows([[F(1, 2)] * b] * b)


@pytest.mark.parametrize("map_side", ["right", "left"])
def test_products_of_int_entries_with_a_pushforward_hold_fractions(map_side):
    m = OperatorMatrix(((1, 2, 0), (0, 1, 3), (4, 0, 1)))
    a = adjoint_matrix(Transformation((1, 2, 2)))
    left, right = (m, a) if map_side == "right" else (a, m)
    product = left @ right
    assert product == oracles.matmul(left, right)
    assert_fractions(product)


# Averages and distances.

def as_matrix(op):
    return adjoint_matrix(op) if isinstance(op, Transformation) else op


# As large as the Abel weights' denominators, r**24 for r up to 8.
BIG = 8 ** 24


@st.composite
def weighted(draw):
    """Weighted operators with repeats and zero weights, from a pool of
    maps, pushforwards, general matrices or all three; the weights are
    drawn over denominators up to about 8 * BIG."""
    n = draw(st.integers(1, 6))
    kinds = draw(st.sampled_from([("map",), ("general",), ("map", "general"),
                                  ("transformation", "map", "general")]))
    pool = [draw(maps(n) if kind == "transformation" else operands(n, kind))
            for kind in kinds for _ in range(draw(st.integers(1, 3)))]
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    size = len(picks)
    raw = draw(st.lists(st.one_of(st.integers(0, 7), st.integers(0, BIG)),
                        min_size=size, max_size=size))
    assume(sum(raw) > 0)
    return [(m, F(r, sum(raw))) for m, r in zip(picks, raw)]


@settings(max_examples=200, deadline=None)
@given(weighted())
def test_convex_combination_matches_the_fraction_sum(pairs):
    result = convex_combination(pairs)
    assert result == oracles.convex_combination((as_matrix(m), w) for m, w in pairs)
    assert_fractions(result)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(maps(n), st.one_of(st.integers(0, 7), st.integers(0, BIG))), min_size=1, max_size=8)))
def test_pushforward_of_maps_matches_the_fraction_sum(raw):
    total = sum(r for _, r in raw)
    assume(total > 0)
    pairs = [(t, F(r, total)) for t, r in raw]
    result = pushforward(pairs)
    assert result == oracles.convex_combination((adjoint_matrix(t), w) for t, w in pairs)
    assert_fractions(result)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.one_of(general(n), shared(n), maps(n).map(adjoint_matrix)),
    st.one_of(general(n), shared(n), maps(n).map(adjoint_matrix)))))
def test_max_entry_distance_matches_fraction_subtraction(ab):
    a, b = ab
    distance = a.max_entry_distance(b)
    assert distance == oracles.max_entry_distance(a, b) == b.max_entry_distance(a)
    assert type(distance) is Fraction


@pytest.mark.parametrize("a, b, distance", [
    (((1, 2), (0, 3)), ((1, 0), (0, 1)), 2),
    (((1, 0), (0, 1)), ((1, 0), (0, 1)), 0),
    ((), (), 0),
])
def test_max_entry_distance_of_int_entries_is_a_fraction(a, b, distance):
    d = OperatorMatrix(a).max_entry_distance(OperatorMatrix(b))
    assert d == distance and type(d) is Fraction


# Counts.

def count_mat_mul(monkeypatch):
    calls = []
    mul = rational.mat_mul
    monkeypatch.setattr(rational, "mat_mul", lambda a, b: calls.append(1) or mul(a, b))
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_nets_of_commuting_pushforwards_multiply_no_fractions(monkeypatch, seed):
    sys_ = random_system(5, 1 + seed % 3, commuting=True, seed=seed)
    adjoints = [adjoint_matrix(g) for g in sys_.generator_maps]
    calls = count_mat_mul(monkeypatch)
    folner = folner_net(adjoints, [3, 5, 8])
    cesaro_net(adjoints[0], [8, 16, 32])
    abel_net(adjoints[0], [2, 4, 8])
    verify_net(folner, adjoints, "two_sided", F(2, 3))
    assert calls == []


@pytest.mark.parametrize("sys_, size", [
    (cyclic_shift_system(5), 5),
    (random_system(4, 2, seed=0), 24),
    (random_system(5, 3, seed=2), 208),     # beyond 64: the generators only
])
def test_koehler_checks_each_bridge_pair_by_one_fraction_product(monkeypatch, sys_, size):
    calls = count_mat_mul(monkeypatch)
    sg = koehler(sys_).bridge
    g = len(sg.generator_indices)
    assert sg.size == size
    assert len(calls) == (size if size <= 64 else g) * g


def test_koehler_compares_against_the_fraction_product(monkeypatch):
    """A wrong exact product must fail the bridge check, so ``@`` alone,
    which composes maps, cannot stand in for it."""
    monkeypatch.setattr(rational, "mat_mul", lambda a, b: tuple(zip(*a)))
    with pytest.raises(AssertionError, match="not multiplicative"):
        koehler(random_system(3, 1, seed=4))


@pytest.mark.parametrize("sys_", [cyclic_shift_system(6), random_system(5, 2, seed=6)])
def test_classify_scales_each_column_of_the_zero_once(monkeypatch, sys_):
    calls = []
    scale = rational.integer_form
    monkeypatch.setattr(rational, "integer_form", lambda xs: calls.append(1) or scale(xs))
    report = classify(sys_)
    assert report.zero.status == "found"
    assert len(calls) == 1     # the witness weights; Q is held as support labels


# The trailing window.

SHIFT = adjoint_matrix(Transformation((1, 2, 0)))


@pytest.mark.parametrize("window", [2.5, 3.0, True, "3"])
def test_verify_net_rejects_non_integer_windows(window):
    net = cesaro_net(SHIFT, [4, 8, 16])
    with pytest.raises(ValueError, match="integer window"):
        verify_net(net, [SHIFT], "two_sided", 0, window=window)


@pytest.mark.parametrize("window", [2.5, 3.0, True, "3"])
def test_detect_limit_rejects_non_integer_windows(window):
    trace = cesaro_net(SHIFT, [4, 8, 16, 32]).matrices()
    with pytest.raises(ValueError, match="integer window"):
        detect_limit(trace, 1, window=window)

