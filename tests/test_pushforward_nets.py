"""Differential tests: pushforwards from image tuples, and the one Følner path.

``pushforward`` reads matrices straight off image tuples, and
``folner_net`` sums the box one generator at a time, merging equal partial
products.  The references below are the definitions they replaced: the
0/1 matrix built entry by entry, the recursive walk over all N^d box
products, and the product of per-generator Cesàro means.
"""

from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergoscope import rational
from ergoscope.envelope import _zero_by_feasibility, ellis
from ergoscope.nets import cesaro, cesaro_net, folner_box, folner_net
from ergoscope.operators import (
    OperatorMatrix,
    adjoint_matrix,
    convex_combination,
    koopman_matrix,
    pushforward,
)
from ergoscope.rational import ONE, ZERO
from ergoscope.systems import FiniteSystem
from ergoscope.transforms import SizeCapError, Transformation

F = Fraction


# Reference definitions.

def ref_adjoint(t):
    n = t.degree
    return OperatorMatrix(tuple(
        tuple(ONE if t(x) == y else ZERO for x in range(n)) for y in range(n)
    ))


def ref_powers(m, count):
    powers = [OperatorMatrix.identity(m.n)]
    for _ in range(count - 1):
        powers.append(powers[-1] @ m)
    return powers


def ref_cesaro(m, n):
    powers = ref_powers(m, n)
    acc = powers[0]
    for p in powers[1:]:
        acc = acc + p
    return acc.scale(F(1, n))


def ref_box(generators, n):
    """The product of the per-generator Cesàro means."""
    acc = ref_cesaro(generators[0], n)
    for g in generators[1:]:
        acc = acc @ ref_cesaro(g, n)
    return acc


def ref_walk(generators, n):
    """Weights on every product over the box {0..N-1}^d, one by one."""
    per_gen_powers = [ref_powers(g, n) for g in generators]
    combo = {}
    w = F(1, n ** len(generators))

    def walk(i, acc):
        if i == len(per_gen_powers):
            combo[acc] = combo.get(acc, ZERO) + w
            return
        for p in per_gen_powers[i]:
            walk(i + 1, acc @ p if acc is not None else p)

    walk(0, None)
    return combo


def ref_feasibility_rows(sg):
    mats = [ref_adjoint(t) for t in sg.elements]
    n = sg.degree
    rows = []
    for left, right in zip(sg.left.T.tolist(), sg.right.T.tolist()):
        for r in range(n):
            for c in range(n):
                rows.append(tuple(
                    mats[left[i]].rows[r][c] - mats[i].rows[r][c] for i in range(sg.size)
                ))
                rows.append(tuple(
                    mats[right[i]].rows[r][c] - mats[i].rows[r][c] for i in range(sg.size)
                ))
    rows.append((ONE,) * sg.size)
    return rows


# Strategies.

def maps(n):
    return st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation)


@st.composite
def weighted_maps(draw):
    n = draw(st.integers(1, 5))
    ts = draw(st.lists(maps(n), min_size=1, max_size=6))
    raw = draw(st.lists(st.integers(0, 7), min_size=len(ts), max_size=len(ts)))
    assume(sum(raw) > 0)
    return [(t, F(r, sum(raw))) for t, r in zip(ts, raw)]


@st.composite
def commuting_maps(draw):
    """Powers of one map, or maps acting on separate factors of a product."""
    if draw(st.booleans()):
        base = draw(maps(draw(st.integers(1, 4))))
        exponents = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
        return [base.power(k) for k in exponents]
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f, h = draw(maps(a)), draw(maps(b))
    first = Transformation(tuple(f(x) * b + y for x in range(a) for y in range(b)))
    second = Transformation(tuple(x * b + h(y) for x in range(a) for y in range(b)))
    return draw(st.permutations([first, second]))[:draw(st.integers(1, 2))]


@st.composite
def commuting_pushforwards(draw):
    gens = draw(commuting_maps())
    as_koopman = draw(st.booleans())
    return [koopman_matrix(t) if as_koopman else adjoint_matrix(t) for t in gens]


@st.composite
def commuting_diagonals(draw):
    n = draw(st.integers(1, 3))
    entry = st.fractions(min_value=0, max_value=1, max_denominator=4)
    d = draw(st.integers(1, 3))
    return [
        OperatorMatrix(tuple(
            tuple(draw(entry) if i == j else ZERO for j in range(n)) for i in range(n)
        ))
        for _ in range(d)
    ]


def ns_lists():
    return st.lists(st.integers(1, 5), min_size=1, max_size=3)


# Pushforwards.

@settings(max_examples=150, deadline=None)
@given(weighted_maps())
def test_pushforward_matches_convex_combination(weighted):
    expected = convex_combination((ref_adjoint(t), w) for t, w in weighted)
    assert pushforward(weighted) == expected
    assert pushforward(weighted) == convex_combination(
        (adjoint_matrix(t), w) for t, w in weighted
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(maps))
def test_adjoint_and_koopman_match_entrywise_definition(t):
    assert adjoint_matrix(t) == ref_adjoint(t)
    assert koopman_matrix(t) == ref_adjoint(t).transpose()


# The one Følner path.

def check_folner(gens, ns):
    net = folner_net(gens, ns)
    for n, step in zip(ns, net.steps):
        assert step.descriptor == f"folner N={n}"
        assert step.verify_combination()
        assert step.matrix == ref_box(gens, n)
        walk = ref_walk(gens, n)
        assert dict(step.combination) == walk
        assert step.matrix == convex_combination(walk.items())
    assert folner_box(gens, ns[-1]) == ref_box(gens, ns[-1])


def check_cesaro(m, ns):
    net = cesaro_net(m, ns)
    for n, step in zip(ns, net.steps):
        assert step.descriptor == f"cesaro N={n}"
        assert step.verify_combination()
        assert step.matrix == ref_cesaro(m, n) == cesaro(m, n)
        weights = Counter()
        for p in ref_powers(m, n):
            weights[p] += F(1, n)
        assert dict(step.combination) == weights


@settings(max_examples=60, deadline=None)
@given(commuting_pushforwards(), ns_lists())
def test_folner_net_matches_walk_on_pushforwards(gens, ns):
    check_folner(gens, ns)
    check_cesaro(gens[0], ns)


@settings(max_examples=60, deadline=None)
@given(commuting_diagonals(), ns_lists())
def test_folner_net_matches_walk_on_diagonals(gens, ns):
    check_folner(gens, ns)
    check_cesaro(gens[0], ns)


# Checks that run once per net.

@pytest.mark.parametrize("ns", [[0], [2, 0, 3], [-1]])
def test_nets_reject_n_below_one(ns):
    shift = adjoint_matrix(Transformation((1, 2, 0)))
    with pytest.raises(ValueError, match="N >= 1"):
        folner_net([shift], ns)
    with pytest.raises(ValueError, match="N >= 1"):
        cesaro_net(shift, ns)
    with pytest.raises(ValueError, match="N >= 1"):
        folner_box([shift], min(ns))


def test_nets_reject_empty_ns():
    shift = adjoint_matrix(Transformation((1, 2, 0)))
    with pytest.raises(ValueError, match="empty net"):
        folner_net([shift], [])
    with pytest.raises(ValueError, match="empty net"):
        cesaro_net(shift, [])


def test_folner_net_rejects_non_commuting_and_empty_generators():
    c0 = adjoint_matrix(Transformation.constant(2, 0))
    swap = adjoint_matrix(Transformation((1, 0)))
    with pytest.raises(ValueError, match="commuting generators"):
        folner_net([c0, swap], [2, 4])
    with pytest.raises(ValueError, match="at least one generator"):
        folner_net([], [2])


# The exact LP reads its 0/1 entries from image tuples.

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(maps(n), min_size=1, max_size=3)))
def test_feasibility_rows_match_adjoint_matrices(gens):
    sys_ = FiniteSystem(
        tuple(str(i) for i in range(gens[0].degree)),
        tuple((f"g{i}", g) for i, g in enumerate(gens)),
    )
    try:
        sg = ellis(sys_, max_elements=40)
    except SizeCapError:
        assume(False)
    with mock.patch.object(rational, "lp_feasible_point",
                           wraps=rational.lp_feasible_point) as lp:
        _zero_by_feasibility(sys_, sg)
    rows, rhs = lp.call_args.args
    assert [tuple(map(Fraction, row)) for row in rows] == ref_feasibility_rows(sg)
    assert list(rhs) == [ZERO] * (len(rows) - 1) + [ONE]
