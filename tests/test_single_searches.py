"""Each search runs once: the state graph's reach and the fixed-space eliminations.

``FiniteSystem.reach`` holds Sx for every state x, and ``orbit``,
``minimal_sets``, ``transitivity`` and the minimal-set refutation read
it.  The references below are the earlier definitions, which searched
the state graph again from each state on every call.
``decomposition_check`` returns the fixed functions and the fixed
measures it eliminated, and ``classify`` hands them to the separation
check instead of eliminating both spaces again.
"""

from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergoscope import rational, systems
from ergoscope.envelope import _zero_refuted_by_minimal_sets, classify
from ergoscope.operators import (
    adjoint_matrix,
    decomposition_check,
    fixed_space,
    invariant_measures,
    koopman_matrix,
)
from ergoscope.systems import (
    FiniteSystem,
    Orbit,
    TransitivityReport,
    minimal_sets,
    orbit,
    random_system,
    transitivity,
)
from ergoscope.transforms import Transformation


def system_of(*maps):
    return FiniteSystem(tuple(map(str, range(len(maps[0])))),
                        tuple((f"g{i}", Transformation(m)) for i, m in enumerate(maps)))


@st.composite
def finite_systems(draw):
    """n 1-8, g 1-3; commuting systems take powers of one map."""
    n = draw(st.integers(1, 8))
    g = draw(st.integers(1, 3))
    kind = st.sampled_from(["map", "permutation"])
    maps_of = {
        "map": st.tuples(*[st.integers(0, n - 1)] * n),
        "permutation": st.permutations(range(n)).map(tuple),
    }
    if draw(st.booleans()):
        base = Transformation(draw(maps_of[draw(kind)]))
        maps = [base.power(draw(st.integers(1, 2 * n))).images for _ in range(g)]
    else:
        maps = [draw(maps_of[draw(kind)]) for _ in range(g)]
    return system_of(*maps)


# The earlier definitions: one search of the state graph per call.

def ref_orbit(sys_, x):
    maps = sys_.generator_maps
    seen = {g(x) for g in maps}
    frontier = list(seen)
    while frontier:
        y = frontier.pop()
        for g in maps:
            z = g(y)
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return Orbit(x, frozenset(seen | {x}), frozenset(seen))


def ref_minimal_sets(sys_):
    closures = [ref_orbit(sys_, x).states for x in range(sys_.n)]
    found = []
    for x in range(sys_.n):
        c = closures[x]
        if all(closures[y] == c for y in c) and c not in found:
            found.append(c)
    return tuple(sorted(found, key=min))


def ref_transitivity(sys_):
    everything = frozenset(range(sys_.n))
    witness = None
    strict = None
    for x in range(sys_.n):
        o = ref_orbit(sys_, x)
        if witness is None and o.states == everything:
            witness = x
        if strict is None and o.semigroup_orbit == everything:
            strict = x
        if witness is not None and strict is not None:
            break
    return TransitivityReport(witness, strict)


def ref_supports(sys_):
    """Supports of the extreme invariant measures: the minimal sets that
    every generator permutes."""
    return {m for m in ref_minimal_sets(sys_)
            if all(len({g(x) for x in m}) == len(m) for g in sys_.generator_maps)}


def ref_zero_refuted_by_minimal_sets(sys_):
    msets = ref_minimal_sets(sys_)
    supports = ref_supports(sys_)
    for m in msets:
        if m not in supports:
            return f"minimal set {sorted(m)} carries no invariant measure"
    if len(supports) >= 2:
        for x in range(sys_.n):
            states = ref_orbit(sys_, x).states
            inside = [s for s in supports if s <= states]
            if len(inside) >= 2:
                return (f"orbit closure of state {x} contains "
                        f"{len(inside)} minimal sets with invariant measures")
    return None


@settings(max_examples=200, deadline=None)
@given(finite_systems())
# The orbit closure of state 2 holds the fixed points 0 and 1.
@example(system_of((0, 1, 0), (0, 1, 1)))
def test_reach_serves_the_per_call_searches(sys_):
    assert [orbit(sys_, x) for x in range(sys_.n)] == [ref_orbit(sys_, x) for x in range(sys_.n)]
    assert sys_.reach == tuple(ref_orbit(sys_, x).semigroup_orbit for x in range(sys_.n))
    assert minimal_sets(sys_) == ref_minimal_sets(sys_)
    assert transitivity(sys_) == ref_transitivity(sys_)
    assert {mu.support for mu in invariant_measures(sys_)} == ref_supports(sys_)
    assert _zero_refuted_by_minimal_sets(sys_) == ref_zero_refuted_by_minimal_sets(sys_)
    for x in (-1, sys_.n):
        with pytest.raises(ValueError, match=f"state {x} out of range"):
            orbit(sys_, x)


@settings(max_examples=100, deadline=None)
@given(finite_systems())
def test_decomposition_bases_are_the_fixed_spaces(sys_):
    dec = decomposition_check(sys_)
    maps = sys_.generator_maps
    assert dec.fix_functions == fixed_space([koopman_matrix(g) for g in maps])
    assert dec.fix_measures == fixed_space([adjoint_matrix(g) for g in maps])
    assert dec.dim_fix == len(dec.fix_functions)
    eye = rational.identity_rows(sys_.n)
    range_vectors = [col for g in maps
                     for col in zip(*rational.mat_sub(eye, koopman_matrix(g).rows))]
    assert dec.dim_range_span == rational.rank(range_vectors)


def test_classify_searches_the_state_graph_once(monkeypatch):
    descriptor = FiniteSystem.__dict__["reach"]
    assert isinstance(descriptor, cached_property)
    reach = descriptor.func
    searches, orbits = [], []

    def counted_reach(sys_):
        searches.append(sys_.n)
        return reach(sys_)

    def counted_orbit(sys_, x):
        orbits.append(x)
        return orbit(sys_, x)

    monkeypatch.setattr(descriptor, "func", counted_reach)
    monkeypatch.setattr(systems, "orbit", counted_orbit)
    for args in ((5, 3, 9), (4, 2, 1)):
        searches.clear()
        sys_ = random_system(*args[:2], seed=args[2])
        assert not sys_.commuting
        classify(sys_)
        assert searches == [sys_.n]
        assert orbits == []


@pytest.mark.parametrize("args, status, rref_calls", [
    # The decomposition check's three eliminations, the separation rank,
    # the LP's redundant-row pass and the zero's rank.
    ((5, 3, 9), "found", 6),
    # No invariant measure: the separation check needs no elimination,
    # and the minimal sets refute the zero before the LP.
    ((4, 2, 1), "absent", 3),
])
def test_classify_eliminates_each_fixed_space_once(monkeypatch, args, status, rref_calls):
    rref = rational.rref
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(rational, "rref", counted)
    report = classify(random_system(*args[:2], seed=args[2]))
    assert report.zero.status == status
    assert len(calls) == rref_calls
