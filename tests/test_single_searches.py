"""Each search runs once, and the fixed spaces are read off the state graph.

``FiniteSystem.components`` holds the strong components of the state
graph, found once per system, and ``minimal_sets``, ``transitivity`` and
the minimal-set refutation read them; ``orbit`` runs one search from its
state, and ``FiniteSystem.minimal_sets`` holds the minimal sets, found
once per system.  The references below are the earlier definitions, which
searched the state graph again from each state on every call.
``decomposition_check`` reads the fixed functions off the components of
the generator graph and the fixed measures off the supports of the
invariant measures, with no Koopman matrix and no elimination; its
reference is the earlier three-elimination definition.  It decides
separation by counting the supports in each component; the reference
takes the gram rank of ``separation_check``.  ``classify`` reads both
cross-checks off that count, and a zero's rank is its support count, the
number of extreme invariant measures, so it eliminates only in the LP.
"""

from functools import cached_property

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergoscope import envelope, operators, rational, systems
from ergoscope.envelope import _zero_support_labels, classify
from ergoscope.operators import (
    DecompositionReport,
    adjoint_matrix,
    decomposition_check,
    fixed_space,
    invariant_measures,
    koopman_matrix,
    separation_check,
)
from ergoscope.systems import (
    FiniteSystem,
    Orbit,
    TransitivityReport,
    invariant_supports,
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


@st.composite
def cycles_with_tails(draw):
    """Disjoint cycles of 1-6 states and transient tails, up to 60 states
    in all, relabelled at random.  Each of 1-3 generators rotates every
    cycle, or now and then folds one onto its first state, and sends each
    tail state to a state listed before it: many minimal sets, many of
    them supports, and orbit closures and components holding several."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    n = sum(sizes) + draw(st.integers(0, 12))
    label = draw(st.permutations(range(n)))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        images, start = [], 0
        for k in sizes:
            cycle = range(start, start + k)
            if draw(st.integers(0, 4)):
                shift = draw(st.integers(0, k - 1))
                images.extend(cycle[(i + shift) % k] for i in range(k))
            else:
                images.extend([start] * k)
            start += k
        images.extend(draw(st.integers(0, t - 1)) for t in range(start, n))
        relabelled = [0] * n
        for x, y in enumerate(images):
            relabelled[label[x]] = label[y]
        maps.append(tuple(relabelled))
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
@given(finite_systems() | cycles_with_tails())
# The orbit closure of state 2 holds the fixed points 0 and 1.
@example(system_of((0, 1, 0), (0, 1, 1)))
def test_reach_serves_the_per_call_searches(sys_):
    assert [orbit(sys_, x) for x in range(sys_.n)] == [ref_orbit(sys_, x) for x in range(sys_.n)]
    assert minimal_sets(sys_) == ref_minimal_sets(sys_)
    assert transitivity(sys_) == ref_transitivity(sys_)
    assert {mu.support for mu in invariant_measures(sys_)} == ref_supports(sys_)
    assert invariant_supports(sys_) == tuple(sorted(ref_supports(sys_), key=min))
    # Computed once per system, like its minimal sets.
    assert invariant_supports(sys_) is invariant_supports(sys_)
    labels = _zero_support_labels(sys_)
    if isinstance(labels, str):
        assert labels == ref_zero_refuted_by_minimal_sets(sys_)
    else:
        assert ref_zero_refuted_by_minimal_sets(sys_) is None
        supports = invariant_supports(sys_)
        assert [[m for m in supports if m <= ref_orbit(sys_, x).states]
                for x in range(sys_.n)] == [[supports[i]] for i in labels]
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


def ref_decomposition_check(sys_):
    """The earlier definition: three exact eliminations over Koopman matrices."""
    n = sys_.n
    koopman = [koopman_matrix(g) for g in sys_.generator_maps]
    fix_basis = fixed_space(koopman)
    eye = rational.identity_rows(n)
    range_vectors = [col for m in koopman for col in zip(*rational.mat_sub(eye, m.rows))]
    fix_measures = rational.nullspace(range_vectors, n)
    dim_fix = len(fix_basis)
    dim_range = n - len(fix_measures)
    combined = rational.rank(list(fix_basis) + range_vectors)
    direct = combined == dim_fix + dim_range and dim_fix + dim_range == n
    separating = separation_check(fix_basis, fix_measures)
    return DecompositionReport(dim_fix, dim_range, direct, separating, fix_basis, fix_measures)


@settings(max_examples=300, deadline=None)
@given(finite_systems() | cycles_with_tails())
# The identity on 4 states: 4 components, each one support.
@example(system_of((0, 1, 2, 3)))
# Components {0, 1}, {2} and {3, 4, 5} hold 0, 1 and 2 supports: g1
# merges the minimal set {0, 1}, and 5 reaches the fixed points 3 and 4.
@example(system_of((1, 0, 2, 3, 4, 3), (0, 0, 2, 3, 4, 4)))
# Each failure alone: one component holding the supports {0} and {1};
# then the component {0, 1} holding none beside {2} holding one.
@example(system_of((0, 1, 0), (0, 1, 1)))
@example(system_of((1, 0, 2), (0, 0, 2)))
@example(system_of((0,)))
# One component holding the three fixed points 0, 1 and 2.
@example(system_of((0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 2, 2)))
def test_decomposition_matches_the_eliminations(sys_):
    dec, ref = decomposition_check(sys_), ref_decomposition_check(sys_)
    assert dec.dim_fix == ref.dim_fix
    assert dec.dim_range_span == ref.dim_range_span
    assert dec.direct_sum == ref.direct_sum
    assert dec.separating == ref.separating
    assert dec.fix_functions == ref.fix_functions
    assert dec.fix_measures == ref.fix_measures
    assert repr(dec) == repr(ref)
    assert (separation_check(dec.fix_functions, dec.fix_measures)
            == separation_check(ref.fix_functions, ref.fix_measures))


@settings(max_examples=100, deadline=None)
@given(finite_systems())
# No invariant measure: separation holds and the sum does not split.
@example(random_system(4, 2, seed=1))
# Two fixed points in one component: neither holds.
@example(system_of((0, 1, 0), (0, 1, 1)))
def test_classify_notes_the_gram_rank_separation(sys_):
    ref = ref_decomposition_check(sys_)
    cross_check = (f"fixed-space cross-checks: separation {ref.separating}, decomposition "
                   f"{ref.dim_fix}+{ref.dim_range_span}{'=' if ref.direct_sum else '!='}{sys_.n}")
    assert cross_check in classify(sys_).notes


@pytest.mark.parametrize("sys_", [random_system(5, 2, commuting=True, seed=4),
                                  random_system(5, 3, seed=9)], ids=["commuting", "non-commuting"])
def test_classify_builds_no_koopman_matrix(monkeypatch, sys_):
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    for module, name in ((operators, "koopman_matrix"), (operators, "adjoint_matrix"),
                         (envelope, "adjoint_matrix"), (operators, "fixed_space"),
                         (rational, "nullspace")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    classify(sys_)
    assert calls == []
    monkeypatch.setattr(rational, "rref", counted("rref", rational.rref))
    decomposition_check(sys_)
    assert calls == []


def test_classify_searches_the_state_graph_once(monkeypatch):
    descriptor = FiniteSystem.__dict__["components"]
    assert isinstance(descriptor, cached_property)
    components = descriptor.func
    searches, orbits = [], []

    def counted_components(sys_):
        searches.append(sys_.n)
        return components(sys_)

    def counted_orbit(sys_, x):
        orbits.append(x)
        return orbit(sys_, x)

    monkeypatch.setattr(descriptor, "func", counted_components)
    monkeypatch.setattr(systems, "orbit", counted_orbit)
    monkeypatch.setattr(envelope, "orbit", counted_orbit)
    for args in ((5, 3, 9), (4, 2, 1)):
        searches.clear()
        sys_ = random_system(*args[:2], seed=args[2])
        assert not sys_.commuting
        classify(sys_)
        assert searches == [sys_.n]
        assert orbits == []


@pytest.mark.parametrize("args, commuting", [((5, 3, 9), False), ((4, 2, 1), False),
                                            ((5, 2, 4), True)])
def test_classify_finds_the_minimal_sets_once(monkeypatch, args, commuting):
    descriptor = FiniteSystem.__dict__["minimal_sets"]
    assert isinstance(descriptor, cached_property)
    find = descriptor.func
    searches = []

    def counted(sys_):
        searches.append(sys_.n)
        return find(sys_)

    monkeypatch.setattr(descriptor, "func", counted)
    sys_ = random_system(*args[:2], commuting=commuting, seed=args[2])
    assert sys_.commuting == commuting
    classify(sys_)
    assert searches == [sys_.n]


@pytest.mark.parametrize("args, status, rref_calls", [
    # The LP's redundant-row pass alone: the zero's rank is its trace, and
    # both cross-checks are counts, with no elimination.
    ((5, 3, False, 9), "found", 1),
    # The minimal sets refute the zero before the LP.
    ((4, 2, False, 1), "absent", 0),
    # The Cesàro product needs no LP.
    ((5, 2, True, 4), "found", 0),
])
def test_classify_eliminates_each_fixed_space_once(monkeypatch, args, status, rref_calls):
    rref = rational.rref
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(rational, "rref", counted)
    report = classify(random_system(*args))
    assert report.zero.status == status
    assert len(calls) == rref_calls


@pytest.mark.parametrize("args, commuting, kernel_reads", [
    ((5, 3, 9), False, 3),   # the image check, the LP budget and the LP
    ((4, 2, 1), False, 1),   # the minimal sets refute it before the LP
    ((5, 2, 4), True, 1),    # the Cesàro product needs no kernel
])
def test_classify_reads_measures_and_kernel_once(monkeypatch, args, commuting, kernel_reads):
    calls = []

    def counted(name, f):
        def wrapper(*a, **kw):
            calls.append(name)
            return f(*a, **kw)
        return wrapper

    for module, name in ((envelope, "invariant_measures"), (operators, "invariant_measures"),
                         (envelope, "kernel")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    sys_ = random_system(*args[:2], commuting=commuting, seed=args[2])
    assert sys_.commuting == commuting
    classify(sys_)
    assert calls.count("invariant_measures") == 1
    assert calls.count("kernel") == kernel_reads


@st.composite
def permuted_blocks(draw):
    """g 2-3 maps that each permute the same 1-3 blocks of 1-3 states and
    send 0-2 further states anywhere: many of these have a zero."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    transient = draw(st.integers(0, 2))
    n = sum(sizes) + transient
    maps = []
    for _ in range(draw(st.integers(2, 3))):
        images, start = [], 0
        for k in sizes:
            images.extend(draw(st.permutations(range(start, start + k))))
            start += k
        images.extend(draw(st.lists(st.integers(0, n - 1), min_size=transient,
                                    max_size=transient)))
        maps.append(tuple(images))
    return system_of(*maps)


@settings(max_examples=100, deadline=None)
@given(permuted_blocks())
# S3 on two blocks: the zero averages over each block, rank 2.
@example(system_of((1, 2, 0, 4, 5, 3), (1, 0, 2, 4, 3, 5)))
def test_zero_rank_counts_the_extreme_measures(sys_):
    """A zero Q projects onto fix(S'), so rank Q = #extreme invariant measures."""
    assume(not sys_.commuting)
    report = classify(sys_)
    assume(report.zero.status == "found")
    measures = invariant_measures(sys_)
    assert report.zero_rank == rational.rank(report.zero.certificate.matrix.rows)
    assert report.zero_rank == len(measures)

