"""Differential tests: the sorted-key closure search against the set search,
and decomposition_check's union-find against the congruence closure.

On rows of up to 8 bytes (n <= 8) ``generate_closure`` searches on one
sorted ``uint64`` key array; ``_set_search``, which serves wider rows,
must give the same semigroup on every narrow system too, and the same
``SizeCapError`` at the same caps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoscope.operators import DecompositionReport, _indicators, decomposition_check
from ergoscope.systems import FiniteSystem, congruence_closure, invariant_supports, random_system
from ergoscope.transforms import (
    SizeCapError,
    Transformation,
    _distinct,
    _keys,
    _semigroup,
    _set_search,
    generate_closure,
)

MAX_ELEMENTS = 20_000


def set_closure(gens, cap):
    """The closure as the set search builds it, on the same key array type."""
    gen_rows = np.array(gens, dtype=np.int32)
    return _semigroup(_distinct(_keys(_set_search(gen_rows, cap))), gen_rows)


def cap_message(build, cap):
    with pytest.raises(SizeCapError) as info:
        build(cap)
    return str(info.value)


def assert_same_closure(gens, cap=MAX_ELEMENTS):
    """Compare the two searches at ``cap``; when the closure fits, also at the
    caps one below and at its size.  Returns the closure size, or None."""
    transformations = [Transformation(g) for g in gens]
    try:
        ref = set_closure(gens, cap)
    except SizeCapError as exc:
        with pytest.raises(SizeCapError) as info:
            generate_closure(transformations, max_elements=cap)
        assert str(info.value) == str(exc)
        return None
    sg = generate_closure(transformations, max_elements=cap)
    assert sg.keys.dtype == np.uint64
    assert np.array_equal(sg.keys, ref.keys)
    assert np.array_equal(sg.images, ref.images)
    assert sg.images.dtype == ref.images.dtype and not sg.images.flags.writeable
    assert sg.generator_indices == ref.generator_indices
    assert np.array_equal(sg.right, ref.right)
    assert np.array_equal(sg.left, ref.left)
    size = sg.size
    assert cap_message(lambda c: generate_closure(transformations, max_elements=c), size - 1) \
        == cap_message(lambda c: set_closure(gens, c), size - 1) \
        == f"semigroup closure exceeds element cap {size - 1}"
    assert generate_closure(transformations, max_elements=size).size == size
    return size


@st.composite
def narrow_generators(draw):
    n = draw(st.integers(1, 8))
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(maps, min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))  # a repeated generator
    return gens


@settings(max_examples=150, deadline=None)
@given(narrow_generators())
def test_key_search_matches_set_search(gens):
    assert_same_closure(gens)


@pytest.mark.parametrize("gens, size", [
    ([(0,)], 1),
    ([(0,), (0,), (0,)], 1),
    ([(0, 1, 2), (1, 2, 0), (0, 1, 2)], 3),
    ([(1, 0), (1, 0), (0, 0)], 4),
])
def test_one_state_repeated_generators_and_the_identity(gens, size):
    assert assert_same_closure(gens) == size


def test_one_permutation_of_order_15_takes_15_levels_of_one_key():
    # (0 1 2)(3 4 5 6 7): every level holds one new power.
    gens = [(1, 2, 0, 4, 5, 6, 7, 3)]
    assert assert_same_closure(gens) == 15


CYCLE = tuple((x + 1) % 8 for x in range(8))
TRANSPOSITION = (1, 0, 2, 3, 4, 5, 6, 7)
RANK_7 = (0, 0, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("cap", [5_000, 40_319, 40_320])
def test_full_transformation_monoid_generators_hit_the_cap_alike(cap):
    assert assert_same_closure([CYCLE, TRANSPOSITION, RANK_7], cap) is None


@pytest.mark.parametrize("n, g, seed", [(7, 3, 17), (8, 3, 0), (8, 3, 8), (8, 2, 9), (6, 3, 2)])
def test_random_systems_of_thousands_of_elements(n, g, seed):
    gens = [m.images for m in random_system(n, g, seed=seed).generator_maps]
    assert assert_same_closure(gens) is not None


def test_symmetric_group_on_8_states():
    assert assert_same_closure([CYCLE, TRANSPOSITION], cap=40_320) == 40_320


# decomposition_check against the congruence closure it used to run.

def ref_decomposition(sys_: FiniteSystem) -> DecompositionReport:
    n = sys_.n
    phi = congruence_closure(sys_, [(x, g(x)) for g in sys_.generator_maps for x in range(n)])
    components = [set() for _ in range(max(phi) + 1)]
    for x, c in enumerate(phi):
        components[c].add(x)
    supports = invariant_supports(sys_)
    separating = len({phi[min(m)] for m in supports}) == len(supports)
    return DecompositionReport(len(components), n - len(supports),
                               separating and len(supports) == len(components), separating,
                               _indicators(n, components), _indicators(n, supports))


def system(maps) -> FiniteSystem:
    n = len(maps[0])
    return FiniteSystem(tuple(map(str, range(n))),
                        tuple((f"g{i}", Transformation(m)) for i, m in enumerate(maps)))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 12))
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    if draw(st.booleans()):  # mostly fixed points: many components
        moves = st.dictionaries(st.integers(0, n - 1), st.integers(0, n - 1), max_size=3)
        maps = moves.map(lambda m: [m.get(x, x) for x in range(n)])
    return system(draw(st.lists(maps, min_size=1, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(systems())
def test_decomposition_components_match_congruence_closure(sys_):
    assert decomposition_check(sys_) == ref_decomposition(sys_)


@pytest.mark.parametrize("maps, components", [
    ([(0,)], 1),
    ([(0, 1, 2, 3)], 4),
    ([(1, 0, 3, 2, 4)], 3),
    ([(1, 2, 0, 4, 3), (0, 0, 0, 3, 3)], 2),
])
def test_decomposition_on_one_state_and_disconnected_systems(maps, components):
    report = decomposition_check(system(maps))
    assert report == ref_decomposition(system(maps))
    assert report.dim_fix == components
