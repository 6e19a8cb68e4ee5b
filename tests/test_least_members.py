"""One union-find, ``systems.least_members``, under every partition of the states.

``congruence_closure`` is checked against a brute-force fixpoint over
partitions, which also checks that its partition is the least one, and
the components that ``decomposition_check`` reads are checked against an
undirected breadth-first search.  The exact-number checks of ``Measure``
weights and ``CylinderFunction`` entries close the file.
"""

import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergoscope.operators import Measure, _indicators, decomposition_check
from ergoscope.subshift import BinaryWord, CylinderFunction, cesaro_trace
from ergoscope.systems import FiniteSystem, congruence_closure, least_members
from ergoscope.transforms import Transformation


def system_of(*maps) -> FiniteSystem:
    n = len(maps[0])
    return FiniteSystem(tuple(map(str, range(n))),
                        tuple((f"g{i}", Transformation(m)) for i, m in enumerate(maps)))


@st.composite
def systems_and_pairs(draw):
    """1-10 states, 1-3 generators (half the time mostly fixed points, so
    with many classes) and 0-4 pairs of states."""
    n = draw(st.integers(1, 10))
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    if draw(st.booleans()):
        moves = st.dictionaries(st.integers(0, n - 1), st.integers(0, n - 1), max_size=3)
        maps = moves.map(lambda m: [m.get(x, x) for x in range(n)])
    states = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(states, states), max_size=4))
    return system_of(*draw(st.lists(maps, min_size=1, max_size=3))), pairs


def brute_congruence(sys_: FiniteSystem, pairs) -> tuple[int, ...]:
    """Merge the pairs, then merge every block that meets g(C) for a class
    C and a generator g, until no merge happens; classes numbered by least
    member."""
    classes = [{x} for x in range(sys_.n)]

    def merge(states):
        met = [c for c in classes if c & states]
        for c in met[1:]:
            met[0] |= c
            classes.remove(c)
        return len(met) > 1

    for pair in pairs:
        merge(set(pair))
    while any(merge({g(x) for x in c}) for c in list(classes) for g in sys_.generator_maps):
        pass
    number = {min(c): i for i, c in enumerate(sorted(classes, key=min))}
    return tuple(number[min(c)] for x in range(sys_.n) for c in classes if x in c)


def bfs_components(sys_: FiniteSystem) -> list[set[int]]:
    """The components of the undirected graph x -- g(x), by breadth-first search."""
    neighbours = [set() for _ in range(sys_.n)]
    for g in sys_.generator_maps:
        for x in range(sys_.n):
            neighbours[x].add(g(x))
            neighbours[g(x)].add(x)
    seen, components = set(), []
    for start in range(sys_.n):
        if start not in seen:
            component, frontier = {start}, [start]
            while frontier:
                frontier = [y for x in frontier for y in neighbours[x] if y not in component]
                component.update(frontier)
            seen |= component
            components.append(component)
    return components


@settings(max_examples=300, deadline=None)
@given(systems_and_pairs())
# The 4-cycle with 0 ~ 2: {0, 2} and {1, 3}.
@example((system_of((1, 2, 3, 0)), [(0, 2)]))
# A merge that only the images of an earlier merge bring about.
@example((system_of((1, 3, 3, 3), (0, 2, 2, 3)), [(0, 2)]))
@example((system_of((0,)), []))
def test_congruence_closure_is_the_least_fixpoint(case):
    sys_, pairs = case
    assert congruence_closure(sys_, pairs) == brute_congruence(sys_, pairs)


@settings(max_examples=300, deadline=None)
@given(systems_and_pairs())
def test_least_members_are_least_and_match_the_closure(case):
    sys_, pairs = case
    least = least_members(sys_.n, pairs, [g.images for g in sys_.generator_maps])
    phi = congruence_closure(sys_, pairs)
    for x, r in enumerate(least):
        assert least[r] == r <= x
        assert phi[r] == phi[x]
    assert len(set(least)) == max(phi) + 1


@settings(max_examples=300, deadline=None)
@given(systems_and_pairs())
def test_decomposition_components_match_breadth_first_search(case):
    sys_, _ = case
    components = bfs_components(sys_)
    edges = [(x, g(x)) for g in sys_.generator_maps for x in range(sys_.n)]
    assert least_members(sys_.n, edges) == [min(c) for x in range(sys_.n)
                                            for c in components if x in c]
    report = decomposition_check(sys_)
    assert report.dim_fix == len(components)
    assert report.fix_functions == _indicators(sys_.n, components)


def test_least_members_on_no_pairs_and_no_states():
    assert least_members(0, []) == []
    assert least_members(4, [], [(1, 2, 3, 0)]) == [0, 1, 2, 3]
    assert least_members(4, [(3, 1)], [(1, 2, 3, 0)]) == [0, 1, 0, 1]


@pytest.mark.parametrize("weights", [
    (0.5, 0.5),
    (True, False),
    (np.float64(1.0), 0),
    (F(1, 2), 0.5),
])
def test_measure_rejects_weights_that_are_not_exact(weights):
    bad = next(w for w in weights if type(w) not in (int, F))
    with pytest.raises(ValueError, match=re.escape(f"need a rational weight, got {bad!r}")):
        Measure(weights)


@pytest.mark.parametrize("weights, mean", [
    ((1, 0), F(1)),
    ((np.int64(0), np.int64(1)), F(2)),
    ((F(1, 3), F(2, 3)), F(5, 3)),
])
def test_measure_accepts_ints_and_fractions(weights, mean):
    assert Measure(weights).pairing((F(1), F(2))) == mean


@pytest.mark.parametrize("depth, values, message", [
    (True, (0, 1), "need an integer depth, got True"),
    (1.0, (0, 1), "need an integer depth, got 1.0"),
    (-1, (), "need depth >= 0"),
    (1, (0.0, 1.0), "need a rational value, got 0.0"),
    (1, (False, True), "need a rational value, got False"),
])
def test_cylinder_function_rejects_inexact_depths_and_values(depth, values, message):
    with pytest.raises(ValueError, match=message):
        CylinderFunction(depth, values)


def test_cesaro_trace_takes_exact_values_only():
    word = BinaryWord.from_string("0110")
    assert cesaro_trace(word, CylinderFunction(1, (0, 1)), [3]) == [F(2, 3)]
    with pytest.raises(ValueError, match="need a rational value, got 0.0"):
        cesaro_trace(word, CylinderFunction(1, (0.0, 1.0)), [3])
