"""Differential tests: generator Cayley graphs against a brute-force table.

Each routine in :mod:`ergoscope.transforms` reads only the left and right
generator graphs.  The references below are the dense-table definitions
they replaced, run on a table built here by composing every pair of
elements.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergoscope.envelope import classify, koehler
from ergoscope.systems import FiniteSystem, congruence_closure, random_system
from ergoscope.transforms import (
    SizeCapError,
    Transformation,
    TransSemigroup,
    center,
    enumerate_all_ideals,
    factor_epimorphism,
    generate_closure,
    idempotents,
    kernel,
    left_zeros,
    principal_ideal,
    restriction_epimorphism,
    right_zeros,
    zero,
)

MAX_ELEMENTS = 150
MAX_IDEAL_ENUMERATION = 12


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 5))
    image = st.tuples(*[st.integers(0, n - 1)] * n)
    return draw(st.lists(image, min_size=1, max_size=3))


def small_closure(gens):
    try:
        return generate_closure([Transformation(g) for g in gens],
                                max_elements=MAX_ELEMENTS)
    except SizeCapError:
        assume(False)


def brute_table(sg):
    index = {e.images: i for i, e in enumerate(sg.elements)}
    return np.array([
        [index[a.compose(b).images] for b in sg.elements] for a in sg.elements
    ])


def brute_closure(gens):
    elems = set(gens)
    while True:
        new = {tuple(a[y] for y in b) for a in elems for b in elems} | elems
        if new == elems:
            return elems
        elems = new


# Dense-table reference definitions.

def ref_principal_ideal(table, a):
    left = np.unique(table[:, a])
    members = {a} | set(left.tolist()) | set(table[a, :].tolist())
    members |= set(np.unique(table[left, :]).tolist())
    return frozenset(members)


def ref_kernel(table):
    p = 0
    for x in range(1, len(table)):
        p = int(table[p, x])
    return ref_principal_ideal(table, p)


def ref_right_zeros(table):
    idx = np.arange(len(table))
    return frozenset(np.nonzero((table == idx[np.newaxis, :]).all(axis=0))[0].tolist())


def ref_left_zeros(table):
    idx = np.arange(len(table))
    return frozenset(np.nonzero((table == idx[:, np.newaxis]).all(axis=1))[0].tolist())


def ref_zero(table):
    both = ref_right_zeros(table) & ref_left_zeros(table)
    return next(iter(both)) if both else None


def ref_idempotents(table):
    idx = np.arange(len(table))
    return frozenset(np.nonzero(table[idx, idx] == idx)[0].tolist())


def ref_center(table):
    return frozenset(
        i for i in range(len(table)) if np.array_equal(table[i, :], table[:, i])
    )


def ref_ideals(table):
    m = len(table)
    ideals = []
    for bits in range(1, 1 << m):
        members = {i for i in range(m) if bits >> i & 1}
        if all(set(table[:, q].tolist()) <= members
               and set(table[q, :].tolist()) <= members for q in members):
            ideals.append(frozenset(members))
    return ideals


def assert_graphs_match(sg, table):
    for k, g in enumerate(sg.generator_indices):
        assert np.array_equal(sg.right[:, k], table[:, g])
        assert np.array_equal(sg.left[:, k], table[g, :])
    assert np.array_equal(sg.cayley, table)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_graphs_and_lazy_cayley_match_brute_table(gens):
    sg = small_closure(gens)
    assert {e.images for e in sg.elements} == brute_closure(gens)
    assert_graphs_match(sg, brute_table(sg))


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_ideal_structure_matches_table_definitions(gens):
    sg = small_closure(gens)
    table = brute_table(sg)
    assert kernel(sg) == ref_kernel(table)
    for a in range(sg.size):
        assert principal_ideal(sg, a) == ref_principal_ideal(table, a)
    assert right_zeros(sg) == ref_right_zeros(table)
    assert left_zeros(sg) == ref_left_zeros(table)
    assert zero(sg) == ref_zero(table)
    assert idempotents(sg) == ref_idempotents(table)
    assert center(sg) == ref_center(table)
    if sg.size <= MAX_IDEAL_ENUMERATION:
        assert enumerate_all_ideals(sg) == ref_ideals(table)


def invariant_closure(gens, x):
    reach, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for g in gens:
            if g[y] not in reach:
                reach.add(g[y])
                frontier.append(g[y])
    return sorted(reach)


def check_morphism(sg, morphism, image, gens):
    target = morphism.target
    assert {e.images for e in target.elements} == brute_closure([image(g) for g in gens])
    for i, e in enumerate(sg.elements):
        assert target.elements[morphism.element_map[i]].images == image(e.images)
    assert_graphs_match(target, brute_table(target))


@settings(max_examples=100, deadline=None)
@given(generator_sets(), st.data())
def test_restriction_target_matches_brute_closure(gens, data):
    sg = small_closure(gens)
    states = invariant_closure(gens, data.draw(st.integers(0, sg.degree - 1)))
    pos = {x: i for i, x in enumerate(states)}
    morphism = restriction_epimorphism(sg, states)
    check_morphism(sg, morphism, lambda t: tuple(pos[t[x]] for x in states), gens)


@settings(max_examples=100, deadline=None)
@given(generator_sets(), st.data())
def test_factor_target_matches_brute_closure(gens, data):
    sg = small_closure(gens)
    n = sg.degree
    sys_ = FiniteSystem(
        tuple(str(x) for x in range(n)),
        tuple((f"g{i}", Transformation(g)) for i, g in enumerate(gens)),
    )
    pair = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
    phi = congruence_closure(sys_, [pair])
    morphism = factor_epimorphism(sg, phi)
    classes = {}
    for x, c in enumerate(phi):
        classes.setdefault(c, x)

    def induced(t):
        return tuple(phi[t[classes[c]]] for c in range(len(classes)))

    check_morphism(sg, morphism, induced, gens)


def test_classify_and_koehler_never_build_the_dense_table(monkeypatch):
    def refuse(self):
        raise AssertionError("dense Cayley table requested")

    monkeypatch.setattr(TransSemigroup, "cayley", property(refuse))
    methods = set()
    for seed in range(40):
        sys_ = random_system(3 + seed % 3, 1 + seed % 3, commuting=seed % 4 == 0, seed=seed)
        methods.add(classify(sys_).zero.method)
        koehler(sys_)
    assert {"linear_feasibility", "cesaro_product"} <= methods
