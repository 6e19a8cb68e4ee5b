"""Differential tests: the array-backed closure against the tuple-set closure.

The references below copy the closure, generator graphs, kernel,
idempotents, element lookup and epimorphism targets as they were when
every element was held as an image tuple in a Python set.  The new code
must give the same elements in the same order, the same graphs and the
same errors.
"""

from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergoscope import envelope
from ergoscope.envelope import classify
from ergoscope.systems import FiniteSystem, congruence_closure, random_system
from ergoscope.transforms import (
    SizeCapError,
    Transformation,
    TransSemigroup,
    _keys,
    factor_epimorphism,
    generate_closure,
    idempotents,
    kernel,
    restriction_epimorphism,
)

MAX_ELEMENTS = 3000
MAX_MORPHISM_SOURCE = 400


# Tuple-set references.

def compose(a, b):
    return tuple(map(a.__getitem__, b))


def ref_semigroup(ordered, gen_tuples):
    """(sorted image tuples, generator indices, right graph, left graph)."""
    index = {t: i for i, t in enumerate(ordered)}
    generator_indices = tuple(sorted({index[t] for t in gen_tuples}))
    gens = [ordered[i] for i in generator_indices]
    right = [[index[compose(t, g)] for g in gens] for t in ordered]
    left = [[index[compose(g, t)] for g in gens] for t in ordered]
    return ordered, generator_indices, right, left


def ref_closure(gens, cap):
    elems = set(gens)
    frontier = list(elems)
    while frontier:
        fresh = []
        for t in frontier:
            for g in gens:
                c = compose(t, g)
                if c not in elems:
                    elems.add(c)
                    fresh.append(c)
            if len(elems) > cap:
                raise SizeCapError(f"semigroup closure exceeds element cap {cap}")
        frontier = fresh
    return ref_semigroup(sorted(elems), gens)


def ref_kernel(ordered):
    ranks = [len(set(t)) for t in ordered]
    least = min(ranks)
    return frozenset(i for i, r in enumerate(ranks) if r == least)


def ref_idempotents(ordered):
    return frozenset(i for i, t in enumerate(ordered) if compose(t, t) == t)


def ref_restriction(ordered, generator_indices, subset):
    states = sorted(set(subset))
    state_set = set(states)
    for gi in generator_indices:
        g = ordered[gi]
        for x in states:
            if g[x] not in state_set:
                raise ValueError(f"subset not invariant: generator {gi} maps {x} to {g[x]}")
    reindex = {x: i for i, x in enumerate(states)}
    return [tuple(reindex[e[x]] for x in states) for e in ordered]


def ref_factor(ordered, phi):
    classes = {}
    for x, c in enumerate(phi):
        classes.setdefault(c, []).append(x)
    for ei, e in enumerate(ordered):
        for members in classes.values():
            x0 = members[0]
            for y in members[1:]:
                if phi[e[x0]] != phi[e[y]]:
                    raise ValueError(
                        f"phi not compatible: element {ei} separates states "
                        f"{x0} and {y} with phi({x0}) = phi({y})"
                    )
    return [tuple(phi[e[members[0]]] for members in classes.values()) for e in ordered]


def ref_morphism(ref, images):
    target = ref_semigroup(sorted(set(images)), [images[gi] for gi in ref[1]])
    index = {t: i for i, t in enumerate(target[0])}
    return target, tuple(index[t] for t in images)


# Generators whose closures stay small on up to 40 states.

@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 40))
    points = st.integers(0, n - 1)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["block", "permutation", "sparse", "few_values"]))
        image = list(range(n))
        if kind == "block":
            block = draw(st.lists(points, unique=True, min_size=min(n, 3), max_size=6))
            for x in block:
                image[x] = draw(st.sampled_from(block))
        elif kind == "permutation":
            moved = draw(st.lists(points, unique=True, min_size=min(n, 2), max_size=7))
            for x, y in zip(moved, draw(st.permutations(moved))):
                image[x] = y
        elif kind == "sparse":
            for x in draw(st.lists(points, max_size=3)):
                image[x] = draw(points)
        else:
            values = draw(st.lists(points, min_size=1, max_size=2))
            image = [draw(st.sampled_from(values)) for _ in range(n)]
        gens.append(tuple(image))
    return gens


def reference(gens, cap=MAX_ELEMENTS):
    try:
        return ref_closure(gens, cap)
    except SizeCapError:
        assume(False)


def assert_same_semigroup(sg, ref):
    ordered, generator_indices, right, left = ref
    assert sg.images.tolist() == [list(t) for t in ordered]
    assert [e.images for e in sg.elements] == ordered
    assert sg.generator_indices == generator_indices
    assert sg.right.tolist() == right
    assert sg.left.tolist() == left
    assert not sg.images.flags.writeable


def assert_matches_reference(gens, ref):
    transformations = [Transformation(g) for g in gens]
    sg = generate_closure(transformations)
    assert_same_semigroup(sg, ref)
    size = sg.size
    with pytest.raises(SizeCapError) as new_error:
        generate_closure(transformations, max_elements=size - 1)
    with pytest.raises(SizeCapError) as old_error:
        ref_closure(gens, size - 1)
    assert str(new_error.value) == str(old_error.value)
    assert_same_semigroup(generate_closure(transformations, max_elements=size), ref)

    ordered = ref[0]
    assert kernel(sg) == ref_kernel(ordered)
    assert idempotents(sg) == ref_idempotents(ordered)
    assert [sg.index_of(Transformation(t)) for t in ordered] == list(range(size))
    for t in (Transformation.identity(sg.degree), Transformation.constant(sg.degree + 1, 0)):
        if t.images in ordered:
            assert sg.index_of(t) == ordered.index(t.images)
        else:
            with pytest.raises(KeyError):
                sg.index_of(t)


@settings(max_examples=120, deadline=None)
@given(generator_sets())
def test_closure_graphs_cap_and_lookups_match_tuple_closure(gens):
    assert_matches_reference(gens, reference(gens))


def shift(n, k=1):
    return tuple((x + k) % n for x in range(n))


def fix_all_but(n, x, y):
    return tuple(y if z == x else z for z in range(n))


def swap(n, x, y):
    return tuple({x: y, y: x}.get(z, z) for z in range(n))


def cycles(n, lengths):
    """A permutation with one cycle of each length on the first states."""
    image, start = list(range(n)), 0
    for c in lengths:
        image[start:start + c] = [start + (i + 1) % c for i in range(c)]
        start += c
    return tuple(image)


@pytest.mark.parametrize("n", [15, 16, 256, 257])
@pytest.mark.parametrize("family", ["last_state_only", "dihedral_and_constant",
                                    "two_idempotents_and_a_swap", "one_long_permutation"])
def test_closure_matches_where_keys_first_need_two_columns(n, family):
    gens = {
        # Two maps that differ only at the last state.
        "last_state_only": [tuple(range(n)), fix_all_but(n, n - 1, 0)],
        "dihedral_and_constant": [shift(n), tuple((-x) % n for x in range(n)), (0,) * n],
        "two_idempotents_and_a_swap": [fix_all_but(n, n - 1, n - 2), fix_all_but(n, 0, 1),
                                       swap(n, n - 2, n - 1)],
        # Order 105: the search has 105 levels of one element each.
        "one_long_permutation": [cycles(n, (3, 5, 7))],
    }[family]
    assert_matches_reference(gens, ref_closure(gens, MAX_ELEMENTS))
    assert _keys(np.array(gens)).dtype.itemsize == n * (1 if n <= 256 else 2)


def test_thin_permutation_closure_matches_tuple_closure():
    # The one_long_permutation family at its longest: 27,720 levels of
    # one element each, so every level's set difference holds one key.
    gens = [cycles(40, (5, 7, 8, 9, 11))]
    ref = ref_closure(gens, 30_000)
    assert len(ref[0]) == 27_720
    assert_matches_reference(gens, ref)


def assert_same_morphism(morphism, ref, images):
    target, element_map = ref_morphism(ref, images)
    assert_same_semigroup(morphism.target, target)
    assert morphism.element_map == element_map


def invariant_closure(gens, x):
    reach, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for g in gens:
            if g[y] not in reach:
                reach.add(g[y])
                frontier.append(g[y])
    return reach


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.data())
def test_restriction_targets_and_errors_match_tuple_closure(gens, data):
    ref = reference(gens, MAX_MORPHISM_SOURCE)
    sg = generate_closure([Transformation(g) for g in gens])
    points = st.integers(0, sg.degree - 1)
    for subset in (invariant_closure(gens, data.draw(points)),
                   data.draw(st.sets(points, min_size=1))):
        try:
            images = ref_restriction(ref[0], ref[1], subset)
        except ValueError as old_error:
            with pytest.raises(ValueError) as new_error:
                restriction_epimorphism(sg, subset)
            assert str(new_error.value) == str(old_error)
        else:
            assert_same_morphism(restriction_epimorphism(sg, subset), ref, images)


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.data())
def test_factor_targets_and_errors_match_tuple_closure(gens, data):
    ref = reference(gens, MAX_MORPHISM_SOURCE)
    sg = generate_closure([Transformation(g) for g in gens])
    n = sg.degree
    sys_ = FiniteSystem(tuple(str(x) for x in range(n)),
                        tuple((f"g{i}", Transformation(g)) for i, g in enumerate(gens)))
    points = st.integers(0, n - 1)
    labels = data.draw(st.lists(points, min_size=n, max_size=n))
    relabel = {c: i for i, c in enumerate(dict.fromkeys(labels))}
    for phi in (congruence_closure(sys_, [(data.draw(points), data.draw(points))]),
                tuple(relabel[c] for c in labels)):
        try:
            images = ref_factor(ref[0], phi)
        except ValueError as old_error:
            with pytest.raises(ValueError) as new_error:
                factor_epimorphism(sg, phi)
            assert str(new_error.value) == str(old_error)
        else:
            assert_same_morphism(factor_epimorphism(sg, phi), ref, images)


def test_classify_computes_ranks_once(monkeypatch):
    calls = []
    descriptor = TransSemigroup.__dict__["ranks"]
    assert isinstance(descriptor, cached_property)
    ranks = descriptor.func

    def counted(sg):
        calls.append(sg.size)
        return ranks(sg)

    monkeypatch.setattr(descriptor, "func", counted)
    report = classify(random_system(6, 3, seed=63))
    assert report.kernel_size is not None
    assert calls == [report.ellis_size]


def test_classify_builds_no_elements_of_a_large_closure(monkeypatch):
    built = []
    closures = []
    post_init = Transformation.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    def recorded(*args, **kwargs):
        closures.append(generate_closure(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(Transformation, "__post_init__", counted)
    monkeypatch.setattr(envelope, "generate_closure", recorded)
    # (8, 3, 3) is refuted by its minimal sets; (8, 3, 2) has a one-element
    # kernel and gets its zero from the kernel LP.
    for seed, size, status in ((3, 108_685, "absent"), (2, 3_596, "found")):
        built.clear()
        closures.clear()
        report = classify(random_system(8, 3, seed=seed))
        assert report.ellis_size == size
        assert report.zero.status == status
        assert [sg.size for sg in closures] == [size]
        assert "elements" not in closures[0].__dict__
        assert len(built) < 1000


@pytest.mark.parametrize("n", [8, 9, 257])
def test_closure_and_targets_match_tuple_closure_at_the_key_width_boundary(n):
    # A swap of states 0 and 1 times a 3-cycle on the last three states,
    # and two idempotents: 552 elements that differ in the first and last
    # entries of their rows and fix every state in between.  Keys are one
    # uint64 up to n = 8, byte strings from n = 9 and two bytes an entry
    # from n = 257.
    gens = [tuple([1, 0, *range(2, n - 3), n - 2, n - 1, n - 3]),
            fix_all_but(n, n - 1, n - 2), fix_all_but(n, 0, n - 1)]
    ref = ref_closure(gens, MAX_ELEMENTS)
    assert len(ref[0]) == 552
    assert_matches_reference(gens, ref)
    sg = generate_closure([Transformation(g) for g in gens])
    width = n if n <= 256 else 2 * n
    assert sg.keys.dtype == (np.uint64 if n <= 8 else np.dtype((np.void, width)))
    # Misses before the first row, between rows and past the last one.
    for t in ((0,) * n, tuple(reversed(range(n))), (n - 1,) * n):
        assert t not in ref[0]
        with pytest.raises(KeyError):
            sg.index_of(Transformation(t))
    # Targets of degree 3 to n - 1; their images repeat rows, down to one
    # distinct row when states 0 and 1 are merged.
    for subset in (set(range(n)) - {2}, invariant_closure(gens, n - 1),
                   invariant_closure(gens, 0)):
        images = ref_restriction(ref[0], ref[1], subset)
        assert_same_morphism(restriction_epimorphism(sg, subset), ref, images)
    sys_ = FiniteSystem(tuple(str(x) for x in range(n)),
                        tuple((f"g{i}", Transformation(g)) for i, g in enumerate(gens)))
    for pair in ((0, 1), (2, 3), (n - 1, n - 2)):
        phi = congruence_closure(sys_, [pair])
        images = ref_factor(ref[0], phi)
        assert_same_morphism(factor_epimorphism(sg, phi), ref, images)
