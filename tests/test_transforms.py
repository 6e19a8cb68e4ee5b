import random

import numpy as np
import pytest

from ergoscope.envelope import classify, report_json
from ergoscope.systems import FiniteSystem
from ergoscope.transforms import (
    SizeCapError,
    Transformation,
    factor_epimorphism,
    generate_closure,
    idempotents,
    kernel,
    left_zeros,
    restriction_epimorphism,
    right_zeros,
    zero,
)
from oracles import cayley_table, enumerate_all_ideals, principal_ideal

ID2 = Transformation((0, 1))
C0 = Transformation((0, 0))
C1 = Transformation((1, 1))
SHIFT3 = Transformation((1, 2, 0))
TWO_FIX = Transformation((0, 1, 0))  # 0 and 1 fixed, 2 -> 0


def brute_closure(gens):
    # Oracle: iterate pairwise composition to a fixed point.
    elems = set(g.images for g in gens)
    while True:
        new = {
            tuple(a[y] for y in b) for a in elems for b in elems
        } | elems
        if new == elems:
            return elems
        elems = new


def test_power_rejects_negative_exponent():
    assert SHIFT3.power(0) == Transformation.identity(3)
    assert SHIFT3.power(4) == SHIFT3
    with pytest.raises(ValueError, match="need k >= 0"):
        Transformation((1, 0)).power(-1)


@pytest.mark.parametrize("images, bad", [
    ((0.0, 1.0), 0.0), ((0, 1.0), 1.0), ((True, False), True), ((0, False), False),
    ((0, "1"), "1"), ((np.True_, 0), np.True_),
])
def test_transformation_rejects_entries_that_are_not_integers(images, bad):
    with pytest.raises(ValueError, match=f"image {bad!r} is not an integer"):
        Transformation(images)


def test_transformation_accepts_numpy_integers():
    t = Transformation((np.int64(1), np.int32(0)))
    assert t.compose(t).is_identity


def test_numpy_images_are_stored_as_python_ints():
    t = Transformation(tuple(np.array([1, 2, 0])))
    assert t == SHIFT3 and hash(t) == hash(SHIFT3)
    assert all(type(y) is int for y in t.images)
    systems = [FiniteSystem(("0", "1", "2"), (("shift", s),)) for s in (t, SHIFT3)]
    assert systems[0].system_id() == systems[1].system_id()
    assert report_json(classify(systems[0])) == report_json(classify(systems[1]))


def test_closure_identity():
    sg = generate_closure([Transformation.identity(3)])
    assert sg.size == 1 and sg.elements[0].is_identity


def test_closure_cyclic_shift():
    expected = brute_closure([SHIFT3])
    sg = generate_closure([SHIFT3])
    assert {e.images for e in sg.elements} == expected
    assert sg.size == 3


def test_closure_constant_absorbs():
    sg = generate_closure([ID2, C0])
    assert sg.size == 2
    i = sg.index_of(C0)
    assert cayley_table(sg)[i, i] == i


def test_closure_idempotence():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        gens = [
            Transformation(tuple(rng.randrange(n) for _ in range(n)))
            for _ in range(rng.randint(1, 3))
        ]
        sg = generate_closure(gens)
        again = generate_closure(sg.elements)
        assert [e.images for e in again.elements] == [e.images for e in sg.elements]
        assert np.array_equal(cayley_table(again), cayley_table(sg))


def test_closure_rejects_mismatched_degrees():
    with pytest.raises(ValueError):
        generate_closure([ID2, SHIFT3])


def test_closure_size_cap():
    full_gens = [
        Transformation((1, 2, 3, 0, 4)),
        Transformation((1, 0, 2, 3, 4)),
        Transformation((0, 0, 1, 2, 3)),
    ]
    with pytest.raises(SizeCapError):
        generate_closure(full_gens, max_elements=10)


def test_cayley_associativity_spot_check():
    sg = generate_closure([C0, C1, ID2])
    table = cayley_table(sg)
    m = sg.size
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert table[table[i, j], k] == table[i, table[j, k]]


def kernel_oracle_subsets(sg):
    ideals = enumerate_all_ideals(sg)
    result = set(range(sg.size))
    for ideal in ideals:
        result &= ideal
    return frozenset(result)


def test_kernel_group_is_everything():
    sg = generate_closure([SHIFT3])
    assert kernel(sg) == frozenset(range(3))
    assert kernel(sg) == kernel_oracle_subsets(sg)


def test_kernel_constant_absorbs():
    sg = generate_closure([ID2, C0])
    assert kernel(sg) == frozenset({sg.index_of(C0)})
    assert kernel(sg) == kernel_oracle_subsets(sg)


def test_kernel_two_constants():
    sg = generate_closure([C0, C1, ID2])
    expected = frozenset({sg.index_of(C0), sg.index_of(C1)})
    assert kernel(sg) == expected
    assert kernel(sg) == kernel_oracle_subsets(sg)


def test_kernel_is_minimal_ideal_property():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        gens = [
            Transformation(tuple(rng.randrange(n) for _ in range(n)))
            for _ in range(rng.randint(1, 3))
        ]
        sg = generate_closure(gens)
        if sg.size > 64:
            continue
        ker = kernel(sg)
        table = cayley_table(sg)
        for q in ker:
            assert set(table[:, q].tolist()) <= ker
            assert set(table[q, :].tolist()) <= ker
        # No proper nonempty subset is an ideal: every principal ideal
        # of a kernel element is the whole kernel.
        for q in ker:
            assert principal_ideal(sg, q) == ker


def test_right_zeros_examples():
    sg = generate_closure([Transformation.identity(3)])
    assert right_zeros(sg) == frozenset({0})
    sg2 = generate_closure([ID2, C0])
    assert right_zeros(sg2) == frozenset({sg2.index_of(C0)})


def test_two_constants_are_left_zeros_not_right():
    # With s * q = s o q, a constant c satisfies c o s = c (left zero)
    # while s o c is the constant at s(c(0)), so neither constant is a
    # right zero and the kernel still holds both.
    sg = generate_closure([C0, C1])
    assert sg.size == 2
    assert left_zeros(sg) == frozenset({0, 1})
    assert right_zeros(sg) == frozenset()
    assert kernel(sg) == frozenset({0, 1})
    assert zero(sg) is None


def test_right_zeros_inside_kernel():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        gens = [
            Transformation(tuple(rng.randrange(n) for _ in range(n)))
            for _ in range(rng.randint(1, 3))
        ]
        sg = generate_closure(gens)
        assert right_zeros(sg) <= kernel(sg)


def test_right_zero_pair():
    q1 = Transformation((0, 1, 0))
    q2 = Transformation((0, 1, 1))
    sg = generate_closure([q1, q2])
    assert right_zeros(sg) == frozenset({0, 1})
    assert kernel(sg) == frozenset({0, 1})
    assert zero(sg) is None


def test_zero_examples():
    sg = generate_closure([ID2, C0])
    assert zero(sg) == sg.index_of(C0)
    assert zero(generate_closure([SHIFT3])) is None


def test_zero_matches_kernel_singleton():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        gens = [
            Transformation(tuple(rng.randrange(n) for _ in range(n)))
            for _ in range(rng.randint(1, 3))
        ]
        sg = generate_closure(gens)
        z = zero(sg)
        ker = kernel(sg)
        if z is not None:
            assert ker == frozenset({z})
            table = cayley_table(sg)
            assert all(table[s, z] == z and table[z, s] == z for s in range(sg.size))


def test_idempotents():
    assert idempotents(generate_closure([SHIFT3])) == frozenset(
        {generate_closure([SHIFT3]).index_of(Transformation.identity(3))}
    )
    sg = generate_closure([C0, C1, ID2])
    assert idempotents(sg) == frozenset(range(3))


def test_restriction_identity_on_subset():
    sg = generate_closure([ID2])
    morphism = restriction_epimorphism(sg, [0])
    assert morphism.target.size == 1
    assert morphism.surjective
    assert morphism.checked_identities == 1


def test_restriction_two_fixed_points():
    sg = generate_closure([TWO_FIX])
    morphism = restriction_epimorphism(sg, [0, 1])
    assert morphism.target.size == 1
    assert morphism.target.elements[0].is_identity
    assert morphism.surjective


def test_restriction_rejects_non_invariant():
    sg = generate_closure([SHIFT3])
    with pytest.raises(ValueError, match="maps 1 to 2"):
        restriction_epimorphism(sg, [0, 1])


@pytest.mark.parametrize("subset, bad", [
    ([-1, 2], -1), ([-3, 0, 1, 2], -3), ([3], 3), ([0.0], 0.0), ([0, "1"], "1"),
])
def test_restriction_rejects_states_out_of_range(subset, bad):
    sg = generate_closure([Transformation.identity(3)])
    with pytest.raises(ValueError, match=f"state {bad!r} is not in range"):
        restriction_epimorphism(sg, subset)


def test_factor_identity():
    sg = generate_closure([SHIFT3])
    morphism = factor_epimorphism(sg, (0, 1, 2))
    assert morphism.target.size == sg.size


def test_factor_shift_mod_two():
    shift4 = Transformation((1, 2, 3, 0))
    sg = generate_closure([shift4])
    assert sg.size == 4
    morphism = factor_epimorphism(sg, (0, 1, 0, 1))
    # Oracle: induced maps are the mod-2 images of the four rotations.
    expected = {
        tuple((x + k) % 2 for x in (0, 1)) for k in range(4)
    }
    assert {e.images for e in morphism.target.elements} == expected
    assert morphism.target.size == 2
    assert morphism.surjective


def test_factor_compatibility_witness():
    sg = generate_closure([TWO_FIX])
    # Collapsing the two fixed points is compatible (both are fixed).
    ok = factor_epimorphism(sg, (0, 0, 1))
    assert ok.target.size == 1
    # Collapsing states 1 and 2 is not: they map to 1 and 0.
    with pytest.raises(ValueError, match="separates states"):
        factor_epimorphism(sg, (0, 1, 1))


@pytest.mark.parametrize("phi, bad", [
    ((0.0, 1.0, 2.0), 0.0), ((0, 1.0, 2), 1.0), (("0", 1, 2), "0"),
    ((False, 1, 2), False), ((0, True, 2), True),
])
def test_factor_rejects_entries_that_are_not_integers(phi, bad):
    sg = generate_closure([SHIFT3])
    with pytest.raises(ValueError, match=f"phi entry {bad!r} is not an integer"):
        factor_epimorphism(sg, phi)


@pytest.mark.parametrize("subset", [[True], [False], [0, True], [np.True_]])
def test_restriction_rejects_bool_states(subset):
    sg = generate_closure([Transformation((0, 1, 2))])
    with pytest.raises(ValueError, match=f"state {subset[-1]!r} is not in range"):
        restriction_epimorphism(sg, subset)


def test_morphisms_on_random_systems():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 6)
        gens = [
            Transformation(tuple(rng.randrange(n) for _ in range(n)))
            for _ in range(rng.randint(1, 2))
        ]
        sg = generate_closure(gens)
        if sg.size > 200:
            continue
        # Restriction to the orbit of a random state is always legal.
        x = rng.randrange(n)
        reach = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in gens:
                if g(y) not in reach:
                    reach.add(g(y))
                    frontier.append(g(y))
        morphism = restriction_epimorphism(sg, reach)
        assert morphism.surjective


def test_determinism_across_runs():
    gens = [Transformation((1, 2, 0, 3)), Transformation((0, 0, 2, 2))]
    a = generate_closure(gens)
    b = generate_closure(list(reversed(gens)))
    assert [e.images for e in a.elements] == [e.images for e in b.elements]
    assert np.array_equal(cayley_table(a), cayley_table(b))
    assert a.right.tobytes() == b.right.tobytes()
    assert a.left.tobytes() == b.left.tobytes()


def test_algebraic_center():
    from ergoscope.transforms import center

    abelian = generate_closure([SHIFT3])
    assert center(abelian) == frozenset(range(3))
    two_constants = generate_closure([C0, C1])
    assert center(two_constants) == frozenset()
