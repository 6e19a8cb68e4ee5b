"""Finite transformation semigroups with exact closure and ideal structure.

Multiplication is map composition throughout: ``s * t = s o t`` (apply
``t`` first).  This is the same order in which the pushforward operators
on measures multiply, so kernel / right-zero / zero predicates computed
here transfer verbatim to the operator semigroups in :mod:`envelope`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_ELEMENT_CAP = 10**6
ELEMENT_CAP_ENV = "ERGOSCOPE_MAX_ELEMENTS"


class SizeCapError(RuntimeError):
    """A closure exceeded the configured element cap."""


def element_cap() -> int:
    value = os.environ.get(ELEMENT_CAP_ENV)
    return int(value) if value else DEFAULT_ELEMENT_CAP


@dataclass(frozen=True)
class Transformation:
    """A total self-map of {0, ..., n-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("empty state set")
        if any(not (0 <= y < n) for y in self.images):
            raise ValueError(f"image out of range for degree {n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(tuple(range(n)))

    @classmethod
    def constant(cls, n: int, value: int) -> "Transformation":
        return cls((value,) * n)

    @classmethod
    def from_pairs(cls, n: int, mapping) -> "Transformation":
        return cls(tuple(mapping[x] for x in range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, other: "Transformation") -> "Transformation":
        """self o other (apply other first)."""
        return Transformation(tuple(self.images[y] for y in other.images))

    def power(self, k: int) -> "Transformation":
        result = Transformation.identity(self.degree)
        for _ in range(k):
            result = self.compose(result)
        return result

    @property
    def rank(self) -> int:
        return len(set(self.images))

    @property
    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))


def _compose_tuples(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(a.__getitem__, b))


@dataclass(frozen=True, eq=False)
class TransSemigroup:
    """A composition-closed set of transformations with its generator graphs.

    ``right[i, k]`` is the index of ``elements[i] o g_k`` and ``left[i, k]``
    the index of ``g_k o elements[i]``, where ``g_k`` is the element at
    ``generator_indices[k]``.  The two graphs determine the whole
    multiplication (Froidure & Pin 1997) in O(m * g) space; the dense
    table ``cayley`` is derived from them on first use.

    Elements are ordered lexicographically by image tuple, so two runs on
    the same generators produce identical objects.
    """

    elements: tuple[Transformation, ...]
    generator_indices: tuple[int, ...]
    right: np.ndarray
    left: np.ndarray

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return self.elements[0].degree

    @cached_property
    def cayley(self) -> np.ndarray:
        """cayley[i][j] = index of elements[i] o elements[j] (m x m, lazy).

        Every element is a generator or a right translate s o g_k of an
        element reached before it, so its column is right[column(s), k].
        """
        table = np.empty((self.size, self.size), dtype=np.int32)
        reached = np.zeros(self.size, dtype=bool)
        for k, j in enumerate(self.generator_indices):
            table[:, j] = self.right[:, k]
            reached[j] = True
        queue = list(self.generator_indices)
        for s in queue:
            for k, j in enumerate(self.right[s].tolist()):
                if not reached[j]:
                    table[:, j] = self.right[table[:, s], k]
                    reached[j] = True
                    queue.append(j)
        table.setflags(write=False)
        return table

    def index_of(self, t: Transformation) -> int:
        for i, e in enumerate(self.elements):
            if e == t:
                return i
        raise KeyError(t)

    def identity_index(self) -> int | None:
        for i, e in enumerate(self.elements):
            if e.is_identity:
                return i
        return None


def _semigroup(ordered: list[tuple[int, ...]], gen_tuples) -> TransSemigroup:
    """The semigroup on sorted, distinct image tuples that ``gen_tuples`` generate."""
    index = {t: i for i, t in enumerate(ordered)}
    generator_indices = tuple(sorted({index[t] for t in gen_tuples}))
    gens = [ordered[i] for i in generator_indices]

    def graph(product) -> np.ndarray:
        out = np.array([[index[product(t, g)] for g in gens] for t in ordered],
                       dtype=np.int32)
        out.setflags(write=False)
        return out

    return TransSemigroup(
        elements=tuple(Transformation(t) for t in ordered),
        generator_indices=generator_indices,
        right=graph(_compose_tuples),
        left=graph(lambda t, g: _compose_tuples(g, t)),
    )


def generate_closure(
    generators, max_elements: int | None = None
) -> TransSemigroup:
    """Smallest composition-closed superset of the generators.

    Raises :class:`SizeCapError` if the closure would exceed the element
    cap (``ERGOSCOPE_MAX_ELEMENTS`` overrides the default of 10^6).
    """
    gens = [g if isinstance(g, Transformation) else Transformation(tuple(g)) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generators act on state sets of different sizes")
    cap = element_cap() if max_elements is None else max_elements

    # Every product of generators is a chain of right translates of a
    # generator, so right translates alone reach the whole closure.
    gen_tuples = [g.images for g in gens]
    elems: set[tuple[int, ...]] = set(gen_tuples)
    frontier = list(elems)
    while frontier:
        fresh = []
        for t in frontier:
            for g in gen_tuples:
                c = _compose_tuples(t, g)
                if c not in elems:
                    elems.add(c)
                    fresh.append(c)
            if len(elems) > cap:
                raise SizeCapError(
                    f"semigroup closure exceeds element cap {cap}"
                )
        frontier = fresh
    return _semigroup(sorted(elems), gen_tuples)


def principal_ideal(sg: TransSemigroup, a: int) -> frozenset[int]:
    """S^1 a S^1: everything reached from a by left and right generator steps."""
    members = {a}
    frontier = [a]
    while frontier:
        fresh = set(sg.left[frontier].ravel().tolist())
        fresh |= set(sg.right[frontier].ravel().tolist())
        fresh -= members
        members |= fresh
        frontier = list(fresh)
    return frozenset(members)


def kernel(sg: TransSemigroup) -> frozenset[int]:
    """The minimal two-sided ideal, as element indices.

    Computed as the principal ideal of the product of all elements: that
    product lies in every ideal, and its principal ideal is contained in
    every ideal, hence equals their intersection.
    """
    p = sg.elements[0].images
    for e in sg.elements[1:]:
        p = _compose_tuples(p, e.images)
    return principal_ideal(sg, sg.index_of(Transformation(p)))


def right_zeros(sg: TransSemigroup) -> frozenset[int]:
    """All q with s * q = q for every s.

    It holds for all of S because it holds for every generator s.
    """
    idx = np.arange(sg.size)[:, np.newaxis]
    return frozenset(np.nonzero((sg.left == idx).all(axis=1))[0].tolist())


def left_zeros(sg: TransSemigroup) -> frozenset[int]:
    """All q with q * s = q for every s.

    It holds for all of S because it holds for every generator s.
    """
    idx = np.arange(sg.size)[:, np.newaxis]
    return frozenset(np.nonzero((sg.right == idx).all(axis=1))[0].tolist())


def zero(sg: TransSemigroup) -> int | None:
    """The unique two-sided zero, if present."""
    candidates = right_zeros(sg) & left_zeros(sg)
    if not candidates:
        return None
    assert len(candidates) == 1, "two distinct zeros would have to be equal"
    return next(iter(candidates))


def idempotents(sg: TransSemigroup) -> frozenset[int]:
    return frozenset(
        i for i, e in enumerate(sg.elements)
        if _compose_tuples(e.images, e.images) == e.images
    )


def center(sg: TransSemigroup) -> frozenset[int]:
    """Elements commuting with every element (the algebraic center).

    It holds for all of S because it holds for every generator.
    """
    mask = (sg.left == sg.right).all(axis=1)
    return frozenset(np.nonzero(mask)[0].tolist())


@dataclass(frozen=True)
class SemigroupMorphism:
    """A verified multiplicative surjection between two TransSemigroups."""

    source_size: int
    target: TransSemigroup
    element_map: tuple[int, ...]
    checked_identities: int

    @property
    def surjective(self) -> bool:
        return set(self.element_map) == set(range(self.target.size))


def _verify_multiplicative(
    sg: TransSemigroup, target: TransSemigroup, element_map: tuple[int, ...]
) -> int:
    phi = np.asarray(element_map, dtype=np.int64)
    lhs = phi[sg.cayley]
    rhs = target.cayley[np.ix_(phi, phi)]
    if not np.array_equal(lhs, rhs):
        raise AssertionError("induced map failed multiplicativity check")
    return sg.size * sg.size


def _image_morphism(sg: TransSemigroup, images: list[tuple[int, ...]]) -> SemigroupMorphism:
    """The map elements[i] -> images[i] onto the semigroup of the images, verified."""
    target = _semigroup(sorted(set(images)), [images[gi] for gi in sg.generator_indices])
    index = {t.images: i for i, t in enumerate(target.elements)}
    element_map = tuple(index[t] for t in images)
    checked = _verify_multiplicative(sg, target, element_map)
    return SemigroupMorphism(sg.size, target, element_map, checked)


def restriction_epimorphism(sg: TransSemigroup, subset) -> SemigroupMorphism:
    """Restrict every element to an invariant subset of states.

    Rejects non-invariant subsets with a witness state.
    """
    states = sorted(set(subset))
    if not states:
        raise ValueError("empty subset")
    state_set = set(states)
    for gi in sg.generator_indices:
        g = sg.elements[gi]
        for x in states:
            if g(x) not in state_set:
                raise ValueError(
                    f"subset not invariant: generator {gi} maps {x} to {g(x)}"
                )
    reindex = {x: i for i, x in enumerate(states)}
    restricted = [
        tuple(reindex[e(x)] for x in states) for e in sg.elements
    ]
    return _image_morphism(sg, restricted)


def factor_epimorphism(sg: TransSemigroup, phi) -> SemigroupMorphism:
    """Push the semigroup forward along a compatible surjection of states.

    ``phi`` maps each state to a factor state; it must be surjective onto
    ``{0, ..., max(phi)}`` and satisfy phi(s(x)) = phi(s(y)) whenever
    phi(x) = phi(y).  Incompatible maps are rejected with a witness pair.
    """
    phi = tuple(phi)
    n = sg.degree
    if len(phi) != n:
        raise ValueError("phi must assign a factor state to every state")
    k = max(phi) + 1
    if set(phi) != set(range(k)):
        raise ValueError("phi must be surjective onto an initial segment")
    classes: dict[int, list[int]] = {}
    for x, c in enumerate(phi):
        classes.setdefault(c, []).append(x)
    for ei, e in enumerate(sg.elements):
        for members in classes.values():
            x0 = members[0]
            for y in members[1:]:
                if phi[e(x0)] != phi[e(y)]:
                    raise ValueError(
                        f"phi not compatible: element {ei} separates states "
                        f"{x0} and {y} with phi({x0}) = phi({y})"
                    )
    induced = []
    for e in sg.elements:
        images = [0] * k
        for c, members in classes.items():
            images[c] = phi[e(members[0])]
        induced.append(tuple(images))
    return _image_morphism(sg, induced)


def enumerate_all_ideals(sg: TransSemigroup) -> list[frozenset[int]]:
    """Every nonempty two-sided ideal, by brute force over subsets.

    A subset is an ideal when both generator graphs map it into itself.
    Exponential in the semigroup size; only for small oracles.
    """
    m = sg.size
    if m > 20:
        raise ValueError("subset enumeration is only feasible for small semigroups")
    steps = [set(sg.left[q].tolist()) | set(sg.right[q].tolist()) for q in range(m)]
    ideals = []
    for bits in range(1, 1 << m):
        members = {i for i in range(m) if bits >> i & 1}
        if all(steps[q] <= members for q in members):
            ideals.append(frozenset(members))
    return ideals
