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

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, other: "Transformation") -> "Transformation":
        """self o other (apply other first)."""
        return Transformation(tuple(self.images[y] for y in other.images))

    def power(self, k: int) -> "Transformation":
        if k < 0:
            raise ValueError("need k >= 0")
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


def _keys(rows: np.ndarray) -> np.ndarray:
    """One exact key per row: its base-n digits, most significant first.

    Each int64 column holds as many digits as fit below 2^63 (one column
    for n <= 15).  Stored big-endian and viewed as one byte string per
    row, the keys compare as the rows do lexicographically.
    """
    n = rows.shape[1]
    base = max(n, 2)
    width = 1
    while width < n and base ** (width + 1) <= 1 << 63:
        width += 1
    padded = np.zeros((len(rows), -(-n // width), width), dtype=np.int64)
    padded.reshape(len(rows), -1)[:, :n] = rows
    packed = (padded @ base ** np.arange(width - 1, -1, -1)).astype(">i8")
    return packed.view(np.dtype((np.void, packed.shape[1] * 8))).ravel()


@dataclass(frozen=True, eq=False)
class TransSemigroup:
    """A composition-closed set of transformations with its generator graphs.

    ``images`` is the representation: a read-only m x n integer array
    whose row i is the image tuple of element i, rows in lexicographic
    order, so two runs on the same generators produce identical objects.
    ``elements`` builds the :class:`Transformation` objects on first use.

    ``right[i, k]`` is the index of ``elements[i] o g_k`` and ``left[i, k]``
    the index of ``g_k o elements[i]``, where ``g_k`` is the element at
    ``generator_indices[k]``.  The two graphs determine the whole
    multiplication (Froidure & Pin 1997) in O(m * g) space; the dense
    table ``cayley`` is derived from them on first use.
    """

    images: np.ndarray
    generator_indices: tuple[int, ...]
    right: np.ndarray
    left: np.ndarray

    @property
    def size(self) -> int:
        return self.images.shape[0]

    @property
    def degree(self) -> int:
        return self.images.shape[1]

    @cached_property
    def elements(self) -> tuple[Transformation, ...]:
        return tuple(Transformation(tuple(row)) for row in self.images.tolist())

    @cached_property
    def ranks(self) -> np.ndarray:
        """Rank of every element: the number of distinct values in its row."""
        ordered = np.sort(self.images, axis=1)
        return 1 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)

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
        if t.degree != self.degree:
            raise KeyError(t)
        i = int(np.searchsorted(_keys(self.images), _keys(np.array([t.images])))[0])
        if i == self.size or self.images[i].tolist() != list(t.images):
            raise KeyError(t)
        return i


def _semigroup(rows: np.ndarray, gen_rows: np.ndarray) -> TransSemigroup:
    """The semigroup on the distinct ``rows``, in key order, that ``gen_rows`` generate."""
    keys, first = np.unique(_keys(rows), return_index=True)
    images = rows[first].astype(np.int32)
    images.setflags(write=False)
    generator_indices = tuple(np.unique(np.searchsorted(keys, _keys(gen_rows))).tolist())

    def graph(product) -> np.ndarray:
        out = np.stack([np.searchsorted(keys, _keys(product(g))).astype(np.int32)
                        for g in images[list(generator_indices)]], axis=1)
        out.setflags(write=False)
        return out

    return TransSemigroup(images, generator_indices, right=graph(lambda g: images[:, g]),
                          left=graph(lambda g: g[images]))


def _search(gen_rows: np.ndarray, cap: int) -> np.ndarray:
    """Every row reached from ``gen_rows`` by right generator steps, once each.

    One set holds the key (:func:`_keys`) of every row found; a level of
    translates keeps the rows whose keys it has not seen.
    """
    seen: set[bytes] = set()

    def fresh(rows: np.ndarray) -> np.ndarray:
        keep = []
        for i, key in enumerate(_keys(rows).tolist()):
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return rows[keep]

    levels = [fresh(gen_rows)]
    while len(levels[-1]):
        if len(seen) > cap:
            raise SizeCapError(f"semigroup closure exceeds element cap {cap}")
        levels.append(fresh(levels[-1][:, gen_rows].reshape(-1, gen_rows.shape[1])))
    return np.concatenate(levels)


def generate_closure(
    generators, max_elements: int | None = None
) -> TransSemigroup:
    """Smallest composition-closed superset of the generators.

    A breadth-first search over right translates, which reach the whole
    closure since every product of generators is a chain of them:
    ``F[:, g]`` composes a whole frontier ``F`` with a generator ``g``.
    The search (:func:`_search`) keeps one set of the exact keys found so
    far, as Froidure & Pin (1997) keep one table of the elements; the set
    is freed before the generator graphs are built.

    Raises :class:`SizeCapError` exactly when the closure has more
    elements than the cap (``ERGOSCOPE_MAX_ELEMENTS`` overrides the
    default of 10^6), checked after every level.
    """
    gens = [g if isinstance(g, Transformation) else Transformation(tuple(g)) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generators act on state sets of different sizes")
    cap = element_cap() if max_elements is None else max_elements
    gen_rows = np.array([g.images for g in gens], dtype=np.int32)
    return _semigroup(_search(gen_rows, cap), gen_rows)


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
    """The minimal two-sided ideal K, as element indices: the elements of least rank.

    Let a have least rank and k lie in K.  Then b = a o k o a lies in K
    and im(b) = im(a), since im(b) lies in im(a) and no element has a
    smaller rank; b o b has at least that rank too, so b permutes im(a).
    A power e of b is then an idempotent of K fixing im(a) pointwise,
    hence a = e o a lies in K.  K is one J-class, so all of its elements
    share that least rank.
    """
    return frozenset(np.flatnonzero(sg.ranks == sg.ranks.min()).tolist())


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
    """The two-sided zero, if present.

    A zero is exactly a one-element ideal, so it is the kernel's only
    element when the kernel has one element, and absent otherwise.
    """
    ker = kernel(sg)
    return next(iter(ker)) if len(ker) == 1 else None


def idempotents(sg: TransSemigroup) -> frozenset[int]:
    squares = np.take_along_axis(sg.images, sg.images, axis=1)
    return frozenset(np.flatnonzero((squares == sg.images).all(axis=1)).tolist())


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


def _image_morphism(sg: TransSemigroup, images: np.ndarray) -> SemigroupMorphism:
    """The map elements[i] -> images[i] onto the semigroup of the images, verified."""
    target = _semigroup(images, images[list(sg.generator_indices)])
    element_map = tuple(np.searchsorted(_keys(target.images), _keys(images)).tolist())
    checked = _verify_multiplicative(sg, target, element_map)
    return SemigroupMorphism(sg.size, target, element_map, checked)


def restriction_epimorphism(sg: TransSemigroup, subset) -> SemigroupMorphism:
    """Restrict every element to an invariant subset of states.

    Rejects non-invariant subsets with a witness state.
    """
    states = sorted(set(subset))
    if not states:
        raise ValueError("empty subset")
    gens = sg.images[list(sg.generator_indices)]
    outside = np.argwhere(~np.isin(gens[:, states], states))
    if len(outside):
        k, i = outside[0]
        raise ValueError(f"subset not invariant: generator {sg.generator_indices[k]} "
                         f"maps {states[i]} to {gens[k, states[i]]}")
    return _image_morphism(sg, np.searchsorted(states, sg.images[:, states]))


def factor_epimorphism(sg: TransSemigroup, phi) -> SemigroupMorphism:
    """Push the semigroup forward along a compatible surjection of states.

    ``phi`` maps each state to a factor state; it must be surjective onto
    ``{0, ..., max(phi)}`` and satisfy phi(s(x)) = phi(s(y)) whenever
    phi(x) = phi(y).  Incompatible maps are rejected with a witness pair.
    """
    phi = tuple(phi)
    if len(phi) != sg.degree:
        raise ValueError("phi must assign a factor state to every state")
    if set(phi) != set(range(max(phi) + 1)):
        raise ValueError("phi must be surjective onto an initial segment")
    phi = np.array(phi)
    first = np.unique(phi, return_index=True)[1]  # least state of each class
    pushed = phi[sg.images]
    split = pushed != pushed[:, first[phi]]
    if split.any():
        ei = int(split.any(axis=1).argmax())
        y = min(np.flatnonzero(split[ei]).tolist(), key=lambda y: (first[phi[y]], y))
        x0 = first[phi[y]]
        raise ValueError(
            f"phi not compatible: element {ei} separates states "
            f"{x0} and {y} with phi({x0}) = phi({y})"
        )
    return _image_morphism(sg, pushed[:, first])


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
