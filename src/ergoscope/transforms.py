"""Finite transformation semigroups with exact closure and ideal structure.

Multiplication is map composition throughout: ``s * t = s o t`` (apply
``t`` first).  This is the same order in which the pushforward operators
on measures multiply, so kernel / right-zero / zero predicates computed
here transfer verbatim to the operator semigroups in :mod:`envelope`.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_ELEMENT_CAP = 10**6
ELEMENT_CAP_ENV = "ERGOSCOPE_MAX_ELEMENTS"


class SizeCapError(RuntimeError):
    """A closure exceeded the configured element cap."""


def element_cap() -> int:
    """The closure cap: ``ERGOSCOPE_MAX_ELEMENTS``, a positive integer, if set."""
    value = os.environ.get(ELEMENT_CAP_ENV)
    if not value:
        return DEFAULT_ELEMENT_CAP
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"{ELEMENT_CAP_ENV} must be a positive integer, got {value!r}")
    return int(value)


def check_int(value, name: str, least: int, below: float = float("inf")) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) in [least, below)."""
    # A plain int skips the abstract-class check, which costs about 0.6 us.
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"need an integer {name}, got {value!r}")
    if value < least:
        raise ValueError(f"need {name} >= {least}")
    if value >= below:
        raise ValueError(f"need {name} < {below}")


@dataclass(frozen=True)
class Transformation:
    """A total self-map of {0, ..., n-1}, stored as its tuple of Python ints."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("empty state set")
        plain = type(self.images) is tuple
        for y in self.images:
            if type(y) is not int:
                if not isinstance(y, np.integer):  # bool too
                    raise ValueError(f"image {y!r} is not an integer")
                plain = False
            if not 0 <= y < n:
                raise ValueError(f"image out of range for degree {n}: {self.images}")
        if not plain:
            object.__setattr__(self, "images", tuple(map(int, self.images)))

    @classmethod
    def trusted(cls, images: tuple[int, ...]) -> "Transformation":
        """The map with these images, a tuple of Python ints in range(len(images))
        that the caller has already checked, built without ``__post_init__``."""
        t = object.__new__(cls)
        object.__setattr__(t, "images", images)
        return t

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
        """self composed k times in O(log k) compositions, by squaring."""
        check_int(k, "k", 0)
        result, square = Transformation.identity(self.degree), self
        while k:
            if k & 1:
                result = square.compose(result)
            square, k = square.compose(square), k >> 1
        return result

    @property
    def rank(self) -> int:
        return len(set(self.images))

    @property
    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))


def _big_endian(rows: np.ndarray) -> np.ndarray:
    """``rows`` in the smallest unsigned big-endian type that holds n - 1."""
    n = rows.shape[1]
    return np.ascontiguousarray(rows, np.min_scalar_type(max(n - 1, 0)).newbyteorder(">"))


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """The bytes of each row of a contiguous array, one ``void`` entry per row."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _keys(rows: np.ndarray) -> np.ndarray:
    """One exact key per row, ordered as the rows are lexicographically.

    The key is the row's bytes in :func:`_big_endian` form.  A row of at
    most 8 bytes (every degree n <= 8) reads as one ``uint64``, its bytes
    right-aligned so that the integers compare as the rows do; a longer
    row stays a byte string.
    """
    rows = _big_endian(rows)
    if rows.shape[1] * rows.itemsize > 8:
        return _row_bytes(rows)
    padded = np.zeros((len(rows), 8), np.uint8)
    padded[:, 8 - rows.shape[1]:] = rows
    return padded.view(">u8").ravel().astype(np.uint64)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, sorted: one ``np.sort`` and a drop of adjacent repeats."""
    keys = np.sort(keys)
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The int32 rows of degree ``n`` whose :func:`_keys` are ``keys``."""
    if keys.dtype == np.uint64:
        rows = keys.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - n:]
    else:
        rows = keys.view(np.min_scalar_type(n - 1).newbyteorder(">")).reshape(-1, n)
    return rows.astype(np.int32)


@dataclass(frozen=True, eq=False)
class TransSemigroup:
    """A composition-closed set of transformations with its generator graphs.

    ``images`` is the representation: a read-only m x n integer array
    whose row i is the image tuple of element i, rows in lexicographic
    order, so two runs on the same generators produce identical objects.
    ``keys`` holds each row's :func:`_keys` entry, in the same order, so
    ``np.searchsorted`` on it finds a row; the images are decoded from
    it.  A closure's ``keys`` is the array its search returns: one sorted
    ``uint64`` per row of up to 8 bytes, sorted byte strings for wider
    rows.  ``elements`` builds the :class:`Transformation` objects on
    first use.

    ``right[i, k]`` is the index of ``elements[i] o g_k`` and ``left[i, k]``
    the index of ``g_k o elements[i]``, where ``g_k`` is the element at
    ``generator_indices[k]``.  The two graphs determine the whole
    multiplication (Froidure & Pin 1997) in O(m * g) space; each is built
    on its first read, and no m x m table is ever built.
    """

    images: np.ndarray
    generator_indices: tuple[int, ...]
    keys: np.ndarray

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
    def right(self) -> np.ndarray:
        return self._graph(lambda g: self.images[:, g])

    @cached_property
    def left(self) -> np.ndarray:
        return self._graph(lambda g: g[self.images])

    def _graph(self, product) -> np.ndarray:
        out = np.stack([np.searchsorted(self.keys, _keys(product(g))).astype(np.int32)
                        for g in self.images[list(self.generator_indices)]], axis=1)
        out.setflags(write=False)
        return out

    def index_of(self, t: Transformation) -> int:
        if t.degree != self.degree:
            raise KeyError(t)
        i = int(np.searchsorted(self.keys, _keys(np.array([t.images])))[0])
        if i == self.size or self.images[i].tolist() != list(t.images):
            raise KeyError(t)
        return i


def _semigroup(keys: np.ndarray, gen_rows: np.ndarray) -> TransSemigroup:
    """The semigroup on the rows of the sorted distinct ``keys`` that ``gen_rows`` generate."""
    images = _rows(keys, gen_rows.shape[1])
    images.setflags(write=False)
    generator_indices = tuple(sorted(set(np.searchsorted(keys, _keys(gen_rows)).tolist())))
    return TransSemigroup(images, generator_indices, keys)


def _set_search(gen_rows: np.ndarray, cap: int) -> np.ndarray:
    """Every row reached from ``gen_rows`` by right generator steps, once each.

    One set holds the bytes of every row found, in :func:`_big_endian`
    form (a ``bytes`` object caches its hash).  Each level keeps its
    unseen rows in the order they were first found, so no level depends
    on the set's order.
    """
    n = gen_rows.shape[1]
    seen: set[bytes] = set()
    add = seen.add
    rows, levels = _big_endian(gen_rows), []
    while len(rows):
        new = [k for k in _row_bytes(rows).tolist() if k not in seen and not add(k)]
        if len(seen) > cap:
            raise SizeCapError(f"semigroup closure exceeds element cap {cap}")
        levels.append(np.frombuffer(b"".join(new), rows.dtype).reshape(-1, n))
        rows = levels[-1][:, gen_rows].reshape(-1, n)
    return np.concatenate(levels)


def _search(gen_rows: np.ndarray, cap: int) -> np.ndarray:
    """The sorted :func:`_keys` of every row reached from ``gen_rows`` by
    right generator steps, once each.

    A row of up to 8 bytes (n <= 8) is one ``uint64`` key, and the keys
    found so far are one sorted array.  Per breadth-first level, one
    ``np.take`` on the last level's key bytes gives the candidate keys;
    they are sorted, so their repeats are adjacent (``np.unique`` costs
    ten times as much) and one ``np.searchsorted`` with these sorted
    needles finds those already found; and a stable sort merges the new
    keys, appended, into the found ones.  Wider rows go to
    :func:`_set_search` and are sorted once at the end.  Both paths check
    the cap after every level.
    """
    n = gen_rows.shape[1]
    if n > 8:
        return np.sort(_keys(_set_search(gen_rows, cap)))
    # Little-endian byte b of a key is row entry n - 1 - b, and bytes n..7
    # are zero; so byte b of the key of r o g is byte n - 1 - g[n - 1 - b]
    # of r's key for b < n, and byte 7 for the rest.
    gather = np.full((len(gen_rows), 8), 7)
    gather[:, :n] = n - 1 - gen_rows[:, ::-1]
    gather = gather.ravel()
    seen = level = _distinct(_keys(gen_rows))
    found = len(seen)  # seen[:found] holds the keys; the rest is spare room
    while len(level):
        if found > cap:
            raise SizeCapError(f"semigroup closure exceeds element cap {cap}")
        level_bytes = level.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        candidates = np.sort(np.take(level_bytes, gather, axis=1).view("<u8").ravel())
        known = seen[:found]
        # known[at - 1] is the greatest known key <= the candidate; for at = 0
        # it is known[-1], the greatest of all, which exceeds the candidate.
        at = np.searchsorted(known, candidates, side="right")
        fresh = known[at - 1] != candidates
        fresh[1:] &= candidates[1:] != candidates[:-1]
        level = candidates[fresh]
        if found + len(level) > len(seen):
            seen = np.concatenate((known, np.empty(found + len(level), np.uint64)))
        seen[found:found + len(level)] = level
        found += len(level)
        seen[:found].sort(kind="stable")
    return seen[:found]


def generate_closure(
    generators, max_elements: int | None = None
) -> TransSemigroup:
    """Smallest composition-closed superset of the generators.

    A breadth-first search over right translates, which reach the whole
    closure since every product of generators is a chain of them:
    ``F[:, g]`` composes a whole frontier ``F`` with a generator ``g``.
    The search (:func:`_search`) keeps every row found so far in one
    table, as Froidure & Pin (1997) keep one table of the elements: a
    sorted ``uint64`` key array for rows of up to 8 bytes, a set of row
    bytes for wider rows.  The images are decoded from its sorted keys.
    The generator graphs are not built here: each is built on its first
    read.

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
    check_int(cap, "max_elements", 0)
    gen_rows = np.array([g.images for g in gens], dtype=np.int32)
    return _semigroup(_search(gen_rows, cap), gen_rows)


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

    target: TransSemigroup
    element_map: tuple[int, ...]
    checked_identities: int

    @property
    def surjective(self) -> bool:
        return set(self.element_map) == set(range(self.target.size))


def _image_morphism(sg: TransSemigroup, images: np.ndarray) -> SemigroupMorphism:
    """The map phi: elements[i] -> images[i] onto the semigroup of the images, verified.

    Checks phi(s o g) = phi(s) o phi(g) for every element s and every
    generator g, on the image rows: m identities per generator.  That
    covers every pair s, t by induction on the length of a word for t:
    with t = t' o g, phi(s o t) = phi(s o t') o phi(g) =
    phi(s) o phi(t') o phi(g) = phi(s) o phi(t).
    """
    for k, g in enumerate(sg.generator_indices):
        if not np.array_equal(images[sg.right[:, k]], images[:, images[g]]):
            raise AssertionError("induced map failed multiplicativity check")
    keys = _keys(images)
    target = _semigroup(_distinct(keys), images[list(sg.generator_indices)])
    element_map = tuple(np.searchsorted(target.keys, keys).tolist())
    return SemigroupMorphism(target, element_map, sg.size * len(sg.generator_indices))


def restriction_epimorphism(sg: TransSemigroup, subset) -> SemigroupMorphism:
    """Restrict every element to an invariant subset of states.

    Rejects states that are not integers in ``range(sg.degree)`` and
    non-invariant subsets, each with a witness state.
    """
    subset = list(subset)
    for x in subset:
        if isinstance(x, bool) or not (isinstance(x, (int, np.integer)) and 0 <= x < sg.degree):
            raise ValueError(f"state {x!r} is not in range({sg.degree})")
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
    for y in phi:
        if isinstance(y, bool) or not isinstance(y, (int, np.integer)):
            raise ValueError(f"phi entry {y!r} is not an integer")
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

