"""Koopman matrices and their adjoint action on exact measures.

For a map ``s`` on n states, the Koopman matrix acts on functions by
``(M f)(x) = f(s(x))``; its transpose pushes measures forward, sending
the point mass at x to the point mass at s(x).  Everything in this
module is exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

from . import rational
from .rational import ONE, ZERO, Row
from .systems import FiniteSystem, invariant_supports, least_members
from .transforms import Transformation, check_int


@dataclass(frozen=True)
class OperatorMatrix:
    """An exact rational square matrix.

    A pushforward A_t knows its map t (``images``) however it was built,
    so a product of two pushforwards composes their maps, and a
    pushforward hashes its image tuple.  ``integer_rows`` is the one
    integer form of the entries, over one common denominator.  Every
    product holds ``Fraction`` entries.
    """

    rows: tuple[Row, ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.rows if self.images is None else self.images)

    @cached_property
    def images(self) -> tuple[int, ...] | None:
        """The map t with self = A_t, or None: A_t holds one entry in each
        column x, a 1 in row t(x), and zeros elsewhere."""
        images = [None] * self.n
        for y, row in enumerate(self.rows):
            for x, v in enumerate(row):
                if v:
                    if v != 1 or images[x] is not None:
                        return None
                    images[x] = y
        return None if None in images else tuple(images)

    @cached_property
    def integer_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, d * rows) for a common denominator d of the entries: a
        pushforward reads its 0/1 rows off its map, with d = 1, and
        ``pushforward`` records the integers it summed."""
        n, t = self.n, self.images
        if t is not None:
            return 1, tuple(tuple(int(y == r) for y in t) for r in range(n))
        d, flat = rational.integer_form(tuple(chain(*self.rows)))
        return d, tuple(flat[i:i + n] for i in range(0, n * n, n))

    @classmethod
    def of_map(cls, images) -> "OperatorMatrix":
        """A_t for the map t with these images, which it records."""
        images = tuple(images)
        rows = [[ZERO] * len(images) for _ in images]
        for x, y in enumerate(images):
            rows[y][x] = ONE
        m = cls(tuple(map(tuple, rows)))
        m.__dict__["images"] = images
        return m

    @classmethod
    def from_rows(cls, rows) -> "OperatorMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "OperatorMatrix":
        return cls.of_map(range(n))

    @classmethod
    def zeros(cls, n: int) -> "OperatorMatrix":
        return cls(tuple((ZERO,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def row_stochastic(self) -> bool:
        return all(
            all(x >= 0 for x in row) and sum(row) == 1 for row in self.rows
        )

    @cached_property
    def column_stochastic(self) -> bool:
        return self.transpose().row_stochastic

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix(tuple(zip(*self.rows)))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Exact product: A_s A_t = A_(s o t) composes the maps, and any
        other product is ``rational.mat_mul``."""
        self._check_size(other.n)
        if self.images is not None and other.images is not None:
            return OperatorMatrix.of_map(tuple(self.images[y] for y in other.images))
        return OperatorMatrix(rational.mat_mul(self.rows, other.rows))

    def _check_size(self, n: int) -> None:
        if n != self.n:
            raise ValueError(f"size mismatch: {self.n}-state matrix and {n}-state operand")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self - other.scale(-1)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_size(other.n)
        return OperatorMatrix(rational.mat_sub(self.rows, other.rows))

    def scale(self, c) -> "OperatorMatrix":
        c = Fraction(c)
        return OperatorMatrix(tuple(tuple(c * x for x in row) for row in self.rows))

    def apply(self, vector: Row) -> Row:
        self._check_size(len(vector))
        return rational.mat_vec(self.rows, vector)

    def max_entry_distance(self, other: "OperatorMatrix") -> Fraction:
        """max |a - b| over the entries, exactly; 0 for empty matrices."""
        self._check_size(other.n)
        return Fraction(max((abs(x - y) for ra, rb in zip(self.rows, other.rows)
                             for x, y in zip(ra, rb)), default=0))


def convex_combination(weighted) -> OperatorMatrix:
    """Exact sum of (matrix, weight) pairs whose weights are nonnegative
    and sum to 1, checked on the integer weights k over the denominator d
    that ``pushforward`` sums: none negative, and sum k = d."""
    ops, d, ks = _over_one_denominator(weighted)
    if sum(ks) != d or any(k < 0 for k in ks):
        raise ValueError("weights must be nonnegative and sum to 1")
    return _as_matrix(*_integer_sum(ops, d, ks))


@dataclass(frozen=True)
class Measure:
    """A nonnegative rational vector of total mass 1."""

    weights: Row

    def __post_init__(self):
        for w in self.weights:
            rational.check_rational(w, "weight")
        if any(w < 0 for w in self.weights):
            raise ValueError("negative mass")
        if sum(self.weights) != 1:
            raise ValueError("total mass must be exactly 1")

    @classmethod
    def dirac(cls, n: int, x: int) -> "Measure":
        return cls.uniform_on(n, [x])

    @classmethod
    def uniform_on(cls, n: int, support) -> "Measure":
        support = list(support)
        for x in support:
            check_int(x, "state", float("-inf"))
        support = set(support)
        if not support:
            raise ValueError("empty support")
        for x in sorted(support):
            if x not in range(n):
                raise ValueError(f"state {x!r} out of range({n})")
        w = Fraction(1, len(support))
        return cls(tuple(w if i in support else ZERO for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, w in enumerate(self.weights) if w > 0)

    def pairing(self, f: Row) -> Fraction:
        """<f, mu> = sum f(x) mu({x})."""
        return sum(a * b for a, b in zip(f, self.weights, strict=True))


def pushforward(weighted) -> OperatorMatrix:
    """Exact sum of w * M over (operator, weight) pairs, whatever the weights
    sum to; an operator is a map t (a ``Transformation`` or a pushforward A_t)
    or any other ``OperatorMatrix``."""
    return _as_matrix(*pushforward_integers(weighted))


def pushforward_integers(weighted) -> tuple[int, list[list[int]]]:
    """(D, columns): that sum as integer columns over one denominator D."""
    return _integer_sum(*_over_one_denominator(weighted))


def _over_one_denominator(weighted) -> tuple[list, int, tuple[int, ...]]:
    """(operators, d, ks): the weights as integers k over one denominator d;
    a weight that is not yet a ``Fraction`` becomes one."""
    weighted = list(weighted)
    d, ks = rational.integer_form([w if type(w) is Fraction else Fraction(w) for _, w in weighted])
    return [m for m, _ in weighted], d, ks


def _integer_sum(ops, d: int, ks) -> tuple[int, list[list[int]]]:
    """sum (k / d) * M over the operators and integer weights, as (D, columns)
    of integers over one denominator D that also clears the other matrices'
    ``integer_rows``: a map adds k to entry (t(c), c) of each column c, and
    any other matrix adds k * x to each entry x."""
    if not ops:
        raise ValueError("need at least one weighted operator")
    e = math.lcm(*(m.integer_rows[0] for m in ops if m.images is None))
    n = len(ops[0].images or ops[0].rows)
    cols = [[0] * n for _ in range(n)]
    for m, k in zip(ops, ks):
        t, k = m.images, k * e
        if len(t or m.rows) != n:
            raise ValueError(f"size mismatch: {n}-state and {len(t or m.rows)}-state operators")
        if t is not None:
            for col, r in zip(cols, t):
                col[r] += k
        else:
            dm, rows = m.integer_rows
            f = k // dm
            for col, column in zip(cols, zip(*rows)):
                for r, x in enumerate(column):
                    col[r] += f * x
    return d * e, cols


def _as_matrix(d: int, cols) -> OperatorMatrix:
    """Integer columns over d as exact entries, recorded as its ``integer_rows``."""
    rows = tuple(zip(*cols))
    m = OperatorMatrix(tuple(tuple(Fraction(s, d) if s else ZERO for s in row) for row in rows))
    m.__dict__["integer_rows"] = (d, rows)
    return m


def adjoint_matrix(t: Transformation) -> OperatorMatrix:
    """The pushforward on measures: A[y][x] = 1 iff t(x) = y."""
    return OperatorMatrix.of_map(t.images)


def koopman_matrix(t: Transformation) -> OperatorMatrix:
    """Transpose of the pushforward: M[x][y] = 1 iff t(x) = y, so M f = f o t."""
    return adjoint_matrix(t).transpose()


def adjoint_on_measure(m: OperatorMatrix, mu: Measure) -> Measure:
    """Apply the transpose of a row-stochastic matrix to a measure."""
    if not m.row_stochastic:
        raise ValueError("matrix is not row-stochastic; mass would not be preserved")
    return Measure(m.transpose().apply(mu.weights))


def invariant_measures(sys: FiniteSystem) -> tuple[Measure, ...]:
    """Extreme points of the polytope of invariant probability measures.

    An invariant measure is supported on a union of minimal sets and
    restricts to each minimal set as the unique invariant measure there,
    which exists iff every generator permutes that set and is then the
    uniform measure on it.  So the extreme points are exactly the uniform
    measures on the minimal sets that every generator permutes.
    """
    extremes = tuple(Measure.uniform_on(sys.n, m) for m in invariant_supports(sys))
    if sys.commuting:
        # Commuting maps always share a fixed probability vector.
        assert extremes, "commuting system lost its invariant measure"
    return extremes


def fixed_space(matrices) -> tuple[Row, ...]:
    """Exact basis of the joint fixed space of the given matrices."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    n = matrices[0].n
    stacked = []
    eye = rational.identity_rows(n)
    for m in matrices:
        matrices[0]._check_size(m.n)
        stacked.extend(rational.mat_sub(m.rows, eye))
    return rational.nullspace(stacked, n)


def separation_check(fix_functions, fix_measures) -> bool:
    """Does the function fixed space separate the measure fixed space?

    True iff no nonzero vector in the span of ``fix_measures`` pairs to
    zero with every vector of ``fix_functions``; decided by an exact rank
    computation of the pairing matrix, for any two bases.  On its indicator
    bases ``decomposition_check`` decides the same by a count instead.
    """
    fix_measures = list(fix_measures)
    gram = [
        tuple(sum(a * b for a, b in zip(f, mu, strict=True)) for mu in fix_measures)
        for f in fix_functions
    ]
    return rational.rank(gram) == len(fix_measures)


@dataclass(frozen=True)
class DecompositionReport:
    dim_fix: int
    dim_range_span: int
    direct_sum: bool
    separating: bool
    fix_functions: tuple[Row, ...]
    fix_measures: tuple[Row, ...]


def _indicators(n: int, blocks) -> tuple[Row, ...]:
    """1_B for each of the disjoint blocks B, ordered by max(B)."""
    return tuple(tuple(ONE if x in b else ZERO for x in range(n))
                 for b in sorted(blocks, key=max))


def decomposition_check(sys: FiniteSystem) -> DecompositionReport:
    """Does fix(S) + lin rg(Id - S) split the function space, and does
    fix(S) separate fix(S')?  Both come from one count on the state graph.

    f o g = f for all g iff f is constant on each component C of the
    undirected graph x -- g(x).  A_g mu = mu gives A_g|mu| >= |mu| with
    equal mass, so the fixed measures form a lattice spanned by 1_M for
    the supports M of the invariant measures.  Ordered by max, each block's
    free column, both indicator bases are the canonical ``fixed_space`` ones.
    Each M lies in one C, the one of its least state, so the pairing
    matrix of ``separation_check`` has one nonzero per column: separation
    holds iff the least states of the M lie in #M distinct components.
    lin rg(Id - S) is the annihilator of the 1_M, of dimension n - #M, and
    it complements fix(S) iff, moreover, every C holds one M.

    ``least_members``, the union-find of ``congruence_closure``, reads
    off the C from the n * g edges, with no maps: the C form a congruence
    already, since h(z) lies in the C of z for every h.
    """
    n = sys.n
    least = least_members(n, chain.from_iterable(enumerate(g.images)
                                                 for g in sys.generator_maps))
    components = {}
    for x, r in enumerate(least):
        components.setdefault(r, set()).add(x)
    supports = invariant_supports(sys)
    separating = len({least[min(m)] for m in supports}) == len(supports)
    return DecompositionReport(len(components), n - len(supports),
                               separating and len(supports) == len(components), separating,
                               _indicators(n, components.values()), _indicators(n, supports))
