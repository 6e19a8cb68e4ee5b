"""Koopman matrices and their adjoint action on exact measures.

For a map ``s`` on n states, the Koopman matrix acts on functions by
``(M f)(x) = f(s(x))``; its transpose pushes measures forward, sending
the point mass at x to the point mass at s(x).  Everything in this
module is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import rational
from .rational import ONE, ZERO, Row
from .systems import FiniteSystem, minimal_sets
from .transforms import Transformation


@dataclass(frozen=True)
class OperatorMatrix:
    """An exact rational square matrix."""

    rows: tuple[Row, ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def from_rows(cls, rows) -> "OperatorMatrix":
        return cls(rational.as_fraction_rows(rows))

    @classmethod
    def identity(cls, n: int) -> "OperatorMatrix":
        return cls(rational.identity_rows(n))

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

    @cached_property
    def diagonal(self) -> bool:
        return all(
            x == 0 for i, row in enumerate(self.rows) for j, x in enumerate(row) if i != j
        )

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix(tuple(zip(*self.rows)))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(rational.mat_mul(self.rows, other.rows))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(rational.mat_add(self.rows, other.rows))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(rational.mat_sub(self.rows, other.rows))

    def scale(self, c) -> "OperatorMatrix":
        return OperatorMatrix(rational.mat_scale(Fraction(c), self.rows))

    def apply(self, vector: Row) -> Row:
        return rational.mat_vec(self.rows, vector)

    def rank(self) -> int:
        return rational.rank(self.rows)

    def max_entry_distance(self, other: "OperatorMatrix") -> Fraction:
        return rational.max_diff(self.rows, other.rows)


def convex_combination(weighted) -> OperatorMatrix:
    """Exact sum of (matrix, weight) pairs; weights must sum to 1."""
    weighted = [(m, Fraction(w)) for m, w in weighted]
    total = sum(w for _, w in weighted)
    if total != 1 or any(w < 0 for _, w in weighted):
        raise ValueError("weights must be nonnegative and sum to 1")
    acc = weighted[0][0].scale(weighted[0][1])
    for m, w in weighted[1:]:
        acc = acc + m.scale(w)
    return acc


@dataclass(frozen=True)
class Measure:
    """A nonnegative rational vector of total mass 1."""

    weights: Row

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValueError("negative mass")
        if sum(self.weights) != 1:
            raise ValueError("total mass must be exactly 1")

    @classmethod
    def dirac(cls, n: int, x: int) -> "Measure":
        return cls(tuple(ONE if i == x else ZERO for i in range(n)))

    @classmethod
    def uniform_on(cls, n: int, support) -> "Measure":
        support = sorted(set(support))
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
        return sum(a * b for a, b in zip(f, self.weights))


def pushforward(weighted) -> OperatorMatrix:
    """Exact sum of w * A_t over (map, weight) pairs.  Column c of A_t is
    the point mass at t(c), so each pair adds w to one entry per column."""
    weighted = list(weighted)
    n = weighted[0][0].degree
    rows = [[ZERO] * n for _ in range(n)]
    for t, w in weighted:
        for c, r in enumerate(t.images):
            rows[r][c] += w
    return OperatorMatrix(tuple(map(tuple, rows)))


def adjoint_matrix(t: Transformation) -> OperatorMatrix:
    """The pushforward on measures: A[y][x] = 1 iff t(x) = y."""
    return pushforward([(t, ONE)])


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
    maps = sys.generator_maps
    extremes = []
    for m in minimal_sets(sys):
        if all(len({g(x) for x in m}) == len(m) for g in maps):
            extremes.append(Measure.uniform_on(sys.n, m))
    for mu in extremes:
        assert all(
            adjoint_on_measure(koopman_matrix(g), mu) == mu for g in maps
        )
    if sys.commuting:
        # Commuting maps always share a fixed probability vector.
        assert extremes, "commuting system lost its invariant measure"
    return tuple(extremes)


def fixed_space(matrices) -> tuple[Row, ...]:
    """Exact basis of the joint fixed space of the given matrices."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    n = matrices[0].n
    stacked = []
    eye = rational.identity_rows(n)
    for m in matrices:
        stacked.extend(rational.mat_sub(m.rows, eye))
    return rational.nullspace(stacked, n)


def separation_check(fix_functions, fix_measures) -> bool:
    """Does the function fixed space separate the measure fixed space?

    True iff no nonzero vector in the span of ``fix_measures`` pairs to
    zero with every vector of ``fix_functions``; decided by an exact rank
    computation of the pairing matrix.
    """
    fix_functions = list(fix_functions)
    fix_measures = list(fix_measures)
    if not fix_measures:
        return True
    if not fix_functions:
        return False
    gram = [
        tuple(sum(a * b for a, b in zip(f, mu)) for mu in fix_measures)
        for f in fix_functions
    ]
    return rational.rank(gram) == len(fix_measures)


@dataclass(frozen=True)
class DecompositionReport:
    dim_fix: int
    dim_range_span: int
    direct_sum: bool
    fix_functions: tuple[Row, ...]
    fix_measures: tuple[Row, ...]


def decomposition_check(sys: FiniteSystem) -> DecompositionReport:
    """Does fix(S) + lin rg(Id - S) split the whole function space?

    Also returns exact bases of the fixed functions and fixed measures.
    """
    n = sys.n
    koopman = [koopman_matrix(g) for g in sys.generator_maps]
    fix_basis = fixed_space(koopman)
    eye = rational.identity_rows(n)
    range_vectors = []
    for m in koopman:
        diff = rational.mat_sub(eye, m.rows)
        cols = list(zip(*diff))
        range_vectors.extend(cols)
    # Range vector y of I - M_g is e_y - 1_{g^-1(y)}, row y of A_g - I
    # with the sign flipped.  So the range vectors span the row space of
    # the stacked A_g - I: their null space is the fixed measures, and by
    # rank-nullity they span n minus its dimension.
    fix_measures = rational.nullspace(range_vectors, n)
    dim_fix = len(fix_basis)
    dim_range = n - len(fix_measures)
    combined = rational.rank(list(fix_basis) + range_vectors)
    direct = combined == dim_fix + dim_range and dim_fix + dim_range == n
    return DecompositionReport(dim_fix, dim_range, direct, fix_basis, fix_measures)
