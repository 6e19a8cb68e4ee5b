"""Enveloping semigroups at finite scale and the zero-element classifier.

Five semigroups are attached to a finite system: the transformation
closure (Ellis), the pushforward matrices of its elements (Köhler), the
convex hull of those matrices (convex Köhler), and the restrictions of
either to the support of an invariant measure (Jacobs / convex Jacobs).
On a finite state set every pointwise closure is the generated semigroup,
so all of them are exactly computable.

Classification runs on the convex Köhler semigroup:

* a zero element exists            <=> weak* mean ergodic,
* a weak*-continuous zero exists   <=> norm mean ergodic,
* a rank-one zero exists           <=> uniquely ergodic.

In finite dimension every operator is weak*-continuous, so the first two
verdicts coincide here ("finite collapse"); the subshift and grid models
are the places where they can genuinely differ.  The equivalences above
assume a left amenable acting semigroup; commuting generators guarantee
that, and reports say which hypothesis they were issued under.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import rational
from .nets import first_repeat, folner_net
from .operators import (
    Measure,
    OperatorMatrix,
    adjoint_matrix,
    decomposition_check,
    invariant_measures,
    pushforward_integers,
)
from .systems import FiniteSystem, invariant_supports, minimal_sets, orbit, transitivity
from .transforms import (
    SizeCapError,
    Transformation,
    TransSemigroup,
    check_int,
    generate_closure,
    kernel,
    restriction_epimorphism,
)


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNDETERMINED = "undetermined"

    @classmethod
    def of(cls, flag: bool) -> "Verdict":
        return cls.TRUE if flag else cls.FALSE


MINIMAL_CHECK_NS = (4, 8, 16, 32)        # Følner box sides of minimal_unique_check


@dataclass(frozen=True)
class Budget:
    max_elements: int | None = None      # closure cap; None = global default
    lp_max_elements: int = 64            # kernel size cap for the exact LP

    def __post_init__(self):
        if self.max_elements is not None:
            check_int(self.max_elements, "max_elements", 0)
        check_int(self.lp_max_elements, "lp_max_elements", 0)


def ellis(sys: FiniteSystem, max_elements: int | None = None) -> TransSemigroup:
    """The transformation closure of the generators."""
    return generate_closure(sys.generator_maps, max_elements=max_elements)


@dataclass(frozen=True, eq=False)
class MatrixSemigroup:
    """Pushforward matrices of a transformation semigroup, held as that semigroup.

    ``bridge`` is the representation: pushforward(s o t) =
    pushforward(s) @ pushforward(t), so element i is the pushforward of
    the bridge's element i and its generator graphs index the matrix
    products too.  ``elements`` builds the exact matrices on first use.
    """

    bridge: TransSemigroup

    @property
    def size(self) -> int:
        return self.bridge.size

    @cached_property
    def elements(self) -> tuple[OperatorMatrix, ...]:
        return tuple(adjoint_matrix(t) for t in self.bridge.elements)


def koehler(sys: FiniteSystem, max_elements: int | None = None) -> MatrixSemigroup:
    """The pushforwards of the Ellis elements, bridge verified: A_s A_g =
    A_{s o g} exactly for every generator g and every element s, or every
    generator s beyond 64 elements.  Only the matrices compared are built,
    and the product is ``rational.mat_mul``'s: ``@`` composes the maps of
    pushforwards, so it would check composition against itself."""
    sg = ellis(sys, max_elements)
    mat = lambda i: adjoint_matrix(Transformation(tuple(sg.images[i].tolist())))
    check = range(sg.size) if sg.size <= 64 else sg.generator_indices
    for i in check:
        for k, j in enumerate(sg.generator_indices):
            if rational.mat_mul(mat(i).rows, mat(j).rows) != mat(sg.right[i, k]).rows:
                raise AssertionError("pushforward bridge is not multiplicative")
    return MatrixSemigroup(sg)


def power_periodicity(t: Transformation) -> tuple[int, int, list[Transformation]]:
    """(preperiod, period, [t^0, t^1, ...] up to the first repeat)."""
    images, period = first_repeat(tuple(range(t.degree)),
                                  lambda p: tuple(t.images[y] for y in p))
    return len(images) - period, period, [Transformation.trusted(p) for p in images]


@dataclass(frozen=True)
class ZeroCertificate:
    """A verified zero Q of the convex Köhler semigroup, in closed form: column
    x is uniform on supports[labels[x]], the one invariant support inside
    {x} u Sx, and ``matrix`` is built on first read.  ``witness`` expresses Q
    as an exact convex combination of pushforwards of semigroup elements;
    ``checks`` names the identities that were verified exactly."""

    labels: tuple[int, ...]
    supports: tuple[frozenset[int], ...]
    witness: tuple[tuple[Transformation, Fraction], ...]
    checks: tuple[str, ...]

    @cached_property
    def matrix(self) -> OperatorMatrix:
        n, columns = len(self.labels), []
        for m in self.supports:
            w = Fraction(1, len(m))
            columns.append(tuple(w if y in m else rational.ZERO for y in range(n)))
        return OperatorMatrix(tuple(zip(*(columns[i] for i in self.labels))))

    def rank(self) -> int:
        """trace Q, which puts 1/|M| on the diagonal at each state of each support M."""
        return len(self.supports)


@dataclass(frozen=True)
class ZeroSearchResult:
    status: str  # "found" | "absent" | "undetermined"
    certificate: ZeroCertificate | None
    method: str
    notes: tuple[str, ...] = ()


def _absorbed(cert: ZeroCertificate, images: np.ndarray) -> np.ndarray:
    """Which maps t, one per row of ``images``, give A_t Q = Q A_t = Q, exactly.

    Column x of Q A_t is column t(x) of Q, so Q A_t = Q iff t keeps every
    label.  A_t Q = Q iff t maps every support onto itself, which, where t
    keeps the labels, holds iff t permutes the union of the supports.
    """
    labels = np.array(cert.labels)
    union = np.array(sorted(x for m in cert.supports for x in m), dtype=np.intp)
    return ((labels[images] == labels).all(axis=1)
            & (np.sort(images[:, union], axis=1) == union).all(axis=1))


def _certify(weights: dict, sys: FiniteSystem, labels: tuple[int, ...]) -> ZeroCertificate:
    """Q in closed form on ``labels``, certified against every generator and by
    the witness's integer columns over d, each summing to d, matching Q's;
    raises AssertionError naming the first generator Q does not absorb, or the witness."""
    assert sum(weights.values()) == 1 and min(weights.values()) >= 0, "weights not convex"
    witness = tuple((Transformation.trusted(images), w) for images, w in sorted(weights.items()))
    cert = ZeroCertificate(labels, invariant_supports(sys), witness, (
        *(f"A[{name}] Q = Q A[{name}] = Q" for name, _ in sys.generators),
        "Q is a convex combination of semigroup pushforwards"))
    absorbed = _absorbed(cert, np.array([g.images for g in sys.generator_maps]))
    for (name, _), ok in zip(sys.generators, absorbed):
        if not ok:
            raise AssertionError(f"Q is not a zero: generator {name!r} fails A Q = Q A = Q")
    d, cols = pushforward_integers(witness)
    columns = [[d // len(m) * (y in m) for y in range(sys.n)] for m in cert.supports]
    if any(col != columns[i] for col, i in zip(cols, labels)):
        raise AssertionError("Q is not the witness's convex combination")
    return cert


def _zero_by_cesaro_product(sys: FiniteSystem) -> dict[tuple[int, ...], Fraction]:
    """Complete for commuting generators: product of per-map limits, each the
    average of one period of the map's powers, as weights on image tuples."""
    weights = {tuple(range(sys.n)): Fraction(1)}
    for g in sys.generator_maps:
        preperiod, period, powers = power_periodicity(g)
        product = {}
        for s, w in weights.items():
            for p in powers[preperiod:]:
                key = tuple(s[y] for y in p.images)
                product[key] = product.get(key, 0) + w / period
        weights = product
    return weights


def _zero_by_feasibility(sys: FiniteSystem, sg: TransSemigroup) -> dict | None:
    """Exact linear feasibility over the hull of the kernel K: the witness.

    A zero Q = sum lambda_i A_{s_i} of co(S) lies in co(K): for any k in
    K, Q = Q A_k = sum lambda_i A_{s_i o k}, and every s_i o k lies in
    the ideal K.  So the unknowns are convex weights on the elements of
    K, one per element of ``sorted(kernel(sg))``, with constraints
    A_g Q = Q A_g = Q for every generator, where A_g A_k = A_{g o k} and
    A_k A_g = A_{k o g} are again kernel columns.  An exact phase-1
    simplex solves it.  It runs only once the minimal-set screen has
    passed, which proves that a zero exists, so a None here means the LP
    or that proof is wrong.
    """
    ker = sorted(kernel(sg))
    own = sg.images[ker]
    # Row (g, r, c, side) holds, per kernel element k, entry (r, c) of
    # A_t - A_k for t = g o k (side 0) and t = k o g (side 1), where
    # (A_t)[r][c] = [t(c) == r].
    states = np.arange(sys.n)[:, None]
    gens = sg.images[list(sg.generator_indices)]
    moved = np.stack([gens[:, own].transpose(1, 0, 2), own[:, gens]])
    block = (moved[..., None, :] == states).astype(np.int8) - (own[:, None, :] == states)[:, None]
    rows = list(map(tuple, block.transpose(2, 3, 4, 0, 1).reshape(-1, len(ker)).tolist()))
    rows.append((1,) * len(ker))
    rhs = [0] * (len(rows) - 1) + [1]
    solution = rational.lp_feasible_point(rows, rhs)
    if solution is None:
        return None
    return {tuple(e): w for e, w in zip(own.tolist(), solution) if w > 0}


def _zero_support_labels(sys: FiniteSystem) -> str | tuple[int, ...]:
    """The reason no zero exists, or x -> the index of M(x) in ``invariant_supports``.

    A zero's columns are invariant measures.  Q delta_y for y in a minimal
    set M is invariant and supported in M, so every minimal set must carry
    an invariant measure; and since Q A_w = Q forces equal columns along
    orbits, no orbit closure may contain two measure-carrying minimal sets.
    Either failure proves the zero absent.  Minimal sets are sink components,
    so one pass over the components, each after those it reaches, finds the
    one M(x) in {x} u Sx or "many".  The zero is uniform on M(x) in column x:
    a kernel idempotent e fixes each M and sends x into M(x), and the
    average over the group eSe, transitive on each M, is that zero.
    """
    supports = invariant_supports(sys)
    for m in minimal_sets(sys):
        if m not in supports:
            return f"minimal set {sorted(m)} carries no invariant measure"
    index = {min(s): i for i, s in enumerate(supports)}
    labels: list = [None] * sys.n
    for c in sys.components:
        label = index.get(min(c))
        for y in (labels[g(x)] for x in c for g in sys.generator_maps):
            if y is not None and y != label:
                label = y if label is None else "many"
        for x in c:
            labels[x] = label
    if "many" in labels:
        x = labels.index("many")
        states = orbit(sys, x).states
        return (f"orbit closure of state {x} contains "
                f"{sum(min(s) in states for s in supports)} minimal sets with invariant measures")
    return tuple(labels)


def convex_koehler_zero(
    sys: FiniteSystem,
    budget: Budget | None = None,
    _ellis: TransSemigroup | SizeCapError | None = None,
) -> ZeroSearchResult:
    """Search for the zero element of the convex Köhler semigroup.

    The minimal-set screen runs first and refutes the zero or gives its
    closed form, which a witness must sum to: for commuting generators the
    exact Cesàro product, otherwise exact linear feasibility over the hull
    of the Ellis kernel, which is complete because a zero of co(S) lies in
    co(K) (see ``_zero_by_feasibility``).  The screen decides: once it
    passes a zero exists, so a witness search that finds none raises
    AssertionError rather than report the zero absent.  When the closure
    exceeds ``budget.max_elements`` or the kernel exceeds
    ``budget.lp_max_elements``, the result is reported as undetermined,
    never guessed.  ``_ellis`` is the closure ``classify`` already
    built, or the ``SizeCapError`` it raised: the closure is the one
    costly input, so a capped closure is never built twice.
    """
    budget = budget or Budget()
    labels = _zero_support_labels(sys)
    if isinstance(labels, str):
        return ZeroSearchResult("absent", None, "minimal_set_refutation", (labels,))
    if sys.commuting:
        cert = _certify(_zero_by_cesaro_product(sys), sys, labels)
        return ZeroSearchResult("found", cert, "cesaro_product")
    sg = _ellis
    if sg is None:
        try:
            sg = ellis(sys, budget.max_elements)
        except SizeCapError as exc:
            sg = exc
    if isinstance(sg, SizeCapError):
        return ZeroSearchResult("undetermined", None, "linear_feasibility", (str(sg),))
    if (size := len(kernel(sg))) > budget.lp_max_elements:
        return ZeroSearchResult(
            "undetermined", None, "linear_feasibility",
            (f"{size} kernel elements exceed the exact-refutation budget "
             f"{budget.lp_max_elements}",),
        )
    weights = _zero_by_feasibility(sys, sg)
    if weights is None:
        raise AssertionError("the minimal-set screen passed but the kernel LP found no zero")
    return ZeroSearchResult("found", _certify(weights, sys, labels), "linear_feasibility")


def verify_zero_on_all_elements(cert: ZeroCertificate, sg: TransSemigroup) -> int:
    """Q M = M Q = Q for the pushforward M of every element, read off the labels
    for the whole image array at once, in time linear in its size; returns the
    check count.  Raises AssertionError naming the first failing element in order."""
    failed = np.flatnonzero(~_absorbed(cert, sg.images))
    if failed.size:
        raise AssertionError(
            f"zero identity fails on element {tuple(sg.images[failed[0]].tolist())}")
    return 2 * sg.size


def zero_rank(cert: ZeroCertificate) -> int:
    return cert.rank()


@dataclass(frozen=True)
class JacobsResult:
    semigroup: MatrixSemigroup
    restriction_map: tuple[int, ...]
    checked_identities: int


def jacobs(sys: FiniteSystem, mu: Measure,
           max_elements: int | None = None) -> JacobsResult:
    """Restrict the Köhler semigroup to the support of an invariant measure.

    The restriction map is verified surjective (by construction) and
    multiplicative on every element against every generator; induction
    on word length extends that to all element pairs.
    """
    if mu.n != sys.n:
        raise ValueError(f"measure has {mu.n} states, system has {sys.n}")
    for name, g in sys.generators:
        if Measure(adjoint_matrix(g).apply(mu.weights)) != mu:
            raise ValueError(f"measure is not invariant under generator {name!r}")
    restriction = restriction_epimorphism(ellis(sys, max_elements), mu.support)
    return JacobsResult(MatrixSemigroup(restriction.target), restriction.element_map,
                        restriction.checked_identities)


@dataclass(frozen=True)
class KernelImageCheck:
    kernel_size: int
    minimal_union: frozenset[int]
    violations: tuple[int, ...]


def kernel_image_check(sys: FiniteSystem, _ellis: TransSemigroup | None = None) -> KernelImageCheck:
    """Image of every kernel element lies in the union of minimal sets."""
    sg = _ellis if _ellis is not None else ellis(sys)
    ker = kernel(sg)
    union = frozenset(x for m in minimal_sets(sys) for x in m)
    violations = tuple(sorted(i for i in ker if not set(sg.images[i].tolist()) <= union))
    if violations:
        raise AssertionError(
            f"kernel elements {violations} map outside the union of minimal sets"
        )
    return KernelImageCheck(len(ker), union, violations)


@dataclass(frozen=True)
class MinimalUniqueCheck:
    unique_measure: Measure
    net_converged: bool
    final_distance: Fraction


def minimal_unique_check(sys: FiniteSystem) -> MinimalUniqueCheck:
    """Minimal commuting system: the net over MINIMAL_CHECK_NS converges, the measure is unique."""
    msets = minimal_sets(sys)
    if len(msets) != 1 or msets[0] != frozenset(range(sys.n)):
        raise ValueError("system is not minimal")
    if not sys.commuting:
        raise ValueError("this check is backed by theory only for commuting generators")
    measures = invariant_measures(sys)
    assert len(measures) == 1, (
        "minimal commuting system must be uniquely ergodic"
    )
    cert = convex_koehler_zero(sys).certificate
    # Per-generator transients bound the distance of the box average to
    # the zero: |A_N - Q| <= n * sum_g (preperiod_g + period_g) / N.
    constant = 0
    for g in sys.generator_maps:
        p, q, _ = power_periodicity(g)
        constant += p + q
    adjoints = [adjoint_matrix(g) for g in sys.generator_maps]
    net = folner_net(adjoints, MINIMAL_CHECK_NS)
    distance = net.steps[-1].matrix.max_entry_distance(cert.matrix)
    converged = distance <= Fraction(sys.n * constant, MINIMAL_CHECK_NS[-1])
    assert converged, "Følner averages failed to approach the zero element"
    return MinimalUniqueCheck(measures[0], converged, distance)


@dataclass
class ClassificationReport:
    system_id: str
    ellis_size: int | None
    kernel_size: int | None
    zero: ZeroSearchResult
    zero_rank: int | None
    unique_ergodic: Verdict
    norm_mean_ergodic: Verdict
    weak_star_mean_ergodic: Verdict
    minimal_sets: tuple[frozenset[int], ...]
    transitive: int | None
    invariant_measure: Measure | None
    notes: tuple[str, ...]


def classify(sys: FiniteSystem, budget: Budget | None = None) -> ClassificationReport:
    """Fill the full report; undetermined wherever the budget runs out.

    The three verdicts are the zero-element criteria on the convex
    Köhler semigroup; on a finite state set the weak* and norm verdicts
    necessarily coincide, which the report notes.
    """
    budget = budget or Budget()
    notes = ["finite state set: weak* and norm topologies coincide"]
    notes.append(
        "left amenability: guaranteed (commuting generators)"
        if sys.commuting else "left amenability: unverified"
    )

    sg = capped = ellis_size = kernel_size = None
    try:
        sg = ellis(sys, budget.max_elements)
        ellis_size, kernel_size = sg.size, kernel_image_check(sys, _ellis=sg).kernel_size
    except SizeCapError as exc:
        capped = exc
        notes.append(f"size cap reached: {exc}")

    msets = minimal_sets(sys)
    # When the closure holds the identity, x lies in Sx, so {x} u Sx = Sx
    # and the two transitivity witnesses coincide.
    witness = transitivity(sys).strict_witness

    measures = invariant_measures(sys)
    notes.append(f"extreme invariant measures: {len(measures)}")

    search = convex_koehler_zero(sys, budget, _ellis=capped or sg)
    rank = None
    if search.status == "found":
        weak_star = norm = Verdict.TRUE
        # A zero of co(S) projects onto fix(S'), spanned by the extreme measures.
        rank = search.certificate.rank()
        unique = Verdict.of(rank == 1)
        if sg is not None:
            verify_zero_on_all_elements(search.certificate, sg)
    elif search.status == "absent":
        weak_star = norm = unique = Verdict.FALSE
    else:
        weak_star = norm = unique = Verdict.UNDETERMINED
    notes.extend(search.notes)

    # Cross-checks, from the supports counted in each generator-graph
    # component.  For commuting generators the equivalences are theorems
    # and any disagreement is a hard error; otherwise it is recorded.
    dec = decomposition_check(sys)
    sep = dec.separating
    if sys.commuting:
        assert search.status == "found", "commuting systems always admit a zero"
        assert sep and dec.direct_sum, (
            "fixed-space criteria must agree with the zero for commuting generators"
        )
    else:
        if sep != dec.direct_sum:
            notes.append(
                f"fixed-space criteria disagree (separation {sep}, "
                f"decomposition {dec.direct_sum}); acting semigroup not amenable"
            )
        if search.status == "absent" and len(measures) == 1:
            notes.append(
                "one invariant measure but no zero; rank-one-zero criterion "
                "and measure count disagree (left amenability fails)"
            )
    notes.append(
        f"fixed-space cross-checks: separation {sep}, "
        f"decomposition {dec.dim_fix}+{dec.dim_range_span}"
        f"{'=' if dec.direct_sum else '!='}{sys.n}"
    )

    # Implication chain: unique => norm => weak*.
    order = {Verdict.FALSE: 0, Verdict.UNDETERMINED: 1, Verdict.TRUE: 2}
    chain_ok = not (
        (unique is Verdict.TRUE and order[norm] < 2)
        or (norm is Verdict.TRUE and order[weak_star] < 2)
    )
    assert chain_ok, "implication chain violated"
    if witness is not None and sys.commuting:
        assert unique is Verdict.TRUE, (
            "transitive commuting system must be uniquely ergodic"
        )

    return ClassificationReport(
        system_id=sys.system_id(),
        ellis_size=ellis_size,
        kernel_size=kernel_size,
        zero=search,
        zero_rank=rank,
        unique_ergodic=unique,
        norm_mean_ergodic=norm,
        weak_star_mean_ergodic=weak_star,
        minimal_sets=msets,
        transitive=witness,
        invariant_measure=measures[0] if len(measures) == 1 else None,
        notes=tuple(notes),
    )


def report_to_json_dict(report: ClassificationReport) -> dict:
    """Stable JSON form; tri-states are tagged strings, never null/false."""
    if report.zero.certificate is not None:
        cert = report.zero.certificate
        zero_obj = {
            "status": "found",
            "method": report.zero.method,
            "matrix": [[str(x) for x in row] for row in cert.matrix.rows],
            "witness": [
                {"map": list(t.images), "weight": str(w)} for t, w in cert.witness
            ],
            "checks": list(cert.checks),
        }
    else:
        zero_obj = {"status": report.zero.status, "method": report.zero.method}
    mu = report.invariant_measure
    return {
        "system_id": report.system_id,
        "ellis_size": report.ellis_size,
        "kernel_size": report.kernel_size,
        "zero": zero_obj,
        "zero_rank": report.zero_rank,
        "unique_ergodic": report.unique_ergodic.value,
        "norm_mean_ergodic": report.norm_mean_ergodic.value,
        "weak_star_mean_ergodic": report.weak_star_mean_ergodic.value,
        "minimal_sets": [sorted(m) for m in report.minimal_sets],
        "transitive": report.transitive,
        "invariant_measure": (
            None if mu is None else [str(w) for w in mu.weights]
        ),
        "notes": list(report.notes),
    }


def report_json(report: ClassificationReport) -> str:
    return json.dumps(report_to_json_dict(report), indent=2)
