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

from . import rational
from .nets import folner_net
from .operators import (
    Measure,
    OperatorMatrix,
    adjoint_matrix,
    decomposition_check,
    fixed_space,
    invariant_measures,
    koopman_matrix,
    pushforward,
    separation_check,
)
from .systems import FiniteSystem, minimal_sets, transitivity
from .transforms import (
    SizeCapError,
    Transformation,
    TransSemigroup,
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


VERIFY_ALL_MAX = 1000                    # verify zero identities on all elements
MAX_WORD_LEN = 6                         # word-averaging heuristic depth


@dataclass(frozen=True)
class Budget:
    max_elements: int | None = None      # closure cap; None = global default
    lp_max_elements: int = 64            # exact refutation cutoff


def ellis(sys: FiniteSystem, max_elements: int | None = None) -> TransSemigroup:
    """The transformation closure of the generators."""
    return generate_closure(sys.generator_maps, max_elements=max_elements)


@dataclass(frozen=True, eq=False)
class MatrixSemigroup:
    """A multiplication-closed list of exact matrices.

    When the elements are pushforwards of deterministic maps, ``bridge``
    holds the transformation semigroup with the same element order:
    pushforward(s o t) = pushforward(s) @ pushforward(t), so the bridge's
    generator graphs and Cayley table index the matrix products too.
    """

    elements: tuple[OperatorMatrix, ...]
    bridge: TransSemigroup | None = None

    @property
    def size(self) -> int:
        return len(self.elements)


def koehler(sys: FiniteSystem, max_elements: int | None = None,
            _ellis: TransSemigroup | None = None) -> MatrixSemigroup:
    """Pushforward matrices of every Ellis element, bridge verified."""
    sg = _ellis if _ellis is not None else ellis(sys, max_elements)
    mats = tuple(adjoint_matrix(t) for t in sg.elements)
    check = range(sg.size) if sg.size <= 64 else sg.generator_indices
    for i in check:
        for k, j in enumerate(sg.generator_indices):
            if mats[i] @ mats[j] != mats[sg.right[i, k]]:
                raise AssertionError("pushforward bridge is not multiplicative")
    return MatrixSemigroup(mats, bridge=sg)


def power_periodicity(t: Transformation) -> tuple[int, int, list[Transformation]]:
    """(preperiod, period, [t^0, t^1, ...]) of the power sequence."""
    powers = [Transformation.identity(t.degree)]
    seen = {powers[0]: 0}
    while True:
        nxt = t.compose(powers[-1])
        if nxt in seen:
            start = seen[nxt]
            return start, len(powers) - start, powers
        seen[nxt] = len(powers)
        powers.append(nxt)


def cesaro_limit_of_map(t: Transformation) -> dict[Transformation, Fraction]:
    """Exact Cesàro limit of the pushforward powers, as convex weights.

    The power sequence is eventually periodic, so the limit of the
    averages is the plain average over one full period past the
    preperiod.  Returned as weights on transformations.
    """
    preperiod, period, powers = power_periodicity(t)
    w = Fraction(1, period)
    weights: dict[Transformation, Fraction] = {}
    for j in range(preperiod, preperiod + period):
        s = powers[j]
        weights[s] = weights.get(s, Fraction(0)) + w
    return weights


def _convolve(a: dict[Transformation, Fraction],
              b: dict[Transformation, Fraction]) -> dict[Transformation, Fraction]:
    out: dict[Transformation, Fraction] = {}
    for s, ws in a.items():
        for t, wt in b.items():
            key = s.compose(t)
            out[key] = out.get(key, Fraction(0)) + ws * wt
    return out


@dataclass(frozen=True)
class ZeroCertificate:
    """A verified zero of the convex Köhler semigroup.

    ``witness`` expresses the matrix as an exact convex combination of
    pushforwards of semigroup elements; ``checks`` names the identities
    that were verified exactly.
    """

    matrix: OperatorMatrix
    witness: tuple[tuple[Transformation, Fraction], ...]
    checks: tuple[str, ...]

    def rank(self) -> int:
        return self.matrix.rank()


@dataclass(frozen=True)
class ZeroSearchResult:
    status: str  # "found" | "absent" | "undetermined"
    certificate: ZeroCertificate | None
    method: str
    notes: tuple[str, ...] = ()


def _certify(weights: dict[Transformation, Fraction],
             sys: FiniteSystem) -> ZeroCertificate | None:
    """Q = the convex combination of the weighted pushforwards, certified
    by exact zero identities against every generator, or None."""
    total = sum(weights.values())
    if total != 1 or any(w < 0 for w in weights.values()):
        return None
    witness = tuple(sorted(weights.items(), key=lambda kv: kv[0].images))
    q = pushforward(witness)
    checks = []
    for name, g in sys.generators:
        a = adjoint_matrix(g)
        if a @ q != q or q @ a != q:
            return None
        checks.append(f"A[{name}] Q = Q A[{name}] = Q")
    checks.append("Q is a convex combination of semigroup pushforwards")
    return ZeroCertificate(q, witness, tuple(checks))


def _zero_by_cesaro_product(sys: FiniteSystem) -> ZeroCertificate:
    """Complete for commuting generators: product of per-map limits."""
    weights: dict[Transformation, Fraction] | None = None
    for g in sys.generator_maps:
        w = cesaro_limit_of_map(g)
        weights = w if weights is None else _convolve(weights, w)
    cert = _certify(weights, sys)
    if cert is None:
        raise AssertionError("Cesàro product failed on commuting generators")
    return cert


def _zero_by_word_average(sys: FiniteSystem, max_len: int) -> ZeroCertificate | None:
    """Equal-weight average over all generator words of length <= L."""
    gens = sys.generator_maps
    level = {Transformation.identity(sys.n): 1}
    counts: dict[Transformation, int] = {}
    total = 0
    for _ in range(1, max_len + 1):
        nxt: dict[Transformation, int] = {}
        for t, c in level.items():
            for g in gens:
                key = g.compose(t)
                nxt[key] = nxt.get(key, 0) + c
        level = nxt
        for t, c in level.items():
            counts[t] = counts.get(t, 0) + c
        total = sum(counts.values())
        weights = {t: Fraction(c, total) for t, c in counts.items()}
        cert = _certify(weights, sys)
        if cert is not None:
            return cert
    return None


def _zero_by_feasibility(sys: FiniteSystem, sg: TransSemigroup) -> ZeroCertificate | None:
    """Exact linear feasibility over the hull of all semigroup elements.

    Unknown convex weights lambda_i; constraints A_g Q = Q A_g = Q for
    every generator with Q = sum lambda_i E_i, solved by an exact
    phase-1 simplex.  A None here is a proof that no zero exists.
    """
    # E_i[r][c] = 1 exactly when elements[i] maps c to r.
    images = [t.images for t in sg.elements]
    m = sg.size
    n = sys.n
    rows = []
    for columns in zip(sg.left.T.tolist(), sg.right.T.tolist()):
        for r in range(n):
            for c in range(n):
                for col in columns:
                    rows.append(tuple(
                        (images[col[i]][c] == r) - (images[i][c] == r) for i in range(m)
                    ))
    rows.append((Fraction(1),) * m)
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]
    solution = rational.lp_feasible_point(rows, rhs)
    if solution is None:
        return None
    weights = {sg.elements[i]: w for i, w in enumerate(solution) if w > 0}
    cert = _certify(weights, sys)
    if cert is None:
        raise AssertionError("feasible point failed exact verification")
    return cert


def _zero_refuted_by_minimal_sets(sys: FiniteSystem) -> str | None:
    """Exact refutation: a zero's columns are invariant measures.

    Q delta_y for y in a minimal set M is invariant and supported in M,
    so every minimal set must carry an invariant measure; and since
    Q A_w = Q forces equal columns along orbits, no orbit closure may
    contain two measure-carrying minimal sets.  Either failure proves
    the zero absent.
    """
    from .systems import orbit

    msets = minimal_sets(sys)
    supports = {mu.support for mu in invariant_measures(sys)}
    for m in msets:
        if m not in supports:
            return f"minimal set {sorted(m)} carries no invariant measure"
    if len(supports) >= 2:
        for x in range(sys.n):
            states = orbit(sys, x).states
            inside = [s for s in supports if s <= states]
            if len(inside) >= 2:
                return (f"orbit closure of state {x} contains "
                        f"{len(inside)} minimal sets with invariant measures")
    return None


def convex_koehler_zero(
    sys: FiniteSystem,
    budget: Budget | None = None,
    _ellis: TransSemigroup | SizeCapError | None = None,
) -> ZeroSearchResult:
    """Search for the zero element of the convex Köhler semigroup.

    Commuting generators get the exact Cesàro-product construction,
    which is complete for that class.  Otherwise the cheap exact
    minimal-set refutation runs first, then a word-averaging heuristic,
    then linear feasibility over the hull of all elements (complete up
    to ``budget.lp_max_elements``).  A refutation and an exactly
    verified word average never both succeed, so the order changes no
    result.  Beyond those budgets the result is reported as
    undetermined, never guessed.  ``_ellis`` is the closure, or the
    ``SizeCapError`` it already raised.
    """
    budget = budget or Budget()
    if sys.commuting:
        cert = _zero_by_cesaro_product(sys)
        return ZeroSearchResult("found", cert, "cesaro_product")
    reason = _zero_refuted_by_minimal_sets(sys)
    if reason is not None:
        return ZeroSearchResult("absent", None, "minimal_set_refutation", (reason,))
    cert = _zero_by_word_average(sys, MAX_WORD_LEN)
    if cert is not None:
        return ZeroSearchResult("found", cert, "word_average")
    sg = _ellis
    if sg is None:
        try:
            sg = ellis(sys, budget.max_elements)
        except SizeCapError as exc:
            sg = exc
    if isinstance(sg, SizeCapError):
        return ZeroSearchResult("undetermined", None, "word_average", (str(sg),))
    if sg.size > budget.lp_max_elements:
        return ZeroSearchResult(
            "undetermined", None, "word_average",
            (f"{sg.size} elements exceed the exact-refutation budget "
             f"{budget.lp_max_elements}",),
        )
    cert = _zero_by_feasibility(sys, sg)
    if cert is None:
        return ZeroSearchResult("absent", None, "linear_feasibility")
    return ZeroSearchResult("found", cert, "linear_feasibility")


def verify_zero_on_all_elements(cert: ZeroCertificate, sg: TransSemigroup) -> int:
    """Q M = M Q = Q for every element pushforward; returns check count."""
    q = cert.matrix
    count = 0
    for t in sg.elements:
        a = adjoint_matrix(t)
        if a @ q != q or q @ a != q:
            raise AssertionError(f"zero identity fails on element {t.images}")
        count += 2
    return count


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
    multiplicative on all element pairs.
    """
    for name, g in sys.generators:
        pushed = Measure(adjoint_matrix(g).apply(mu.weights))
        if pushed != mu:
            raise ValueError(f"measure is not invariant under generator {name!r}")
    restriction = restriction_epimorphism(ellis(sys, max_elements), mu.support)
    bridge = restriction.target
    mats = tuple(adjoint_matrix(t) for t in bridge.elements)
    return JacobsResult(MatrixSemigroup(mats, bridge), restriction.element_map,
                        restriction.checked_identities)


@dataclass(frozen=True)
class KernelImageCheck:
    kernel_size: int
    minimal_union: frozenset[int]
    violations: tuple[int, ...]


def kernel_image_check(sys: FiniteSystem,
                       _ellis: TransSemigroup | None = None) -> KernelImageCheck:
    """Image of every kernel element lies in the union of minimal sets."""
    sg = _ellis if _ellis is not None else ellis(sys)
    ker = kernel(sg)
    union = frozenset(x for m in minimal_sets(sys) for x in m)
    violations = tuple(
        sorted(i for i in ker if not set(sg.elements[i].images) <= union)
    )
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


def minimal_unique_check(sys: FiniteSystem, ns=(4, 8, 16, 32)) -> MinimalUniqueCheck:
    """Minimal commuting system: averaging converges and the measure is unique."""
    msets = minimal_sets(sys)
    if len(msets) != 1 or msets[0] != frozenset(range(sys.n)):
        raise ValueError("system is not minimal")
    if not sys.commuting:
        raise ValueError("this check is backed by theory only for commuting generators")
    measures = invariant_measures(sys)
    assert len(measures) == 1, (
        "minimal commuting system must be uniquely ergodic"
    )
    cert = _zero_by_cesaro_product(sys)
    # Per-generator transients bound the distance of the box average to
    # the zero: |A_N - Q| <= n * sum_g (preperiod_g + period_g) / N.
    constant = 0
    for g in sys.generator_maps:
        p, q, _ = power_periodicity(g)
        constant += p + q
    adjoints = [adjoint_matrix(g) for g in sys.generator_maps]
    net = folner_net(adjoints, ns)
    distance = net.steps[-1].matrix.max_entry_distance(cert.matrix)
    converged = distance <= Fraction(sys.n * constant, ns[-1])
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

    sg = capped = None
    ellis_size = kernel_size = None
    try:
        sg = ellis(sys, budget.max_elements)
        ellis_size = sg.size
        kernel_size = len(kernel(sg))
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
    if search.status == "found":
        weak_star = norm = Verdict.TRUE
        rank = search.certificate.rank()
        unique = Verdict.of(rank == 1)
        if sg is not None and sg.size <= VERIFY_ALL_MAX:
            verify_zero_on_all_elements(search.certificate, sg)
    elif search.status == "absent":
        weak_star = norm = Verdict.FALSE
        unique = Verdict.FALSE
        rank = None
    else:
        weak_star = norm = unique = Verdict.UNDETERMINED
        rank = None
    notes.extend(search.notes)

    # Cross-checks.  For commuting generators the equivalences are
    # theorems and any disagreement is a hard error; otherwise genuine
    # disagreement is possible and is recorded instead.
    fix_fn = fixed_space([koopman_matrix(g) for g in sys.generator_maps])
    fix_meas = fixed_space([adjoint_matrix(g) for g in sys.generator_maps])
    sep = separation_check(fix_fn, fix_meas)
    dec = decomposition_check(sys)
    if sys.commuting:
        assert search.status == "found", "commuting systems always admit a zero"
        assert sep and dec.direct_sum, (
            "fixed-space criteria must agree with the zero for commuting generators"
        )
        assert (rank == 1) == (len(measures) == 1), (
            "rank-one zero and unique invariant measure must agree"
        )
    else:
        if sep != dec.direct_sum:
            notes.append(
                f"fixed-space criteria disagree (separation {sep}, "
                f"decomposition {dec.direct_sum}); acting semigroup not amenable"
            )
        if search.status == "found" and (rank == 1) != (len(measures) == 1):
            notes.append("rank-one zero and measure count disagree; not amenable")
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

    if sg is not None:
        kernel_image_check(sys, _ellis=sg)

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
