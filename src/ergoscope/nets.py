"""Ergodic net engines: Cesàro, Abel, and Følner-box averages.

A net sample is a finite run of averages drawn from the convex hull of a
matrix semigroup.  Every step records the convex combination it stands
for, and its matrix is that combination, so membership in the hull is
checkable after the fact.  Cesàro nets are one-generator Følner nets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .operators import OperatorMatrix, convex_combination
from .rational import ZERO, max_abs


def matrix_powers(m: OperatorMatrix, count: int) -> list[OperatorMatrix]:
    """[I, M, M^2, ..., M^(count-1)]."""
    powers = [OperatorMatrix.identity(m.n)]
    for _ in range(count - 1):
        powers.append(powers[-1] @ m)
    return powers


def cesaro(m: OperatorMatrix, n: int) -> OperatorMatrix:
    """Exact (1/N) sum of the first N powers; cesaro(M, 1) = I."""
    if n < 1:
        raise ValueError("need N >= 1")
    return convex_combination((p, Fraction(1, n)) for p in matrix_powers(m, n))


def _power_bound(m: OperatorMatrix) -> Fraction:
    if m.row_stochastic:
        return Fraction(1)
    if m.diagonal and all(0 <= m.rows[i][i] <= 1 for i in range(m.n)):
        return Fraction(1)
    raise ValueError(
        "no a-priori power bound for this matrix; Abel means need one"
    )


@dataclass(frozen=True)
class AbelMean:
    matrix: OperatorMatrix
    terms: int
    tail_bound: Fraction


def abel(m: OperatorMatrix, r, tail_tol) -> AbelMean:
    """Truncated Abel mean (r-1) * sum r^-(n+1) M^n with a tail bound.

    Truncates once the geometric remainder is at most ``tail_tol`` in
    max-entry norm; the truncation index is reported.
    """
    r = Fraction(r)
    tail_tol = Fraction(tail_tol)
    if r <= 1:
        raise ValueError("Abel means need r > 1")
    bound = _power_bound(m)
    terms = 0
    remainder = bound  # bound * r^-terms
    while remainder > tail_tol:
        terms += 1
        remainder = remainder / r
    terms = max(terms, 1)
    acc = OperatorMatrix.zeros(m.n)
    power = OperatorMatrix.identity(m.n)
    coeff = (r - 1) / r
    for _ in range(terms):
        acc = acc + power.scale(coeff)
        power = power @ m
        coeff = coeff / r
    return AbelMean(acc, terms, bound / r**terms)


def folner_box(generators, n: int) -> OperatorMatrix:
    """Average over the box {0..N-1}^d of products of commuting matrices."""
    return folner_net(generators, [n]).steps[0].matrix


@dataclass(frozen=True)
class NetStep:
    descriptor: str
    matrix: OperatorMatrix
    combination: tuple[tuple[OperatorMatrix, Fraction], ...]

    def verify_combination(self) -> bool:
        return convex_combination(self.combination) == self.matrix


@dataclass(frozen=True)
class NetSample:
    steps: tuple[NetStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("empty net")

    def matrices(self) -> list[OperatorMatrix]:
        return [s.matrix for s in self.steps]


def cesaro_net(m: OperatorMatrix, ns, label: str = "cesaro") -> NetSample:
    return folner_net([m], ns, label)


def folner_net(generators, ns, label: str = "folner") -> NetSample:
    """Averages over the boxes {0..N-1}^d of products of commuting matrices.

    The box is summed one generator at a time, merging equal partial
    products, so the work grows with the number of distinct products.
    """
    generators = list(generators)
    ns = list(ns)
    if not generators:
        raise ValueError("need at least one generator")
    if not ns:
        raise ValueError("empty net")
    if min(ns) < 1:
        raise ValueError("need N >= 1")
    for i, a in enumerate(generators):
        for b in generators[i + 1:]:
            if a @ b != b @ a:
                raise ValueError("Følner box averages need commuting generators")
    powers = [matrix_powers(g, max(ns)) for g in generators]
    steps = []
    for n in ns:
        counts = Counter(powers[0][:n])
        for gen_powers in powers[1:]:
            distinct = Counter(gen_powers[:n])
            merged = Counter()
            for acc, c in counts.items():
                for p, k in distinct.items():
                    merged[acc @ p] += c * k
            counts = merged
        w = Fraction(1, n ** len(generators))
        combo = tuple(sorted(((m, c * w) for m, c in counts.items()),
                             key=lambda kv: kv[0].rows))
        steps.append(NetStep(f"{label} N={n}", convex_combination(combo), combo))
    return NetSample(tuple(steps))


def abel_net(m: OperatorMatrix, rs, terms: int = 24, label: str = "abel") -> NetSample:
    """Abel-style net with weights renormalized over a truncation window.

    The raw Abel sum truncates to total weight below one; renormalizing
    keeps every step an exact convex combination of powers.
    """
    steps = []
    powers = matrix_powers(m, terms)
    for r in rs:
        r = Fraction(r)
        if r <= 1:
            raise ValueError("Abel means need r > 1")
        raw = [r ** -(k + 1) for k in range(terms)]
        total = sum(raw)
        weights = [w / total for w in raw]
        combo = tuple((p, w) for p, w in zip(powers, weights))
        steps.append(NetStep(f"{label} r={r}", convex_combination(combo), combo))
    return NetSample(tuple(steps))


def constant_net(m: OperatorMatrix, combination, count: int, label: str = "const") -> NetSample:
    step = lambda i: NetStep(f"{label} #{i}", m, tuple(combination))
    return NetSample(tuple(step(i) for i in range(count)))


def interleave(a: NetSample, b: NetSample) -> NetSample:
    steps = []
    for x, y in zip(a.steps, b.steps):
        steps.append(x)
        steps.append(y)
    return NetSample(tuple(steps))


@dataclass(frozen=True)
class DefectRecord:
    descriptor: str
    generator: str
    side: str
    defect: Fraction


@dataclass(frozen=True)
class NetVerdict:
    status: str  # "ergodic" | "not_ergodic" | "undetermined"
    side: str
    trace: tuple[DefectRecord, ...]

    def worst_by_step(self) -> list[Fraction]:
        worst: dict[str, Fraction] = {}
        order = []
        for rec in self.trace:
            if rec.descriptor not in worst:
                order.append(rec.descriptor)
                worst[rec.descriptor] = rec.defect
            else:
                worst[rec.descriptor] = max(worst[rec.descriptor], rec.defect)
        return [worst[d] for d in order]


def verify_net(net: NetSample, generators, side: str, tol, window: int = 3) -> NetVerdict:
    """Check the left/right ergodic-net defects along a net sample.

    Verdict is "ergodic" if the worst defect over the trailing ``window``
    steps is at most ``tol``, "not_ergodic" if those defects sit above
    ``tol`` without improving, and "undetermined" otherwise.  A finite
    sample can never certify more than this.
    """
    if side not in ("left", "right", "two_sided"):
        raise ValueError("side must be left, right or two_sided")
    tol = Fraction(tol)
    generators = list(generators)
    named = [(f"g{i}", g) for i, g in enumerate(generators)]
    sides = ("left", "right") if side == "two_sided" else (side,)
    trace = []
    for step in net.steps:
        for gname, g in named:
            eye = OperatorMatrix.identity(g.n)
            for s in sides:
                if s == "left":
                    defect = ((eye - g) @ step.matrix)
                else:
                    defect = (step.matrix @ (eye - g))
                worst = max_abs(defect.rows)
                trace.append(DefectRecord(step.descriptor, gname, s, worst))
    verdict = NetVerdict("undetermined", side, tuple(trace))
    worst_by_step = verdict.worst_by_step()
    if len(worst_by_step) < window:
        return verdict
    tail = worst_by_step[-window:]
    if all(d <= tol for d in tail):
        status = "ergodic"
    elif all(d > tol for d in tail) and tail[-1] >= tail[0]:
        status = "not_ergodic"
    else:
        status = "undetermined"
    return NetVerdict(status, side, tuple(trace))


def detect_limit(trace, tol, window: int = 3):
    """Last element if the trailing window is tol-clustered, else None."""
    if window < 2:
        raise ValueError("window must be at least 2")
    trace = list(trace)
    if len(trace) < window:
        return None
    tol = Fraction(tol)
    tail = trace[-window:]

    def dist(a, b):
        if isinstance(a, OperatorMatrix):
            return a.max_entry_distance(b)
        return max((abs(x - y) for x, y in zip(a.weights, b.weights)), default=ZERO)

    for i, a in enumerate(tail):
        for b in tail[i + 1:]:
            if dist(a, b) > tol:
                return None
    return trace[-1]


def defect_csv_rows(verdict: NetVerdict) -> list[tuple[str, str, str, str, str]]:
    """Rows (descriptor, generator, side, defect fraction, defect float)."""
    return [
        (r.descriptor, r.generator, r.side, str(r.defect), repr(float(r.defect)))
        for r in verdict.trace
    ]
