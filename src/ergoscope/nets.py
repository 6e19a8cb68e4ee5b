"""Ergodic net engines: Cesàro, Abel, and Følner-box averages.

A net sample is a finite run of averages drawn from the convex hull of a
matrix semigroup.  Every step records the convex combination it stands
for, and its matrix is that combination, so membership in the hull is
checkable after the fact.  Cesàro nets are one-generator Følner nets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .operators import OperatorMatrix, convex_combination
from .rational import ZERO
from .transforms import check_int


def first_repeat(start, step, count: int | None = None) -> tuple[list, int]:
    """([x_0 = start, x_1 = step(x_0), ...] up to the first repeat x_j = x_i
    or ``count`` items, j - i); the period is 0 if ``count`` came first."""
    items = [start]
    index = {start: 0}
    while count is None or len(items) < count:
        nxt = step(items[-1])
        if nxt in index:
            return items, len(items) - index[nxt]
        index[nxt] = len(items)
        items.append(nxt)
    return items, 0


def matrix_powers(m: OperatorMatrix, count: int) -> list[OperatorMatrix]:
    """[I, M, ..., M^(count-1)], empty for count 0.  Each distinct power is computed
    once: from the first repeat M^j = M^i on, each power is the object j - i places back."""
    check_int(count, "count", 0)
    powers, period = first_repeat(OperatorMatrix.identity(m.n), lambda p: p @ m, count)
    while len(powers) < count:
        powers.append(powers[-period])
    return powers[:count]


def power_counts(powers: list, period: int, n: int) -> dict:
    """How often each of the ``first_repeat`` powers occurs among M^0, ..., M^(n-1):
    once before the cycle, and (n - 1 - j) // period + 1 times from place j on it."""
    start = len(powers) - period
    return {p: 1 if j < start else (n - 1 - j) // period + 1
            for j, p in enumerate(powers[:n])}


def cesaro(m: OperatorMatrix, n: int) -> OperatorMatrix:
    """Exact (1/N) sum of the first N powers; cesaro(M, 1) = I."""
    return folner_box([m], n)


def _power_bound(m: OperatorMatrix) -> Fraction:
    """1 if M >= 0 has every row sum or every column sum at most 1: products
    keep both, so every power of M has entries in [0, 1].  Pushforwards qualify."""
    if all(x >= 0 for row in m.rows for x in row) and any(
            all(sum(line) <= 1 for line in lines) for lines in (m.rows, zip(*m.rows))):
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

    Needs the power bound of :func:`_power_bound`, and truncates at the
    least ``terms`` >= 1 whose geometric remainder is at most ``tail_tol``
    in max-entry norm.  The truncated weights sum to 1 - r^-terms, so the
    sum is that total times the :func:`abel_net` step at r over ``terms``
    powers, which renormalizes the same weights.
    """
    r = Fraction(r)
    tail_tol = Fraction(tail_tol)
    if r <= 1:
        raise ValueError("Abel means need r > 1")
    if tail_tol <= 0:
        raise ValueError("Abel means need tail_tol > 0")
    bound = _power_bound(m)
    terms, remainder = 1, bound / r  # remainder = bound * r^-terms
    while remainder > tail_tol:
        terms, remainder = terms + 1, remainder / r
    step = abel_net(m, [r], terms).steps[0]
    return AbelMean(step.matrix.scale(1 - r**-terms), terms, remainder)


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


def cesaro_net(m: OperatorMatrix, ns) -> NetSample:
    return folner_net([m], ns, "cesaro")


def folner_net(generators, ns, label: str = "folner") -> NetSample:
    """Averages over the boxes {0..N-1}^d of products of commuting matrices.

    The box is summed one generator at a time, merging equal partial
    products, so the work grows with the number of distinct products.
    Each side's N powers are counted off their cycle, never listed.
    """
    generators = list(generators)
    ns = list(ns)
    if not generators:
        raise ValueError("need at least one generator")
    if not ns:
        raise ValueError("empty net")
    for n in ns:
        check_int(n, "N", 1)
    for i, a in enumerate(generators):
        for b in generators[i + 1:]:
            if a @ b != b @ a:
                raise ValueError("Følner box averages need commuting generators")
    cycles = [first_repeat(OperatorMatrix.identity(g.n), lambda p: p @ g, max(ns))
              for g in generators]
    steps = []
    for n in ns:
        counts = power_counts(*cycles[0], n)
        for cycle in cycles[1:]:
            distinct = power_counts(*cycle, n)
            merged = Counter()
            for acc, c in counts.items():
                for p, k in distinct.items():
                    merged[acc @ p] += c * k
            counts = merged
        w = Fraction(1, n ** len(generators))
        combo = tuple((m, c * w) for m, c in counts.items())
        steps.append(NetStep(f"{label} N={n}", convex_combination(combo), combo))
    return NetSample(tuple(steps))


def abel_net(m: OperatorMatrix, rs, terms: int = 24) -> NetSample:
    """Abel-style net with weights renormalized over a truncation window.

    The raw Abel sum truncates to total weight below one; renormalizing
    keeps every step an exact convex combination of powers.  For r = a/b
    the raw weight r^-(k+1) is b^(k+1) a^(terms-1-k) / a^terms, so the
    weights are those integers over their sum.
    """
    check_int(terms, "terms", 1)
    steps = []
    powers = matrix_powers(m, terms)
    for r in rs:
        r = Fraction(r)
        if r <= 1:
            raise ValueError("Abel means need r > 1")
        a, b = r.numerator, r.denominator
        raw = [b ** (k + 1) * a ** (terms - 1 - k) for k in range(terms)]
        total = sum(raw)
        combo = tuple((p, Fraction(w, total)) for p, w in zip(powers, raw))
        steps.append(NetStep(f"abel r={r}", convex_combination(combo), combo))
    return NetSample(tuple(steps))


def constant_net(m: OperatorMatrix, combination, count: int) -> NetSample:
    check_int(count, "count", 1)
    return NetSample(tuple(NetStep(f"const #{i}", m, tuple(combination)) for i in range(count)))


def interleave(a: NetSample, b: NetSample) -> NetSample:
    """a_0, b_0, a_1, b_1, ...; nets of different lengths raise ValueError."""
    return NetSample(tuple(x for pair in zip(a.steps, b.steps, strict=True) for x in pair))


@dataclass(frozen=True)
class DefectRecord:
    step: int
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
        worst: dict[int, Fraction] = {}
        for rec in self.trace:
            worst[rec.step] = max(worst.get(rec.step, rec.defect), rec.defect)
        return list(worst.values())


def _defect(m: OperatorMatrix, g: OperatorMatrix, side: str) -> Fraction:
    """max |g M - M| (left) or |M g - M| (right) over the entries, on integers:
    with M = M'/d_M and g = G/d_g, max |G M' - d_g M'| or |M' G - d_g M'|, over
    d_g d_M.  Each row of the product starts from -d_g M' and adds only the
    products of nonzero entries, so a map's 0/1 rows cost O(n^2) on either side."""
    m._check_size(g.n)
    (dm, mi), (dg, gi) = m.integer_rows, g.integer_rows
    a, b = (gi, mi) if side == "left" else (mi, gi)
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    worst = 0
    for row, m_row in zip(a, mi):
        acc = [-dg * x for x in m_row]
        for x, b_row in zip(row, b_nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        worst = max(worst, *map(abs, acc))
    return Fraction(worst, dg * dm)


def verify_net(net: NetSample, generators, side: str, tol, window: int = 3) -> NetVerdict:
    """Check the left/right ergodic-net defects along a net sample.

    The left defect of a step M against a generator g is the largest entry
    of (I - g) M, and the right one is that of M (I - g), both computed on
    the ``integer_rows`` of M and g.  The status is read off the last
    ``window`` entries of ``worst_by_step()``: "ergodic" if all are at most
    ``tol``, "not_ergodic" if all sit above ``tol`` and the last is no
    smaller than the first, and "undetermined" otherwise, also when the net
    has fewer than ``window`` steps.  A finite sample can never certify
    more than this.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if side not in ("left", "right", "two_sided"):
        raise ValueError("side must be left, right or two_sided")
    check_int(window, "window", 1)
    tol = Fraction(tol)
    sides = ("left", "right") if side == "two_sided" else (side,)
    trace = []
    for i, step in enumerate(net.steps):
        m = step.matrix
        for k, g in enumerate(generators):
            for s in sides:
                defect = _defect(m, g, s)
                trace.append(DefectRecord(i, step.descriptor, f"g{k}", s, defect))
    verdict = NetVerdict("undetermined", side, tuple(trace))
    tail = verdict.worst_by_step()[-window:]
    if len(tail) == window and all(d <= tol for d in tail):
        return replace(verdict, status="ergodic")
    if len(tail) == window and all(d > tol for d in tail) and tail[-1] >= tail[0]:
        return replace(verdict, status="not_ergodic")
    return verdict


def detect_limit(trace, tol, window: int = 3):
    """Last element if the trailing window is tol-clustered, else None."""
    check_int(window, "window", 2)
    trace = list(trace)
    if len({isinstance(x, OperatorMatrix) for x in trace}) > 1:
        raise ValueError("trace mixes matrices and measures")
    if len(trace) < window:
        return None
    tol = Fraction(tol)
    tail = trace[-window:]

    def dist(a, b):
        if isinstance(a, OperatorMatrix):
            return a.max_entry_distance(b)
        return max((abs(x - y) for x, y in zip(a.weights, b.weights, strict=True)), default=ZERO)

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
