"""Reference implementations shared by the tests; no library code calls them.

``solve`` is exact.  ``rref`` and ``lp_feasible_point`` are the earlier
elimination and phase-1 simplex, which divided ``Fraction`` rows by each
pivot instead of keeping them as integer multiples.  The subshift
references are the earlier run-by-run ``from_bits`` and ``prefix``, and the earlier window system that stored its
windows and shift edges beside the successor sets, with the
``windows_system`` that read them.  The cosgrid references are the earlier floating-point
routines, kept verbatim so that the faster ones can be required to give
the same bytes, except that the stepwise one calls ``np.multiply`` by
name, the same multiply as its earlier ``*=``, so that a test can
substitute a faulty one.  ``cayley_table`` composes image rows, independently of
the generator graphs, and ``multiplicative_on_all_pairs`` checks a map of
elements against it pair by pair.  ``abel`` is the earlier Abel mean that
summed its own power loop, ``abel_weights`` the earlier Abel net weights,
``Fraction`` powers of r over their sum, and ``power_counts`` the earlier Følner-box count
of every power in a list of all N.  ``absorbs`` is the earlier zero identity check,
one map at a time on the rows of Q, and ``absorbed`` the earlier array one,
which pushed the distinct scaled columns of any Q forward in blocks of
rows.  ``matmul``, ``convex_combination`` and
``max_entry_distance`` are the earlier ``OperatorMatrix`` product, convex sum
and distance, which multiplied, summed and subtracted ``Fraction`` entries
whether or not a matrix is a pushforward.  ``power`` is the earlier
``Transformation.power``, one composition per factor.
"""

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ergoscope import rational
from ergoscope.cosgrid import GridLimitReport, GridModel, iterate_adjoint, pi_projection
from ergoscope.nets import AbelMean, _power_bound, matrix_powers
from ergoscope.operators import OperatorMatrix
from ergoscope.rational import ONE, ZERO, Row
from ergoscope.subshift import BinaryWord, Window
from ergoscope.systems import FiniteSystem
from ergoscope.transforms import Transformation, TransSemigroup, _keys


def cayley_table(sg: TransSemigroup) -> np.ndarray:
    """table[i, j] = index of elements[i] o elements[j] (m x m)."""
    keys = _keys(sg.images)
    return np.stack([np.searchsorted(keys, _keys(sg.images[:, sg.images[j]]))
                     for j in range(sg.size)], axis=1)


def multiplicative_on_all_pairs(sg: TransSemigroup, images: np.ndarray) -> bool:
    """Whether elements[i] -> images[i] maps every product s o t to images[s] o images[t]."""
    table = cayley_table(sg)
    return all(np.array_equal(images[table[:, t]], images[:, images[t]])
               for t in range(sg.size))


def abel(m: OperatorMatrix, r, tail_tol) -> AbelMean:
    """Truncated Abel mean (r-1) * sum r^-(n+1) M^n with a tail bound."""
    r = Fraction(r)
    tail_tol = Fraction(tail_tol)
    if r <= 1:
        raise ValueError("Abel means need r > 1")
    if tail_tol <= 0:
        raise ValueError("Abel means need tail_tol > 0")
    bound = _power_bound(m)
    terms = 0
    remainder = bound  # bound * r^-terms
    while remainder > tail_tol:
        terms += 1
        remainder = remainder / r
    terms = max(terms, 1)
    acc = OperatorMatrix.zeros(m.n)
    coeff = (r - 1) / r
    for power in matrix_powers(m, terms):
        acc = acc + power.scale(coeff)
        coeff = coeff / r
    return AbelMean(acc, terms, bound / r**terms)


def abel_weights(r: Fraction, terms: int) -> list[Fraction]:
    """r^-(k+1) / (sum of them) for k < terms."""
    raw = [r ** -(k + 1) for k in range(terms)]
    total = sum(raw)
    return [w / total for w in raw]


def power(t: Transformation, k: int) -> Transformation:
    """t composed k times, one composition at a time."""
    result = Transformation.identity(t.degree)
    for _ in range(k):
        result = t.compose(result)
    return result


def power_counts(m: OperatorMatrix, n: int) -> Counter:
    """How often each power occurs among M^0, ..., M^(n-1), counted in the list of all n."""
    return Counter(matrix_powers(m, n))


def absorbs(q: OperatorMatrix, images: Sequence[int]) -> bool:
    """A_t Q = Q A_t = Q, exactly, for the map t with these images.

    Column c of A_t is the point mass at t(c), so column c of Q A_t is
    column t(c) of Q, and row r of A_t Q is the sum of the rows x of Q
    with t(x) = r.
    """
    rows = q.rows
    if any(row[t] != row[c] for row in rows for c, t in enumerate(images)):
        return False
    sums = [[0] * len(rows) for _ in rows]
    for x, r in enumerate(images):
        sums[r] = [a + b for a, b in zip(sums[r], rows[x])]
    return all(tuple(s) == row for s, row in zip(sums, rows))


PUSH_BLOCK = 1 << 20                     # entries per pushforward block in absorbed


def absorbed(q: OperatorMatrix, images: np.ndarray) -> np.ndarray:
    """Which maps t, one per row of ``images``, give A_t Q = Q A_t = Q, exactly.

    Column c of A_t is the point mass at t(c), so column c of Q A_t is
    column t(c) of Q: Q A_t = Q iff t keeps every column's label.  Column
    v of A_t Q is the pushforward of v by t, so A_t Q = Q iff t pushes
    each distinct column onto itself.  A column's label is its column of
    ``OperatorMatrix.integer_rows``, the entries times one common
    denominator.  The distinct ones are pushed forward by one indexed add
    per block of rows.  No partial sum exceeds a column's scaled absolute
    sum, so the block is int64 when every such sum lies below 2**63 and
    holds Python integers otherwise.
    """
    labels: dict[tuple[int, ...], int] = {}
    lab = np.array([labels.setdefault(col, len(labels)) for col in zip(*q.integer_rows[1])])
    ok = (lab[images] == lab).all(axis=1)
    scaled = list(labels)
    wide = max(sum(map(abs, col)) for col in scaled) >= 2 ** 63
    cols = np.array(scaled, dtype=object if wide else np.int64).T
    n, k = cols.shape
    rows = np.flatnonzero(ok)
    step = max(1, PUSH_BLOCK // (n * k))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        pushed = np.zeros((len(block), n, k), dtype=cols.dtype)
        np.add.at(pushed, (np.arange(len(block))[:, None], images[block]), cols)
        ok[block] = (pushed == cols).all(axis=(1, 2))
    return ok


def matmul(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """A B by ``rational.mat_mul``, for every pair of matrices."""
    return OperatorMatrix(rational.mat_mul(a.rows, b.rows))


def convex_combination(weighted) -> OperatorMatrix:
    """Exact sum of (matrix, weight) pairs: the weights of equal matrices are
    added, then one sparse ``mat_mul`` of the weight row and the flattened
    distinct matrices gives every entry."""
    weighted = [(m, Fraction(w)) for m, w in weighted]
    total = sum(w for _, w in weighted)
    if total != 1 or any(w < 0 for _, w in weighted):
        raise ValueError("weights must be nonnegative and sum to 1")
    merged: dict[OperatorMatrix, Fraction] = {}
    for m, w in weighted:
        merged[m] = merged.get(m, ZERO) + w
    flat = [tuple(x for row in m.rows for x in row) for m in merged]
    (sums,) = rational.mat_mul([tuple(merged.values())], flat)
    n = weighted[0][0].n
    return OperatorMatrix(tuple(sums[i:i + n] for i in range(0, n * n, n)))


def max_entry_distance(a: OperatorMatrix, b: OperatorMatrix) -> Fraction:
    """The largest entry of |A - B|, by ``Fraction`` subtraction."""
    return max((abs(x) for row in (a - b).rows for x in row), default=ZERO)


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


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return ()
    n_cols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rational.rref(aug)
    if n_cols in pivots:
        return None
    x = [ZERO] * n_cols
    for row, pc in zip(reduced, pivots):
        x[pc] = Fraction(row[n_cols], row[pc])
    return tuple(x)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def lp_feasible_point(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Row | None:
    """Exact phase-1 simplex: some x >= 0 with A x = b, or None.

    Dense tableau with Bland's rule, so it terminates on every input.
    Intended for small systems (dozens of rows/columns).  Redundant rows
    go first, so that every artificial can leave the basis: zero and
    repeated rows of [A | b] before the elimination, the rest by it.  The
    reduced echelon form depends only on the row space, so the tableau
    and the point returned do not depend on row order or repeats.
    """
    if not rows:
        return ()
    n = len(rows[0])
    distinct = dict.fromkeys((*row, bi) for row, bi in zip(rows, rhs))
    reduced, pivots = rref([list(map(Fraction, row)) for row in distinct if any(row)])
    if n in pivots:
        return None
    rows2 = [r for r in reduced if any(x != 0 for x in r)]
    a = [r[:n] for r in rows2]
    b = [r[n] for r in rows2]
    for i in range(len(a)):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    m = len(a)
    if m == 0:
        return tuple([ZERO] * n)
    # Tableau columns: n structural + m artificial + rhs.
    tab = [a[i] + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # Reduced costs for minimizing the sum of artificials: 0 on the basic
    # artificials, minus the column sums elsewhere, -sum b at the right.
    cost = [ZERO] * n + [ONE] * m + [ZERO]
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    while True:
        enter = next(
            (j for j in range(n + m) if cost[j] < 0 and j not in basis), None
        )
        if enter is None:
            break
        ratios = [
            (tab[i][n + m] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            break
        _, _, leave = min(ratios)  # Bland: smallest ratio, then smallest basis index
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if -cost[n + m] != 0:
        return None
    x = [ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][n + m]
    return tuple(x)


def iterate_stepwise(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """n single steps, asserting bit-exact pi-mass invariance at each."""
    out = mu.astype(float)
    pi_mass = out[model.pi_indices].view(np.uint64)
    for _ in range(n):
        np.multiply(out, model.diagonal, out=out)
        assert np.array_equal(out[model.pi_indices].view(np.uint64), pi_mass)
    return out


def cesaro_adjoint(model: GridModel, mu: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_{k<n} D^k mu via the closed geometric form per entry."""
    if n < 1:
        raise ValueError("need n >= 1")
    d = model.diagonal
    sums = np.empty_like(d)
    ones = d == 1.0
    sums[ones] = float(n)
    dn = d[~ones]
    sums[~ones] = (1.0 - dn**n) / (1.0 - dn)
    return mu * sums / n


def weak_star_limit_check(model: GridModel, mu: np.ndarray, tol: float,
                          max_n: int = 10**14) -> GridLimitReport:
    """Raw powers and Cesàro averages against the pi projection."""
    target = pi_projection(model, mu)
    n_power = n_cesaro = None
    n = 1
    power_dist = cesaro_dist = float("inf")
    while n <= max_n and (n_power is None or n_cesaro is None):
        if n_power is None:
            power_dist = float(np.sum(np.abs(iterate_adjoint(model, mu, n) - target)))
            if power_dist <= tol:
                n_power = n
        if n_cesaro is None:
            cesaro_dist = float(np.sum(np.abs(cesaro_adjoint(model, mu, n) - target)))
            if cesaro_dist <= tol:
                n_cesaro = n
        n *= 2
    return GridLimitReport(
        converged=n_power is not None and n_cesaro is not None,
        n_power=n_power,
        n_cesaro=n_cesaro,
        power_distance=power_dist,
        cesaro_distance=cesaro_dist,
        limit_is_probability=bool(abs(float(np.sum(target)) - 1.0) <= tol),
    )


def from_bits(bits) -> BinaryWord:
    """BinaryWord.from_bits, extending the last run one symbol at a time."""
    runs: list[list[int]] = []
    for b in bits:
        b = int(b)
        if runs and runs[-1][0] == b:
            runs[-1][1] += 1
        else:
            runs.append([b, 1])
    return BinaryWord(tuple((b, c) for b, c in runs))


def prefix(word: BinaryWord, n: int) -> BinaryWord:
    """word.prefix(n), taking whole runs until n symbols are covered."""
    runs = []
    remaining = n
    for bit, length in word.runs:
        take = min(length, remaining)
        runs.append((bit, take))
        remaining -= take
        if remaining == 0:
            break
    return BinaryWord(tuple(runs))


@dataclass
class StoredWindowSystem:
    """A window system storing its windows and shift edges beside the successor sets."""

    window: int
    windows: frozenset[Window]
    shift_edges: dict[Window, Window]
    successors: dict[Window, frozenset[Window]]


def window_system(window: int, successors: dict) -> StoredWindowSystem:
    edges = {w: next(iter(s)) for w, s in successors.items() if len(s) == 1}
    return StoredWindowSystem(window, frozenset(successors), edges, successors)


def windows_system(ws: StoredWindowSystem) -> FiniteSystem:
    """The two extreme selections from the successor relation, by selection dicts."""
    ordered_windows = sorted(ws.windows)
    labels = tuple("".join(map(str, w)) for w in ordered_windows)
    order = {w: i for i, w in enumerate(ordered_windows)}
    ambiguous = [w for w in ordered_windows if len(ws.successors[w]) > 1]

    def images_for(selection: dict) -> Transformation:
        images = []
        for w in ordered_windows:
            if w in selection:
                target = selection[w]
            elif ws.successors[w]:
                target = next(iter(ws.successors[w]))
            else:
                target = w
            images.append(order[target])
        return Transformation(tuple(images))

    chosen = [
        ("low", {w: min(ws.successors[w]) for w in ambiguous}),
        ("high", {w: max(ws.successors[w]) for w in ambiguous}),
    ]
    generators = []
    seen = set()
    for name, sel in chosen:
        t = images_for(sel)
        if t not in seen:
            seen.add(t)
            generators.append((name, t))
    return FiniteSystem(labels, tuple(generators), name=f"windows-W{ws.window}")
