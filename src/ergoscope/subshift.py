"""Truncated binary subshifts scanned through run-length encoding.

Long words are kept as (bit, length) runs: the built-in block word has
runs of 10^N zeros, so factor scanning must never materialize symbols.
Every length-W factor of a word either sits inside one run (a constant
window) or starts within W-1 positions of a run boundary, so the scan
cost is O(runs * W^2) regardless of word length.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .systems import FiniteSystem
from .transforms import Transformation

MAX_PREFIX_LENGTH = 10**8

Window = tuple[int, ...]


@dataclass(frozen=True)
class BinaryWord:
    """A finite 0/1 word stored as alternating (bit, length) runs."""

    runs: tuple[tuple[int, int], ...]
    origin: str = "user"

    def __post_init__(self):
        if not self.runs:
            raise ValueError("empty word")
        for bit, length in self.runs:
            if bit not in (0, 1) or length < 1:
                raise ValueError(f"bad run {(bit, length)}")
        for (a, _), (b, _) in zip(self.runs, self.runs[1:]):
            if a == b:
                raise ValueError("runs must alternate")

    @classmethod
    def from_bits(cls, bits, origin: str = "user") -> "BinaryWord":
        runs: list[list[int]] = []
        for b in bits:
            b = int(b)
            if runs and runs[-1][0] == b:
                runs[-1][1] += 1
            else:
                runs.append([b, 1])
        return cls(tuple((b, c) for b, c in runs), origin)

    @classmethod
    def from_string(cls, text: str, origin: str = "user") -> "BinaryWord":
        return cls.from_bits((int(c) for c in text), origin)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """Offset of each run, then the word length."""
        return tuple(accumulate((length for _, length in self.runs), initial=0))

    @property
    def length(self) -> int:
        return self.starts[-1]

    def bit(self, i: int) -> int:
        if not (0 <= i < self.length):
            raise IndexError(i)
        return self.runs[bisect_right(self.starts, i) - 1][0]

    def factor(self, start: int, length: int) -> Window:
        """The factor word[start : start+length], materialized."""
        if start < 0 or start + length > self.length:
            raise IndexError((start, length))
        starts = self.starts
        out = []
        i = start
        k = bisect_right(starts, i) - 1
        while len(out) < length:
            take = min(starts[k + 1] - i, length - len(out))
            out.extend([self.runs[k][0]] * take)
            i += take
            k += 1
        return tuple(out)

    def prefix(self, n: int) -> "BinaryWord":
        if not (1 <= n <= self.length):
            raise ValueError(f"prefix length {n} out of range")
        runs = []
        remaining = n
        for bit, length in self.runs:
            take = min(length, remaining)
            runs.append((bit, take))
            remaining -= take
            if remaining == 0:
                break
        return BinaryWord(tuple(runs), self.origin)

    def bits(self) -> list[int]:
        """Materialize; refuse absurd sizes."""
        if self.length > 10**7:
            raise MemoryError("word too long to materialize")
        out = []
        for bit, length in self.runs:
            out.extend([bit] * length)
        return out


def block_boundary(n: int) -> int:
    """Start offset k(N) of the N-th block of ones, in closed form."""
    if n < 1:
        raise ValueError("n >= 1")
    return n * (n - 1) // 2 + 10 * (10 ** (n - 1) - 1) // 9


def block_boundary_sum(n: int) -> int:
    """The same offset by direct summation (independent oracle)."""
    return sum(k + 10**k for k in range(1, n))


def rolandex_prefix(length: int) -> BinaryWord:
    """First symbols of the block word: N ones then 10^N zeros, N = 1, 2, ...

    Symbol k(N)+1 .. k(N)+N is one and the rest of the N-th block is
    zero.  The closed-form and summation forms of the block offsets are
    checked against each other for every block the prefix touches.
    """
    if not (1 <= length <= MAX_PREFIX_LENGTH):
        raise ValueError(f"prefix length must be in [1, {MAX_PREFIX_LENGTH}]")
    runs = []
    total = 0
    n = 1
    while total < length:
        assert block_boundary(n) == block_boundary_sum(n) == total
        runs.append((1, n))
        runs.append((0, 10**n))
        total += n + 10**n
        n += 1
    return BinaryWord(tuple(runs), origin="rolandex").prefix(length)


@dataclass
class WindowSystem:
    """All length-W factors of a word plus the determined shift edges.

    ``shift_edges`` maps a window to its successor factor only when every
    occurrence in the source word agrees on it.
    """

    window: int
    windows: frozenset[Window]
    shift_edges: dict[Window, Window]
    successors: dict[Window, frozenset[Window]]


def _crossing_positions(word: BinaryWord, width: int, limit: int) -> set[int]:
    """Starts below ``limit`` whose window of that width crosses a run boundary.

    ``limit`` is at most ``word.length - width + 1``, so every such window
    lies inside the word.
    """
    positions: set[int] = set()
    for boundary in word.starts[1:-1]:
        positions.update(range(max(0, boundary - width + 1), min(boundary, limit)))
    return positions


def window_closure(word: BinaryWord, window: int) -> WindowSystem:
    """All length-W factors, with successor edges where determined.

    One scan of the (W+1)-factors gives every edge.  Their W-prefixes are
    all the W-factors except the last one, which starts at length - W.
    """
    if not (1 <= window <= word.length):
        raise ValueError("window must be between 1 and the word length")
    width = window + 1
    limit = word.length - window
    longer = {word.factor(p, width) for p in _crossing_positions(word, width, limit)}
    longer.update((bit,) * width for bit, run_len in word.runs if run_len >= width)
    successors: dict[Window, set[Window]] = {word.factor(limit, window): set()}
    for f in longer:
        successors.setdefault(f[:window], set()).add(f[1:])
    succ = {w: frozenset(s) for w, s in successors.items()}
    edges = {w: next(iter(s)) for w, s in succ.items() if len(s) == 1}
    return WindowSystem(window, frozenset(succ), edges, succ)


def fixed_windows(ws: WindowSystem) -> list[Window]:
    """Constant windows: the W-resolution shadows of shift-fixed points."""
    return sorted(w for w in ws.windows if len(set(w)) == 1)


def _unique_successor_cycles(ws: WindowSystem) -> list[frozenset[Window]]:
    """Orbits returning to their start along uniquely determined edges.

    Each window is walked once: a walk stops at a window an earlier walk
    has passed, and closes a cycle only when it meets its own path.
    """
    cycles = []
    done: set[Window] = set()
    for start in ws.windows:
        path: dict[Window, int] = {}
        current = start
        while current in ws.shift_edges and current not in done:
            done.add(current)
            path[current] = len(path)
            current = ws.shift_edges[current]
        if current in path:
            cycles.append(frozenset(list(path)[path[current]:]))
    return sorted(cycles, key=sorted)


@dataclass(frozen=True)
class SubshiftReport:
    window: int
    horizon: int
    fixed: tuple[Window, ...]
    minimal_candidates: tuple[frozenset[Window], ...]
    weak_star_mean_ergodic: str  # "false" | "undetermined", resolution-qualified
    note: str


def classify_subshift(word: BinaryWord, window: int) -> SubshiftReport:
    """Count minimal-set candidates visible at this resolution.

    Candidates are the cycles of uniquely determined successors (periodic
    orbits the prefix certifies) together with constant windows not lying
    on such a cycle (shadows of fixed points whose return edge sits past
    the horizon).  Two or more disjoint candidates inside one orbit
    closure refute weak* mean ergodicity at this resolution; one
    candidate certifies nothing, so the verdict is never an absolute
    claim about the infinite system.
    """
    ws = window_closure(word, window)
    fixed = tuple(fixed_windows(ws))
    candidates = list(_unique_successor_cycles(ws))
    cycled = {w for c in candidates for w in c}
    for w in fixed:
        if w not in cycled:
            candidates.append(frozenset((w,)))
    flat = [w for c in candidates for w in c]
    assert len(flat) == len(set(flat)), "candidates must be disjoint"
    if len(candidates) >= 2:
        verdict = "false"
        note = (
            f"{len(candidates)} disjoint minimal candidates in one orbit "
            f"closure at resolution W={window}: not weak* mean ergodic "
            f"(resolution-qualified)"
        )
    elif len(candidates) == 1:
        verdict = "undetermined"
        note = (
            f"single minimal candidate at resolution W={window}: consistent "
            f"with weak* mean ergodicity, not certified"
        )
    else:
        verdict = "undetermined"
        note = f"no candidate resolved at W={window}: resolution too coarse"
    return SubshiftReport(window, word.length, fixed, tuple(candidates),
                          verdict, note)


@dataclass(frozen=True)
class CylinderFunction:
    """A function of the first ``depth`` coordinates, tabulated."""

    depth: int
    values: tuple[Fraction, ...]  # indexed by the window read as binary

    def __post_init__(self):
        if len(self.values) != 2**self.depth:
            raise ValueError("need one value per length-depth 0/1 word")

    def __call__(self, window: Window) -> Fraction:
        idx = 0
        for b in window[: self.depth]:
            idx = idx * 2 + b
        return self.values[idx]


FIRST_COORDINATE = CylinderFunction(1, (Fraction(0), Fraction(1)))


def cesaro_trace(word: BinaryWord, f: CylinderFunction, n_list) -> list[Fraction]:
    """Exact averages (1/N) sum_{n<N} f(shift^n word) for each N.

    Needs max(N) + depth - 1 <= word length so every window is observed.
    """
    n_list = list(n_list)
    depth = f.depth
    if not n_list:
        return []
    if min(n_list) < 1:
        raise ValueError("need N >= 1")
    if max(n_list) + depth - 1 > word.length:
        raise ValueError("word too short for the requested trace")
    crossing = {p: f(word.factor(p, depth))
                for p in _crossing_positions(word, depth, max(n_list))}
    f_const = {0: f((0,) * depth), 1: f((1,) * depth)}
    starts = word.starts
    by_n = {}
    for n in set(n_list):
        total = sum((v for p, v in crossing.items() if p < n), Fraction(0))
        # A window starting in [lo, hi - depth] lies inside the run
        # [lo, hi), so it is no crossing position.
        for lo, hi, (bit, _) in zip(starts, starts[1:], word.runs):
            if lo >= n:
                break
            count = min(hi - depth, n - 1) - lo + 1
            if count > 0:
                total += count * f_const[bit]
        by_n[n] = total / n
    return [by_n[n] for n in n_list]


def trace_csv_rows(n_list, values) -> list[tuple[str, str, str]]:
    return [(str(n), str(v), repr(float(v))) for n, v in zip(n_list, values)]


def windows_system(ws: WindowSystem) -> FiniteSystem:
    """The truncation as a finite system on windows.

    The observed successor relation is generally not a function (a long
    zero run can continue or end), so generators are total selections
    from the relation; windows with no observed successor fall back to
    fixing themselves.  The generators are the two extreme selections,
    resolving every ambiguity toward the smallest (resp. largest)
    successor; iterating them realizes the constant maps onto the
    constant windows.
    """
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
