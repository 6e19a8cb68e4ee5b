"""Truncated binary subshifts scanned through run-length encoding.

Long words are kept as (bit, length) runs: the built-in block word has
runs of 10^N zeros, so factor scanning must never materialize the word.
Every length-W factor of a word either sits inside one run (a constant
window) or starts within W-1 positions of a run boundary.  The scan
merges those starts into maximal intervals and copies each interval's
symbols once, as a bytes string with one 0/1 byte per symbol; every
window is then a slice of it.  So the scan takes O(runs * W) Python-level
steps however long the runs are, and its O(runs * W^2) symbol copies and
hashes run in C.  A bytes window caches its hash, so each later set or
dict lookup of it costs O(1) rather than W symbols.  Bytes order equals
0/1-tuple order, so results convert to tuples only where they are
reported, in the same order.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby

from .rational import integer_form
from .systems import FiniteSystem, strong_components
from .transforms import Transformation, check_int

MAX_PREFIX_LENGTH = 10**8

Window = tuple[int, ...]
_SYMBOL = (b"\x00", b"\x01")


@dataclass(frozen=True)
class BinaryWord:
    """A finite 0/1 word, stored and compared as alternating (bit, length) runs."""

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.runs:
            raise ValueError("empty word")
        for bit, length in self.runs:
            check_int(bit, "bit", 0, 2)
            check_int(length, "run length", 1)
        for (a, _), (b, _) in zip(self.runs, self.runs[1:]):
            if a == b:
                raise ValueError("runs must alternate")

    @classmethod
    def from_bits(cls, bits) -> "BinaryWord":
        return cls(tuple((b, len(list(run))) for b, run in groupby(map(int, bits))))

    @classmethod
    def from_string(cls, text: str) -> "BinaryWord":
        """The word spelled by the characters "0" and "1"; any other raises."""
        bad = re.search("[^01]", text)
        if bad:
            raise ValueError(f"bit {bad.group()!r} at position {bad.start()} is not '0' or '1'")
        return cls.from_bits(text)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """Offset of each run, then the word length."""
        return tuple(accumulate((length for _, length in self.runs), initial=0))

    @property
    def length(self) -> int:
        return self.starts[-1]

    def bit(self, i: int) -> int:
        return self.segment(i, 1)[0]

    def segment(self, start: int, length: int) -> bytes:
        """word[start : start+length] with one 0/1 byte per symbol.

        The one materializer: each run it touches is copied once, so it
        costs the length plus the runs crossed.
        """
        check_int(length, "length", 0)
        end = start + length
        if start < 0 or end > self.length:
            raise IndexError((start, length))
        check_int(start, "start", 0)  # after the range check: a bad position stays an IndexError
        starts = self.starts
        k = bisect_right(starts, start) - 1
        parts = []
        while start < end:
            stop = min(starts[k + 1], end)
            parts.append(_SYMBOL[self.runs[k][0]] * (stop - start))
            start = stop
            k += 1
        return b"".join(parts)

    def factor(self, start: int, length: int) -> Window:
        """The factor word[start : start+length] as a 0/1 tuple."""
        return tuple(self.segment(start, length))

    def prefix(self, n: int) -> "BinaryWord":
        check_int(n, "prefix length", 1, self.length + 1)
        k = bisect_left(self.starts, n)  # the runs starting before n
        bit, _ = self.runs[k - 1]
        return BinaryWord(self.runs[:k - 1] + ((bit, n - self.starts[k - 1]),))

    def bits(self) -> list[int]:
        """Materialize; refuse absurd sizes."""
        if self.length > 10**7:
            raise MemoryError("word too long to materialize")
        return list(self.segment(0, self.length))


def block_boundary(n: int) -> int:
    """Start offset k(N) of the N-th block of ones, in closed form."""
    check_int(n, "n", 1)
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
    check_int(length, "prefix length", 1, MAX_PREFIX_LENGTH + 1)
    runs = []
    total = 0
    n = 1
    while total < length:
        assert block_boundary(n) == block_boundary_sum(n) == total
        runs.append((1, n))
        runs.append((0, 10**n))
        total += n + 10**n
        n += 1
    return BinaryWord(tuple(runs)).prefix(length)


@dataclass(frozen=True)
class WindowSystem:
    """The length-W factors of a word as their observed successor relation.

    ``successors`` maps every length-W factor to the factors seen right
    after it; only the word's last window may have none.  ``windows`` and
    ``shift_edges`` are read off it: a window's shift edge is its
    successor when every occurrence in the source word agrees on it.
    """

    window: int
    successors: dict[Window, frozenset[Window]]

    @cached_property
    def windows(self) -> frozenset[Window]:
        return frozenset(self.successors)

    @cached_property
    def shift_edges(self) -> dict[Window, Window]:
        return {w: next(iter(s)) for w, s in self.successors.items() if len(s) == 1}


def _crossing_segments(word: BinaryWord, width: int, limit: int) -> list[tuple[int, bytes]]:
    """Starts below ``limit`` whose window of that width crosses a run boundary.

    The starts come as maximal intervals, each given by its first start
    and the symbols that every window starting in it covers.  ``limit`` is
    at most ``word.length - width + 1``, so every such window lies inside
    the word.
    """
    intervals: list[list[int]] = []
    for boundary in word.starts[1:-1]:
        lo, hi = max(0, boundary - width + 1), min(boundary, limit)
        if lo >= hi:
            continue
        if intervals and lo <= intervals[-1][1]:
            intervals[-1][1] = hi  # boundaries ascend, so hi never falls
        else:
            intervals.append([lo, hi])
    return [(lo, word.segment(lo, hi - lo + width - 1)) for lo, hi in intervals]


def _successors(word: BinaryWord, window: int) -> dict[bytes, frozenset[bytes]]:
    """Every length-W factor as bytes, with the successors it is seen with.

    One scan of the (W+1)-factors gives every edge.  Their W-prefixes are
    all the W-factors except the last one, which starts at length - W.
    """
    check_int(window, "window", 1, word.length + 1)
    width = window + 1
    longer = {_SYMBOL[bit] * width for bit, run_len in word.runs if run_len >= width}
    for _, symbols in _crossing_segments(word, width, word.length - window):
        longer.update(symbols[p:p + width] for p in range(len(symbols) - window))
    successors: dict[bytes, set[bytes]] = {word.segment(word.length - window, window): set()}
    for f in longer:
        successors.setdefault(f[:window], set()).add(f[1:])
    return {w: frozenset(s) for w, s in successors.items()}


def window_closure(word: BinaryWord, window: int) -> WindowSystem:
    """All length-W factors as 0/1 tuples, with successor edges where determined.

    A tuple view of the bytes-keyed scan that :func:`classify_subshift`
    runs; the windows are converted once, after the scan.
    """
    return WindowSystem(window, {
        tuple(w): frozenset(map(tuple, s)) for w, s in _successors(word, window).items()
    })


def fixed_windows(ws: WindowSystem) -> list[Window]:
    """Constant windows: the W-resolution shadows of shift-fixed points."""
    return sorted(w for w in ws.windows if w == w[:1] * len(w))


def _unique_successor_cycles(ws: WindowSystem) -> list[frozenset[Window]]:
    """The components of the shift edges that hold a cycle: out of each window
    goes one edge at most, so a component holds one iff its edges stay in it."""
    edges = ws.shift_edges
    found = strong_components(ws.windows, lambda w: [edges[w]] if w in edges else [])
    return sorted((frozenset(c) for c in found if edges.get(c[0]) in c), key=sorted)


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

    The windows stay bytes throughout; only the reported ``fixed`` and
    ``minimal_candidates`` become tuples, in the same sorted order.
    """
    ws = WindowSystem(window, _successors(word, window))
    fixed = fixed_windows(ws)
    candidates = _unique_successor_cycles(ws)
    cycled = {w for c in candidates for w in c}
    candidates += [frozenset((w,)) for w in fixed if w not in cycled]
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
    return SubshiftReport(window, word.length, tuple(map(tuple, fixed)),
                          tuple(frozenset(map(tuple, c)) for c in candidates),
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
        if len(window) < self.depth:
            raise ValueError(f"window of length {len(window)} is shorter than depth {self.depth}")
        idx = 0
        for b in window[: self.depth]:
            idx = idx * 2 + b
        return self.values[idx]


FIRST_COORDINATE = CylinderFunction(1, (Fraction(0), Fraction(1)))


def cesaro_trace(word: BinaryWord, f: CylinderFunction, n_list) -> list[Fraction]:
    """Exact averages (1/N) sum_{n<N} f(shift^n word) for each N.

    Needs max(N) + max(depth, 1) - 1 <= word length so every window is observed.
    The values of f are read as integers over their least common
    denominator, so each N sums integers and builds one ``Fraction``.
    """
    n_list = list(n_list)
    depth = f.depth
    span = max(depth, 1)
    if not n_list:
        return []
    for n in n_list:
        check_int(n, "N", 1)
    if max(n_list) + span - 1 > word.length:
        raise ValueError("word too short for the requested trace")
    den, numerators = integer_form(f.values)
    g = CylinderFunction(depth, numerators)
    crossing = {}
    for lo, symbols in _crossing_segments(word, depth, max(n_list)):
        crossing.update((lo + p, g(symbols[p:p + depth]))
                        for p in range(len(symbols) - depth + 1))
    f_const = {0: g((0,) * depth), 1: g((1,) * depth)}
    starts = word.starts
    by_n = {}
    for n in set(n_list):
        total = sum(v for p, v in crossing.items() if p < n)
        # A window starting in [lo, hi - span] lies inside the run
        # [lo, hi), so it is no crossing position.
        for lo, hi, (bit, _) in zip(starts, starts[1:], word.runs):
            if lo >= n:
                break
            count = min(hi - span, n - 1) - lo + 1
            if count > 0:
                total += count * f_const[bit]
        by_n[n] = Fraction(total, den * n)
    return [by_n[n] for n in n_list]


def trace_csv_rows(n_list, values) -> list[tuple[str, str, str]]:
    return [(str(n), str(v), repr(float(v))) for n, v in zip(n_list, values)]


def windows_system(ws: WindowSystem) -> FiniteSystem:
    """The truncation as a finite system on windows.

    The observed successor relation is generally not a function (a long
    zero run can continue or end), so the generators are its two extreme
    selections: "low" sends each window to its smallest successor and
    "high" to its largest, and a window with no observed successor fixes
    itself.  "high" is kept only when it differs from "low", that is,
    when some window has two successors.  Iterating them realizes the
    constant maps onto the constant windows.
    """
    ordered = sorted(ws.windows)
    order = {w: i for i, w in enumerate(ordered)}

    def extreme(pick) -> Transformation:
        return Transformation(tuple(order[pick(ws.successors[w], default=w)] for w in ordered))

    low, high = extreme(min), extreme(max)
    generators = [("low", low)]
    if high != low:
        generators.append(("high", high))
    labels = tuple("".join(map(str, w)) for w in ordered)
    return FiniteSystem(labels, tuple(generators), name=f"windows-W{ws.window}")
