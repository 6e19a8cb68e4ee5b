"""The one-scan subshift routines against the two-scan definitions.

The oracles below are the earlier forms of the routines: ``window_closure``
scanning the W-factors and the (W+1)-factors separately, a cycle walk from
every window to the end of its chain, ``cesaro_trace`` subtracting the
crossing positions found inside each run, and truncating the block word's
runs by hand.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoscope import subshift
from ergoscope.subshift import (
    BinaryWord,
    CylinderFunction,
    WindowSystem,
    _unique_successor_cycles,
    block_boundary,
    cesaro_trace,
    classify_subshift,
    fixed_windows,
    rolandex_prefix,
    window_closure,
)

F = Fraction


# ---------------------------------------------------------------------------
# oracles


def old_crossing_positions(word, width, limit):
    positions = set()
    boundary = 0
    for _, run_len in word.runs[:-1]:
        boundary += run_len
        lo = max(0, boundary - width + 1)
        hi = min(boundary - 1, limit - 1)
        positions.update(range(lo, hi + 1))
    return {p for p in positions if p + width <= word.length and p < limit}


def old_factors(word, width):
    limit = word.length - width + 1
    if limit <= 0:
        return set()
    found = {word.factor(p, width) for p in old_crossing_positions(word, width, limit)}
    for bit, run_len in word.runs:
        if run_len >= width:
            found.add((bit,) * width)
    return found


def old_window_closure(word, window):
    """(windows, shift_edges, successors) from two scans."""
    windows = frozenset(old_factors(word, window))
    successors = {w: set() for w in windows}
    for f in old_factors(word, window + 1):
        successors[f[:window]].add(f[1:])
    succ = {w: frozenset(s) for w, s in successors.items()}
    edges = {w: next(iter(s)) for w, s in succ.items() if len(s) == 1}
    return windows, edges, succ


def old_cycles(windows, edges):
    cycles = set()
    for start in windows:
        seen = [start]
        index = {start: 0}
        current = start
        while current in edges:
            current = edges[current]
            if current in index:
                if current == start:
                    cycles.add(frozenset(seen[index[current]:]))
                break
            index[current] = len(seen)
            seen.append(current)
    return sorted(cycles, key=lambda c: sorted(c))


def old_candidates(word, window):
    windows, edges, _ = old_window_closure(word, window)
    fixed = sorted(w for w in windows if len(set(w)) == 1)
    candidates = old_cycles(windows, edges)
    cycled = {w for c in candidates for w in c}
    candidates += [frozenset((w,)) for w in fixed if w not in cycled]
    return tuple(fixed), tuple(candidates)


def old_cesaro_trace(word, f, n_list):
    depth = f.depth
    max_n = max(n_list)
    crossing = sorted(old_crossing_positions(word, depth, max_n))
    crossing_vals = {p: f(word.factor(p, depth)) for p in crossing}
    run_bounds = []
    start = 0
    for bit, run_len in word.runs:
        run_bounds.append((start, start + run_len, bit))
        start += run_len
    f_const = {0: f((0,) * depth), 1: f((1,) * depth)}
    out = []
    for n in n_list:
        total = Fraction(0)
        crossing_in = [p for p in crossing if p < n]
        for p in crossing_in:
            total += crossing_vals[p]
        for lo, hi, bit in run_bounds:
            if lo >= n:
                break
            last = min(hi - depth, n - 1)
            if last < lo:
                continue
            count = last - lo + 1
            inside = sum(1 for p in crossing_in if lo <= p <= last)
            total += (count - inside) * f_const[bit]
        out.append(total / n)
    return out


def old_rolandex_runs(length):
    runs = []
    total = 0
    n = 1
    while total < length:
        runs.append((1, n))
        runs.append((0, 10**n))
        total += n + 10**n
        n += 1
    out = []
    remaining = length
    for bit, run_len in runs:
        take = min(run_len, remaining)
        out.append((bit, take))
        remaining -= take
        if remaining == 0:
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# inputs


@st.composite
def run_words(draw):
    """Words of length 1..80 built from runs, some of them long."""
    bit = draw(st.integers(0, 1))
    bits = []
    while len(bits) < 80:
        bits.extend([bit] * draw(st.integers(1, 20)))
        bit = 1 - bit
        if draw(st.booleans()):
            break
    return BinaryWord.from_bits(bits[:80])


def boundary_lengths(max_block=6):
    """Lengths at and around k(N) and the end of the N-th block of ones."""
    lengths = set()
    for n in range(2, max_block + 1):
        for edge in (block_boundary(n), block_boundary(n) + n):
            lengths.update((edge - 1, edge, edge + 1))
    return sorted(lengths)


rolandex_words = st.sampled_from(boundary_lengths()).map(rolandex_prefix)
words = st.one_of(run_words(), rolandex_words)


def sized_window(word, data):
    return data.draw(st.integers(1, min(16, word.length)))


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=300, deadline=None)
@given(word=words, data=st.data())
def test_window_closure_matches_two_scans(word, data):
    window = sized_window(word, data)
    ws = window_closure(word, window)
    windows, edges, succ = old_window_closure(word, window)
    assert ws.windows == windows
    assert ws.successors == succ
    assert ws.shift_edges == edges


@settings(max_examples=300, deadline=None)
@given(word=words, data=st.data())
def test_cycles_match_every_start_walk(word, data):
    ws = window_closure(word, sized_window(word, data))
    assert _unique_successor_cycles(ws) == old_cycles(ws.windows, ws.shift_edges)


def test_cycles_single_walk_on_joined_chains():
    # Two tails feeding one 3-cycle, a separate 2-cycle and a dead end;
    # walks meet windows already done from several sides.
    a, b, c, d, e, x, y, z, dead = [(i,) for i in range(9)]
    edges = {x: a, y: x, z: a, a: b, b: c, c: a, d: e, e: d}
    ws = WindowSystem(1, {w: frozenset((t,)) for w, t in edges.items()} | {dead: frozenset()})
    assert _unique_successor_cycles(ws) == [frozenset({a, b, c}), frozenset({d, e})]
    assert _unique_successor_cycles(ws) == old_cycles(ws.windows, edges)


@settings(max_examples=300, deadline=None)
@given(word=words, data=st.data())
def test_classify_subshift_matches_two_scans(word, data):
    window = sized_window(word, data)
    report = classify_subshift(word, window)
    fixed, candidates = old_candidates(word, window)
    assert report.fixed == fixed
    assert report.minimal_candidates == candidates
    assert report.horizon == word.length
    assert list(fixed) == fixed_windows(window_closure(word, window))


@settings(max_examples=300, deadline=None)
@given(word=words, data=st.data())
def test_cesaro_trace_matches_inside_correction(word, data):
    depth = data.draw(st.integers(1, min(4, word.length)))
    values = data.draw(st.lists(st.integers(-3, 3), min_size=2**depth,
                                max_size=2**depth))
    f = CylinderFunction(depth, tuple(F(v) for v in values))
    max_n = word.length - depth + 1
    ns = data.draw(st.lists(st.integers(1, max_n), min_size=1, max_size=5))
    assert cesaro_trace(word, f, ns) == old_cesaro_trace(word, f, ns)


@settings(max_examples=150, deadline=None)
@given(word=words, data=st.data())
def test_cesaro_trace_matches_inside_correction_on_mixed_denominators(word, data):
    # cesaro_trace sums f's values as integers over their least common
    # denominator; the averages must still be the exact Fractions.
    depth = data.draw(st.integers(1, min(3, word.length)))
    values = data.draw(st.lists(st.fractions(-3, 3, max_denominator=12), min_size=2**depth,
                                max_size=2**depth))
    f = CylinderFunction(depth, tuple(values))
    max_n = word.length - depth + 1
    ns = data.draw(st.lists(st.integers(1, max_n), min_size=1, max_size=5))
    assert cesaro_trace(word, f, ns) == old_cesaro_trace(word, f, ns)


@settings(max_examples=200, deadline=None)
@given(length=st.one_of(st.integers(1, block_boundary(7) + 8),
                        st.sampled_from(boundary_lengths(8))))
def test_rolandex_prefix_matches_truncated_runs(length):
    word = rolandex_prefix(length)
    assert word.runs == old_rolandex_runs(length)
    assert word.length == length


@settings(max_examples=200, deadline=None)
@given(word=run_words())
def test_run_offsets_match_bits(word):
    bits = word.bits()
    assert word.length == len(bits) == sum(n for _, n in word.runs)
    changes = [i for i in range(len(bits)) if i == 0 or bits[i] != bits[i - 1]]
    assert word.starts == tuple(changes) + (len(bits),)
    assert [word.bit(i) for i in range(len(bits))] == bits
    assert word.factor(0, len(bits)) == tuple(bits)


# ---------------------------------------------------------------------------
# wide windows: long chains of merged crossing intervals

PIPELINE_HORIZONS = (block_boundary(6), block_boundary(8), 10**8)
wide_lengths = [n for n in boundary_lengths(8) if n >= block_boundary(6) - 1]


@settings(max_examples=60, deadline=None)
@given(length=st.sampled_from(wide_lengths), window=st.integers(1, 130))
def test_wide_windows_match_two_scans(length, window):
    word = rolandex_prefix(length)
    report = classify_subshift(word, window)
    assert (report.fixed, report.minimal_candidates) == old_candidates(word, window)
    ws = window_closure(word, window)
    assert (ws.windows, ws.shift_edges, ws.successors) == old_window_closure(word, window)


@pytest.mark.parametrize("horizon", PIPELINE_HORIZONS)
@pytest.mark.parametrize("window", [64, 128])
def test_pipeline_items_match_two_scans(horizon, window):
    word = rolandex_prefix(horizon)
    report = classify_subshift(word, window)
    assert (report.fixed, report.minimal_candidates) == old_candidates(word, window)


@pytest.mark.parametrize("word", [
    rolandex_prefix(13),
    rolandex_prefix(block_boundary(3) + 2),
    BinaryWord.from_string("0110100"),
    BinaryWord.from_string("1111"),
], ids=["rolandex-13", "rolandex-k3", "mixed", "one-run"])
def test_window_as_long_as_the_word(word):
    window = word.length
    report = classify_subshift(word, window)
    assert (report.fixed, report.minimal_candidates) == old_candidates(word, window)
    ws = window_closure(word, window)
    assert (ws.windows, ws.shift_edges, ws.successors) == old_window_closure(word, window)
    assert ws.windows == {word.factor(0, window)}


@settings(max_examples=200, deadline=None)
@given(word=run_words(), data=st.data())
def test_segment_matches_bits(word, data):
    start = data.draw(st.integers(0, word.length))
    length = data.draw(st.integers(0, word.length - start))
    bits = [bit for bit, run_len in word.runs for _ in range(run_len)]
    assert word.segment(start, length) == bytes(bits[start:start + length])


def test_classify_subshift_scans_without_tuples(monkeypatch):
    calls = {"factor": 0, "window_closure": 0}
    factor, closure = BinaryWord.factor, subshift.window_closure

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(BinaryWord, "factor", counted("factor", factor))
    monkeypatch.setattr(subshift, "window_closure", counted("window_closure", closure))
    report = classify_subshift(rolandex_prefix(block_boundary(8)), 7)
    assert calls == {"factor": 0, "window_closure": 0}
    assert report.weak_star_mean_ergodic == "false"
