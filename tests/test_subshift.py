import random
from fractions import Fraction

import pytest

from ergoscope.subshift import (
    FIRST_COORDINATE,
    BinaryWord,
    CylinderFunction,
    block_boundary,
    block_boundary_sum,
    cesaro_trace,
    classify_subshift,
    fixed_windows,
    rolandex_prefix,
    window_closure,
)

F = Fraction


def test_block_boundary_forms_agree():
    for n in range(1, 10):
        assert block_boundary(n) == block_boundary_sum(n)
    assert block_boundary(1) == 0
    assert block_boundary(2) == 11
    assert block_boundary(3) == 113


def test_rolandex_prefix_start():
    # One 1, ten 0s, then 1, 1.
    word = rolandex_prefix(13)
    assert word.factor(0, 13) == (1,) + (0,) * 10 + (1, 1)


def test_rolandex_ones_density():
    # Ones in the first k(8) symbols: blocks 1..7 contribute 1+...+7.
    word = rolandex_prefix(block_boundary(8))
    ones = sum(length for bit, length in word.runs if bit == 1)
    assert ones == 28
    assert word.length == block_boundary(8)


def test_rolandex_matches_brute_force_prefix():
    # Oracle: build the word symbol by symbol from the block definition.
    length = block_boundary(4) + 10
    bits = []
    n = 1
    while len(bits) < length:
        bits.extend([1] * n)
        bits.extend([0] * 10**n)
        n += 1
    assert rolandex_prefix(length).factor(0, length) == tuple(bits[:length])


@pytest.mark.parametrize("text, message", [
    ("\uff11\uff10", "bit '\uff11' at position 0 is not '0' or '1'"),
    ("0 1", "bit ' ' at position 1 is not '0' or '1'"),
    ("0112", "bit '2' at position 3 is not '0' or '1'"),
])
def test_binary_word_from_string_reads_only_0_and_1(text, message):
    with pytest.raises(ValueError) as info:
        BinaryWord.from_string(text)
    assert str(info.value) == message


def test_binary_word_round_trip():
    word = BinaryWord.from_string("0101101")
    assert word.length == 7
    assert word.bits() == [0, 1, 0, 1, 1, 0, 1]
    assert word.bit(4) == 1
    assert word.factor(2, 3) == (0, 1, 1)
    assert word.prefix(4).bits() == [0, 1, 0, 1]


def test_window_closure_alternating():
    word = BinaryWord.from_string("01" * 10)
    ws = window_closure(word, 2)
    assert ws.windows == frozenset({(0, 1), (1, 0)})
    assert ws.shift_edges == {(0, 1): (1, 0), (1, 0): (0, 1)}


def test_window_closure_all_ones():
    ws = window_closure(BinaryWord.from_string("1" * 8), 3)
    assert ws.windows == frozenset({(1, 1, 1)})
    assert fixed_windows(ws) == [(1, 1, 1)]


def test_window_closure_matches_brute_scan():
    rng = random.Random(3)
    for _ in range(25):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(3, 40))]
        word = BinaryWord.from_bits(bits)
        w = rng.randint(1, min(6, word.length))
        expected = {tuple(bits[i:i + w]) for i in range(len(bits) - w + 1)}
        assert window_closure(word, w).windows == frozenset(expected)


def test_window_closure_long_runs_contain_constants():
    word = rolandex_prefix(block_boundary(8) + 8)
    ws = window_closure(word, 8)
    assert (0,) * 8 in ws.windows
    assert (1,) * 8 in ws.windows


def test_window_monotonicity():
    # Every (W+1)-factor's prefix is a W-factor; on these words the two
    # sets coincide exactly.
    for word in (rolandex_prefix(block_boundary(5)),
                 BinaryWord.from_string("0110" * 12)):
        for w in (2, 3, 4):
            small = window_closure(word, w).windows
            big = window_closure(word, w + 1).windows
            prefixes = {f[:w] for f in big}
            assert prefixes == small


def test_fixed_windows_rolandex():
    word = rolandex_prefix(block_boundary(8))
    ws = window_closure(word, 7)
    assert fixed_windows(ws) == [(0,) * 7, (1,) * 7]
    ws2 = window_closure(BinaryWord.from_string("01" * 6), 2)
    assert fixed_windows(ws2) == []


def test_classify_rolandex_not_weak_star_mean_ergodic():
    word = rolandex_prefix(block_boundary(8))
    report = classify_subshift(word, 7)
    assert report.weak_star_mean_ergodic == "false"
    assert len(report.minimal_candidates) == 2
    assert frozenset({(0,) * 7}) in report.minimal_candidates
    assert frozenset({(1,) * 7}) in report.minimal_candidates


def test_classify_periodic_single_candidate():
    report = classify_subshift(BinaryWord.from_string("01" * 20), 2)
    assert len(report.minimal_candidates) == 1
    assert report.weak_star_mean_ergodic == "undetermined"
    report2 = classify_subshift(BinaryWord.from_string("0" * 30), 3)
    assert report2.minimal_candidates == (frozenset({(0, 0, 0)}),)


def test_classify_eventually_periodic_single_candidate():
    # At window >= transient + period every factor pins its phase.
    rng = random.Random(11)
    for _ in range(15):
        period = rng.randint(1, 4)
        v = [rng.randint(0, 1) for _ in range(period)]
        u = [rng.randint(0, 1) for _ in range(rng.randint(0, 3))]
        bits = u + v * 12
        w = len(u) + period + 1
        if w > len(bits) - 2:
            continue
        report = classify_subshift(BinaryWord.from_bits(bits), w)
        assert len(report.minimal_candidates) == 1, (u, v, w)


def test_classify_transient_periodic_part_not_counted():
    # (01)^10 0^20 previews (01)^10 0^inf, whose orbit closure keeps only
    # the zero fixed point; the alternating windows are transient.
    word = BinaryWord.from_string("01" * 10 + "0" * 20)
    report = classify_subshift(word, 2)
    assert len(report.minimal_candidates) == 1
    assert report.minimal_candidates[0] == frozenset({(0, 0)})


def test_classify_growing_runs_two_fixed_shadows():
    # 0 1 00 11 000 111 ... keeps both constant sequences in its orbit
    # closure; at any window both constants appear off-cycle.
    bits = []
    for k in range(1, 8):
        bits.extend([0] * k)
        bits.extend([1] * k)
    word = BinaryWord.from_bits(bits)
    report = classify_subshift(word, 3)
    assert report.weak_star_mean_ergodic == "false"
    assert frozenset({(0, 0, 0)}) in report.minimal_candidates
    assert frozenset({(1, 1, 1)}) in report.minimal_candidates


def test_cesaro_trace_all_ones():
    word = BinaryWord.from_string("1" * 20)
    assert cesaro_trace(word, FIRST_COORDINATE, [5, 10, 20]) == [1, 1, 1]


@pytest.mark.parametrize("ns", [[0], [-3], [5, 0]])
def test_cesaro_trace_rejects_n_below_one(ns):
    word = BinaryWord.from_string("01" * 8)
    with pytest.raises(ValueError, match="need N >= 1"):
        cesaro_trace(word, FIRST_COORDINATE, ns)


@pytest.mark.parametrize("ns", [[2.5], [True]], ids=["float", "bool"])
def test_cesaro_trace_rejects_non_integer_n(ns):
    word = BinaryWord.from_string("0101101")
    with pytest.raises(ValueError, match="need an integer N"):
        cesaro_trace(word, FIRST_COORDINATE, ns)


def test_cesaro_trace_alternating_even():
    word = BinaryWord.from_string("01" * 16)
    values = cesaro_trace(word, FIRST_COORDINATE, [2, 8, 32])
    assert values == [F(1, 2), F(1, 2), F(1, 2)]


def test_cesaro_trace_rolandex_block_density():
    word = rolandex_prefix(block_boundary(8))
    n = block_boundary(8)
    value = cesaro_trace(word, FIRST_COORDINATE, [n])[0]
    assert value == F(28, n)
    assert float(value) < 1e-5


def test_cesaro_trace_matches_brute_force():
    rng = random.Random(17)
    for _ in range(20):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(5, 60))]
        word = BinaryWord.from_bits(bits)
        depth = rng.randint(1, 3)
        table = tuple(F(rng.randint(-2, 2)) for _ in range(2**depth))
        f = CylinderFunction(depth, table)
        max_n = word.length - depth + 1
        ns = sorted(rng.sample(range(1, max_n + 1), min(3, max_n)))
        got = cesaro_trace(word, f, ns)
        for n, value in zip(ns, got):
            brute = sum(f(tuple(bits[i:i + depth])) for i in range(n)) / F(n)
            assert value == brute


def test_cesaro_trace_length_guard():
    word = BinaryWord.from_string("0101")
    with pytest.raises(ValueError, match="too short"):
        cesaro_trace(word, FIRST_COORDINATE, [5])
    assert cesaro_trace(word, FIRST_COORDINATE, [4]) == [F(1, 2)]


def test_prefix_length_cap():
    with pytest.raises(ValueError):
        rolandex_prefix(10**8 + 1)
    with pytest.raises(ValueError):
        rolandex_prefix(0)


def test_trace_bound_along_block_word():
    # Windows touching a block of ones start at most depth-1 before it,
    # so a [0,1]-valued cylinder vanishing on zeros obeys
    # trace(k(N)) <= (sum_{n<N} n + N*depth) / k(N), decreasing in N.
    word = rolandex_prefix(block_boundary(8) + 4)
    for depth in (1, 2, 3):
        touches_one = CylinderFunction(
            depth, tuple(F(0 if idx == 0 else 1) for idx in range(2**depth))
        )
        ns = [block_boundary(k) for k in (5, 6, 7, 8)]
        values = cesaro_trace(word, touches_one, ns)
        for k, value in zip((5, 6, 7, 8), values):
            ones = sum(range(k))
            assert value <= F(ones + k * depth, block_boundary(k))
        assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("runs", [
    ((1, 2.5), (0, 1)),
    ((1, True), (0, 1)),
    ((True, 2), (0, 1)),
    ((1.0, 2), (0, 1)),
], ids=["float-length", "bool-length", "bool-bit", "float-bit"])
def test_binary_word_rejects_non_integer_runs(runs):
    with pytest.raises(ValueError):
        BinaryWord(runs)


@pytest.mark.parametrize("method", ["factor", "segment"])
def test_negative_factor_length_rejected(method):
    word = BinaryWord.from_string("0101101")
    with pytest.raises(ValueError, match="length"):
        getattr(word, method)(2, -3)


@pytest.mark.parametrize("read", [
    lambda word: word.bit(2.5),
    lambda word: word.bit(True),
    lambda word: word.segment(2.5, 3),
], ids=["bit-float", "bit-bool", "segment-float"])
def test_position_must_be_an_integer(read):
    with pytest.raises(ValueError, match="integer start"):
        read(BinaryWord.from_string("0101101"))


@pytest.mark.parametrize("read", [
    lambda word: word.bit(-1),
    lambda word: word.bit(7),
    lambda word: word.segment(-1, 2),
    lambda word: word.segment(5, 3),
], ids=["bit-negative", "bit-past-end", "segment-negative", "segment-past-end"])
def test_position_out_of_range_is_an_index_error(read):
    with pytest.raises(IndexError):
        read(BinaryWord.from_string("0101101"))


def test_prefix_rejects_non_integer_length():
    with pytest.raises(ValueError):
        BinaryWord.from_string("0001111").prefix(4.5)


def test_rolandex_prefix_rejects_non_integer_length():
    with pytest.raises(ValueError):
        rolandex_prefix(5.5)


@pytest.mark.parametrize("n", [2.5, True])
def test_block_boundary_rejects_non_integer(n):
    with pytest.raises(ValueError):
        block_boundary(n)


@pytest.mark.parametrize("scan", [window_closure, classify_subshift])
@pytest.mark.parametrize("window", [True, 2.0])
def test_window_must_be_an_integer(scan, window):
    with pytest.raises(ValueError, match="integer window"):
        scan(BinaryWord.from_string("0110100"), window)


def test_cylinder_function_rejects_short_window():
    f = CylinderFunction(2, (F(0), F(1), F(2), F(3)))
    assert f((0, 1)) == 1
    with pytest.raises(ValueError, match="shorter than depth"):
        f((1,))
