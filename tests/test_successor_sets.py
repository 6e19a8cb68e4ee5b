"""Words read off their run offsets, window systems off their successor sets.

Each routine is checked against its earlier form in ``oracles``: the
run-by-run ``from_bits`` and ``prefix``, the window system that stored its
windows and shift edges beside the successor sets, and the
``windows_system`` that built its generators from selection dicts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ergoscope import subshift
from ergoscope.envelope import Budget, classify, report_json
from ergoscope.subshift import (
    BinaryWord,
    WindowSystem,
    block_boundary,
    rolandex_prefix,
    window_closure,
    windows_system,
)

BOUNDARY_LENGTHS = sorted({block_boundary(n) + d for n in range(2, 7) for d in (-1, 0, 1)})

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=80)
words = st.one_of(bit_lists.map(BinaryWord.from_bits),
                  st.sampled_from(BOUNDARY_LENGTHS).map(rolandex_prefix))


@settings(max_examples=300, deadline=None)
@given(bits=bit_lists)
def test_from_bits_matches_symbol_by_symbol_runs(bits):
    word = BinaryWord.from_bits(bits)
    assert word == oracles.from_bits(bits)
    assert BinaryWord.from_string("".join(map(str, bits))) == word
    assert word.bits() == bits


@settings(max_examples=300, deadline=None)
@given(word=words, data=st.data())
def test_prefix_matches_whole_run_truncation(word, data):
    n = data.draw(st.integers(1, word.length))
    assert word.prefix(n) == oracles.prefix(word, n)


def test_rolandex_prefixes_match_whole_run_truncation():
    word = rolandex_prefix(block_boundary(7))
    for n in BOUNDARY_LENGTHS:
        assert rolandex_prefix(n) == word.prefix(n) == oracles.prefix(word, n)


@settings(max_examples=300, deadline=None)
@given(word=words, data=st.data())
def test_windows_and_shift_edges_match_stored_fields(word, data):
    window = data.draw(st.integers(1, min(16, word.length)))
    for ws in (window_closure(word, window),
               WindowSystem(window, subshift._successors(word, window))):
        stored = oracles.window_system(window, ws.successors)
        assert ws.windows == stored.windows
        assert ws.shift_edges == stored.shift_edges


@settings(max_examples=100, deadline=None)
@given(word=words, data=st.data())
def test_windows_system_matches_selection_dicts(word, data):
    window = data.draw(st.integers(1, min(5, word.length)))
    ws = window_closure(word, window)
    system = windows_system(ws)
    old = oracles.windows_system(oracles.window_system(window, ws.successors))
    assert system.generators == old.generators
    assert system == old
    budget = Budget(max_elements=2000)
    assert report_json(classify(system, budget)) == report_json(classify(old, budget))
