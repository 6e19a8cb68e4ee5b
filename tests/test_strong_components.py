"""One strong-components search serves the state graph and the subshift cycles.

``systems.strong_components`` is checked against brute-force mutual
reachability on small graphs, and on a 20,000-state path into a 7-cycle
the minimal sets, the transitivity witnesses and the zero's support labels
come out of it in memory linear in the number of states.
"""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergoscope.envelope import _zero_support_labels
from ergoscope.systems import (
    FiniteSystem,
    TransitivityReport,
    congruence_closure,
    minimal_sets,
    strong_components,
    transitivity,
)
from ergoscope.transforms import Transformation


@st.composite
def graphs(draw):
    """0-12 nodes, each with 0-3 successors (self-loops among them), as
    ints or as bytes, listed in a random order."""
    n = draw(st.integers(0, 12))
    name = draw(st.sampled_from([int, lambda i: str(i).encode()]))
    edges = {name(i): [name(j) for j in draw(st.lists(st.integers(0, n - 1), max_size=3))]
             for i in range(n)} if n else {}
    return draw(st.permutations(list(edges))), edges


def brute_reach(edges, x):
    seen, frontier = {x}, [x]
    while frontier:
        for y in edges[frontier.pop()]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@settings(max_examples=300, deadline=None)
@given(graphs())
# A self-loop, a node with no successors, and a 2-cycle feeding a 3-cycle.
@example(([0, 1], {0: [0], 1: []}))
@example(([b"a", b"b", b"c", b"d", b"e"],
          {b"a": [b"b"], b"b": [b"a", b"c"], b"c": [b"d"], b"d": [b"e"], b"e": [b"c"]}))
def test_components_are_the_mutual_reach_classes(graph):
    nodes, edges = graph
    found = strong_components(nodes, edges.__getitem__)
    reach = {x: brute_reach(edges, x) for x in nodes}
    classes = {frozenset(y for y in reach[x] if x in reach[y]) for x in nodes}
    assert sorted(map(len, found)) == sorted(map(len, classes))
    assert set(map(frozenset, found)) == classes
    position = {x: i for i, c in enumerate(found) for x in c}
    assert all(position[y] <= position[x] for x in nodes for y in edges[x])


def system_of(*maps):
    return FiniteSystem(tuple(map(str, range(len(maps[0])))),
                        tuple((f"g{i}", Transformation(tuple(m))) for i, m in enumerate(maps)))


def test_a_long_path_into_a_cycle_in_linear_memory():
    n = 20_000
    path = list(range(1, n))
    tracemalloc.start()
    try:
        sys_ = system_of(path + [n - 7])
        assert minimal_sets(sys_) == (frozenset(range(n - 7, n)),)
        assert _zero_support_labels(sys_) == (0,) * n
        assert transitivity(sys_) == TransitivityReport(0, None)
        # The path ends in the fixed point n - 2; n - 1 is fixed too, and
        # only state 0 reaches it.
        ends = path[:-1] + [n - 2, n - 1]
        refuted = system_of(ends, [n - 1] + ends[1:])
        assert _zero_support_labels(refuted) == (
            "orbit closure of state 0 contains 2 minimal sets with invariant measures")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("x, message", [
    (-1, "state -1 out of range"),
    (3, "state 3 out of range"),
    (True, "need an integer state, got True"),
    (1.5, "need an integer state, got 1.5"),
])
def test_congruence_closure_checks_its_states(x, message):
    identity = system_of([0, 1, 2])
    for pair in ((0, x), (x, 0)):
        with pytest.raises(ValueError, match=message):
            congruence_closure(identity, [pair])
