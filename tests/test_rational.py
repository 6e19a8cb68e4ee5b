from fractions import Fraction
from itertools import combinations
import random

from ergoscope import rational
from oracles import solve


def F(x):
    return Fraction(x)


def test_rref_identity():
    rows = rational.identity_rows(3)
    reduced, pivots = rational.rref(rows)
    assert pivots == [0, 1, 2]
    assert tuple(map(tuple, reduced)) == rows


def test_rank_and_nullspace_consistency():
    rng = random.Random(11)
    for _ in range(30):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        rows = [
            [F(rng.randint(-3, 3)) for _ in range(n_cols)] for _ in range(n_rows)
        ]
        r = rational.rank(rows)
        ns = rational.nullspace(rows, n_cols)
        assert r + len(ns) == n_cols
        for v in ns:
            assert all(x == 0 for x in rational.mat_vec(rows, v))


def test_solve_known_system():
    rows = [[F(2), F(1)], [F(1), F(-1)]]
    x = solve(rows, [F(5), F(1)])
    assert x == (F(2), F(1))
    assert solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None


def _brute_feasible(rows, rhs, n):
    # Vertex oracle: solve on every support, keep nonnegative solutions.
    for size in range(n + 1):
        for support in combinations(range(n), size):
            sub = [[row[j] for j in support] for row in rows]
            sol = solve(sub, rhs) if support else (
                () if all(b == 0 for b in rhs) else None
            )
            if sol is None:
                continue
            if all(x >= 0 for x in sol):
                full = [Fraction(0)] * n
                for j, v in zip(support, sol):
                    full[j] = v
                return tuple(full)
    return None


def test_lp_feasibility_against_vertex_oracle():
    rng = random.Random(5)
    agree = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-2, 2)) for _ in range(m)]
        got = rational.lp_feasible_point(rows, rhs)
        expected = _brute_feasible(rows, rhs, n)
        assert (got is None) == (expected is None)
        if got is not None:
            assert all(x >= 0 for x in got)
            assert list(rational.mat_vec(rows, got)) == rhs
            agree += 1
    assert agree > 5


def test_lp_simplex_constraint():
    # x >= 0, sum x = 1, x0 - x1 = 0 has the feasible point (1/2, 1/2).
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    x = rational.lp_feasible_point(rows, [F(1), F(0)])
    assert x is not None and sum(x) == 1 and x[0] == x[1]
    # x >= 0 with x0 + x1 = -1 is infeasible.
    assert rational.lp_feasible_point([[F(1), F(1)]], [F(-1)]) is None


def test_lp_artificials_start_with_zero_reduced_cost():
    # Infeasible: the first two rows force x0 + 2 x1 + 2 x3 + 1 = 0.  With
    # the artificials' reduced costs at -1 the tableau pivoted one back in
    # and returned (0, 0, 0, 0, 1).
    rows = [[F(x) for x in row] for row in ([1, 0, -1, 1, 0], [1, -2, -2, 0, 0],
                                            [1, -2, -2, -1, -1])]
    assert rational.lp_feasible_point(rows, [F(-1), F(-1), F(-2)]) is None
