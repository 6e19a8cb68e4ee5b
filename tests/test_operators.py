import random
from fractions import Fraction
from itertools import combinations

import pytest

from ergoscope import rational
from ergoscope.nets import cesaro
from ergoscope.operators import (
    Measure,
    OperatorMatrix,
    adjoint_matrix,
    adjoint_on_measure,
    decomposition_check,
    fixed_space,
    invariant_measures,
    koopman_matrix,
    separation_check,
)
from ergoscope.systems import FiniteSystem, cyclic_shift_system, minimal_sets, random_system
from ergoscope.transforms import Transformation
from oracles import solve

F = Fraction
SHIFT3 = Transformation((1, 2, 0))
TWO_FIX = Transformation((0, 1, 0))


@pytest.mark.parametrize("operation", [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a.max_entry_distance(b),
    lambda a, b: a.apply((F(1), F(2))),
    lambda a, b: adjoint_on_measure(a, Measure.uniform_on(2, range(2))),
], ids=["add", "sub", "max_entry_distance", "apply", "adjoint_on_measure"])
def test_operations_reject_mismatched_sizes(operation):
    with pytest.raises(ValueError, match="3-state matrix and 2-state operand"):
        operation(OperatorMatrix.identity(3), OperatorMatrix.identity(2))


def test_koopman_identity():
    assert koopman_matrix(Transformation.identity(3)) == OperatorMatrix.identity(3)


def test_koopman_shift_is_permutation():
    m = koopman_matrix(SHIFT3)
    for i in range(3):
        for j in range(3):
            assert m.rows[i][j] == (1 if j == (i + 1) % 3 else 0)
    assert m.row_stochastic and m.column_stochastic


def test_koopman_constant_map():
    m = koopman_matrix(Transformation.constant(2, 0))
    assert all(m.rows[x][0] == 1 for x in range(2))
    assert m.row_stochastic and not m.column_stochastic


def test_koopman_applies_composition():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 5)
        t = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        f = tuple(F(rng.randint(-5, 5)) for _ in range(n))
        assert koopman_matrix(t).apply(f) == tuple(f[t(x)] for x in range(n))


def test_koopman_anti_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 5)
        s = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        t = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        assert koopman_matrix(s.compose(t)) == koopman_matrix(t) @ koopman_matrix(s)
        assert adjoint_matrix(s.compose(t)) == adjoint_matrix(s) @ adjoint_matrix(t)


def test_adjoint_moves_dirac():
    # T'_s delta_x = delta_{s x}, checked for the shift on Z3.
    mu = adjoint_on_measure(koopman_matrix(SHIFT3), Measure.dirac(3, 1))
    assert mu == Measure.dirac(3, 2)


def test_adjoint_preserves_uniform_under_permutation():
    uniform = Measure.uniform_on(3, range(3))
    assert adjoint_on_measure(koopman_matrix(SHIFT3), uniform) == uniform


def test_adjoint_collapses_to_dirac():
    m = koopman_matrix(Transformation.constant(2, 0))
    mu = Measure((F(1, 2), F(1, 2)))
    assert adjoint_on_measure(m, mu) == Measure.dirac(2, 0)


def test_adjoint_rejects_non_stochastic():
    bad = OperatorMatrix.from_rows([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        adjoint_on_measure(bad, Measure.dirac(2, 0))


def test_adjoint_mass_and_positivity():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        t = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        weights = [rng.randint(0, 4) for _ in range(n)]
        total = sum(weights) or 1
        mu = Measure(tuple(F(w, total) for w in weights)) if sum(weights) else Measure.dirac(n, 0)
        out = adjoint_on_measure(koopman_matrix(t), mu)
        assert sum(out.weights) == 1 and all(w >= 0 for w in out.weights)


def invariant_measures_oracle(sys_):
    """Vertex enumeration on supports of the invariant polytope."""
    n = sys_.n
    eye = rational.identity_rows(n)
    stacked = []
    for g in sys_.generator_maps:
        stacked.extend(rational.mat_sub(adjoint_matrix(g).rows, eye))
    verts = set()
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            rows = [[row[j] for j in support] for row in stacked]
            rows.append([F(1)] * size)
            rhs = [F(0)] * len(stacked) + [F(1)]
            sol = solve(rows, rhs)
            if sol is None or any(x <= 0 for x in sol):
                continue
            full = [F(0)] * n
            for j, v in zip(support, sol):
                full[j] = v
            # Unique solution on this support means a vertex candidate.
            sub_rank = rational.rank(rows)
            if sub_rank == size:
                verts.add(tuple(full))
    return sorted(verts)


def test_invariant_measures_examples():
    assert invariant_measures(cyclic_shift_system(3)) == (
        Measure.uniform_on(3, range(3)),
    )
    sys_ = FiniteSystem(("0", "1", "2"), (("m", TWO_FIX),))
    assert invariant_measures(sys_) == (Measure.dirac(3, 0), Measure.dirac(3, 1))
    identity_sys = FiniteSystem(
        tuple("abcd"), (("id", Transformation.identity(4)),)
    )
    assert invariant_measures(identity_sys) == tuple(
        Measure.dirac(4, x) for x in range(4)
    )


def test_invariant_measures_against_support_oracle():
    rng = random.Random(19)
    for _ in range(35):
        n = rng.randint(1, 5)
        sys_ = random_system(n, rng.randint(1, 3), commuting=rng.random() < 0.5,
                             seed=rng.randrange(10**6))
        got = sorted(mu.weights for mu in invariant_measures(sys_))
        assert got == invariant_measures_oracle(sys_)


def test_invariant_measure_count_matches_cycles_for_single_maps():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 7)
        sys_ = random_system(n, 1, seed=rng.randrange(10**6))
        assert len(invariant_measures(sys_)) == len(minimal_sets(sys_))


def test_fixed_space_examples():
    assert len(fixed_space([OperatorMatrix.identity(4)])) == 4
    shift_fix = fixed_space([koopman_matrix(SHIFT3)])
    assert len(shift_fix) == 1
    v = shift_fix[0]
    assert v[0] == v[1] == v[2] != 0
    assert len(fixed_space([koopman_matrix(TWO_FIX)])) == 2


def test_separation_check_examples():
    fix_fn = fixed_space([koopman_matrix(SHIFT3)])
    fix_meas = fixed_space([adjoint_matrix(SHIFT3)])
    assert separation_check(fix_fn, fix_meas)
    assert not separation_check([], [(F(1),)])
    assert separation_check([(F(1),)], [])


def test_separation_matches_cesaro_convergence_for_single_maps():
    # For one map on a finite set, Cesàro means always converge, so the
    # separation criterion must hold; verify convergence directly.
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 5)
        t = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        km = koopman_matrix(t)
        assert separation_check(fixed_space([km]), fixed_space([km.transpose()]))
        big, bigger = cesaro(km, 60), cesaro(km, 120)
        assert big.max_entry_distance(bigger) <= F(2 * (n + n), 60)


def test_decomposition_examples():
    identity_sys = FiniteSystem(
        tuple("ab"), (("id", Transformation.identity(2)),)
    )
    rep = decomposition_check(identity_sys)
    assert (rep.dim_fix, rep.dim_range_span, rep.direct_sum) == (2, 0, True)
    rep2 = decomposition_check(cyclic_shift_system(3))
    assert (rep2.dim_fix, rep2.dim_range_span, rep2.direct_sum) == (1, 2, True)
    sys_ = FiniteSystem(("0", "1", "2"), (("m", TWO_FIX),))
    rep3 = decomposition_check(sys_)
    assert rep3.direct_sum and rep3.dim_fix == 2


def test_decomposition_fails_without_amenability():
    # Two constants: separation holds vacuously, decomposition fails.
    sys_ = FiniteSystem(
        ("0", "1"),
        (("c0", Transformation((0, 0))), ("c1", Transformation((1, 1)))),
    )
    rep = decomposition_check(sys_)
    assert not rep.direct_sum
    fix_fn = fixed_space([koopman_matrix(g) for g in sys_.generator_maps])
    fix_meas = fixed_space([adjoint_matrix(g) for g in sys_.generator_maps])
    assert separation_check(fix_fn, fix_meas)  # fix(S') = {0}
    assert fix_meas == ()
