import random
from fractions import Fraction
from itertools import product

import pytest

from ergoscope.nets import (
    abel,
    abel_net,
    cesaro,
    cesaro_net,
    constant_net,
    detect_limit,
    folner_box,
    folner_net,
    interleave,
    matrix_powers,
    verify_net,
)
from ergoscope.operators import Measure, OperatorMatrix, adjoint_matrix, koopman_matrix
from ergoscope.transforms import Transformation

F = Fraction
SHIFT3 = koopman_matrix(Transformation((1, 2, 0)))
C0_2 = koopman_matrix(Transformation.constant(2, 0))


def test_cesaro_identity():
    eye = OperatorMatrix.identity(4)
    for n in (1, 2, 7):
        assert cesaro(eye, n) == eye


def test_cesaro_shift_full_period():
    # (1/3)(I + M + M^2) for the 3-cycle: sum of the three rotations.
    expected = OperatorMatrix.from_rows([[F(1, 3)] * 3] * 3)
    assert cesaro(SHIFT3, 3) == expected


def test_cesaro_constant_two_steps():
    expected = OperatorMatrix.identity(2).scale(F(1, 2)) + C0_2.scale(F(1, 2))
    assert cesaro(C0_2, 2) == expected


def test_cesaro_defect_telescoping_bound():
    rng = random.Random(5)
    eye3 = None
    for _ in range(25):
        n = rng.randint(1, 5)
        m = koopman_matrix(Transformation(tuple(rng.randrange(n) for _ in range(n))))
        N = rng.randint(1, 40)
        eye = OperatorMatrix.identity(n)
        defect = (eye - m) @ cesaro(m, N)
        # Telescoping: (I - M) A_N = (I - M^N)/N.
        power = eye
        for _ in range(N):
            power = power @ m
        assert defect == (eye - power).scale(F(1, N))
        assert max(abs(x) for row in defect.rows for x in row) <= F(2, N)


def test_abel_of_identity_hits_projection():
    eye = OperatorMatrix.identity(3)
    result = abel(eye, F(2), F(1, 10**9))
    assert result.matrix.max_entry_distance(eye) <= F(1, 10**9)
    assert result.tail_bound <= F(1, 10**9)


def test_abel_shift_closed_form():
    # Oracle: weight on rotation j is (r-1) r^-(j+1) / (1 - r^-3).
    r = F(2)
    weights = [(r - 1) * r ** -(j + 1) / (1 - r ** -3) for j in range(3)]
    assert weights == [F(4, 7), F(2, 7), F(1, 7)]
    rotations = [OperatorMatrix.identity(3), SHIFT3, SHIFT3 @ SHIFT3]
    oracle = rotations[0].scale(weights[0])
    for rot, w in zip(rotations[1:], weights[1:]):
        oracle = oracle + rot.scale(w)
    result = abel(SHIFT3, r, F(1, 10**9))
    assert result.matrix.max_entry_distance(oracle) <= F(2, 10**9)
    row_sums = [sum(row) for row in result.matrix.rows]
    assert all(abs(s - 1) <= F(1, 10**9) for s in row_sums)


def test_abel_zero_matrix_single_term():
    zero_m = OperatorMatrix.zeros(2)
    result = abel(zero_m, F(3), F(1, 100))
    # Only powers >= 1 vanish: truncation keeps (r-1)/r I plus nothing.
    expected = OperatorMatrix.identity(2).scale(F(2, 3))
    assert result.matrix == expected


def test_abel_rejects_small_r():
    with pytest.raises(ValueError):
        abel(SHIFT3, F(1), F(1, 10))


@pytest.mark.parametrize("tail_tol", [0, -1])
def test_abel_rejects_nonpositive_tail_tolerance(tail_tol):
    # The remainder bound / r^k never reaches 0, so truncation would not end.
    with pytest.raises(ValueError, match="tail_tol > 0"):
        abel(adjoint_matrix(Transformation((1, 2, 0))), 2, tail_tol)


@pytest.mark.parametrize("terms", [0, -3])
def test_abel_net_rejects_terms_below_one(terms):
    with pytest.raises(ValueError, match="need terms >= 1"):
        abel_net(SHIFT3, [F(2)], terms=terms)


def test_matrix_powers_counts():
    assert matrix_powers(SHIFT3, 0) == []
    assert matrix_powers(SHIFT3, 1) == [OperatorMatrix.identity(3)]
    assert len(matrix_powers(SHIFT3, 5)) == 5
    with pytest.raises(ValueError, match="need count >= 0"):
        matrix_powers(SHIFT3, -2)


@pytest.mark.parametrize("call", [
    lambda: matrix_powers(SHIFT3, True),
    lambda: abel_net(SHIFT3, [F(2)], terms=2.5),
    lambda: folner_net([SHIFT3], [2.5]),
    lambda: folner_net([SHIFT3], [True]),
    lambda: Transformation((1, 0)).power(True),
], ids=["matrix-powers-bool", "abel-float", "folner-float", "folner-bool", "power-bool"])
def test_counts_must_be_integers(call):
    with pytest.raises(ValueError, match="need an integer"):
        call()


def test_folner_single_generator_is_cesaro():
    for n in (1, 2, 5):
        assert folner_box([SHIFT3], n) == cesaro(SHIFT3, n)


def test_folner_two_commuting_shifts():
    shift_a = koopman_matrix(Transformation((2, 3, 0, 1)))
    shift_b = koopman_matrix(Transformation((1, 0, 3, 2)))
    # Oracle: enumerate the four box products explicitly.
    acc = OperatorMatrix.zeros(4)
    for i, j in product(range(2), repeat=2):
        term = OperatorMatrix.identity(4)
        for _ in range(i):
            term = term @ shift_a
        for _ in range(j):
            term = term @ shift_b
        acc = acc + term.scale(F(1, 4))
    assert folner_box([shift_a, shift_b], 2) == acc
    assert acc == OperatorMatrix.from_rows([[F(1, 4)] * 4] * 4)


def test_folner_rejects_non_commuting():
    swap = koopman_matrix(Transformation((1, 0)))
    with pytest.raises(ValueError):
        folner_box([C0_2, swap], 2)


def test_net_steps_record_convex_combinations():
    net = cesaro_net(SHIFT3, [1, 2, 4])
    assert all(step.verify_combination() for step in net.steps)
    net2 = folner_net([SHIFT3], [2, 3])
    assert all(step.verify_combination() for step in net2.steps)
    net3 = abel_net(SHIFT3, [F(2), F(3, 2)])
    assert all(step.verify_combination() for step in net3.steps)


def test_verify_net_cesaro_two_sided():
    # Defect decays like 2/N; the trailing window starts at N = 8.
    net = cesaro_net(SHIFT3, [4, 8, 16, 32])
    verdict = verify_net(net, [SHIFT3], "two_sided", F(2, 8))
    assert verdict.status == "ergodic"
    worst = verdict.worst_by_step()
    assert worst == sorted(worst, reverse=True)


@pytest.mark.parametrize("window", [0, -1])
def test_verify_net_rejects_window_below_one(window):
    net = abel_net(SHIFT3, [2, 3])
    with pytest.raises(ValueError, match="need window >= 1"):
        verify_net(net, [SHIFT3], "two_sided", 0, window=window)


def test_verify_net_constant_zero_exact():
    q = OperatorMatrix.from_rows([[F(1, 3)] * 3] * 3)
    net = constant_net(q, [(q, F(1))], 3)
    verdict = verify_net(net, [SHIFT3], "two_sided", 0)
    assert verdict.status == "ergodic"
    assert all(rec.defect == 0 for rec in verdict.trace)


def test_alternating_kernel_net_left_ergodic_not_convergent():
    # Two right zeros: s o q_i = q_i exactly, so the alternating net has
    # zero left defect yet two accumulation points.
    q1 = Transformation((0, 1, 0))
    q2 = Transformation((0, 1, 1))
    a1, a2 = adjoint_matrix(q1), adjoint_matrix(q2)
    gens = [a1, a2]
    net = interleave(
        constant_net(a1, [(a1, F(1))], 4),
        constant_net(a2, [(a2, F(1))], 4),
    )
    verdict = verify_net(net, gens, "left", 0)
    assert verdict.status == "ergodic"
    assert detect_limit(net.matrices(), F(1, 100), window=3) is None


def test_verify_net_window_counts_steps_that_share_a_descriptor():
    # Interleaving a net with itself repeats every descriptor, and each
    # of the six steps still counts once towards the trailing window.
    a = adjoint_matrix(Transformation((1, 2, 0)))
    b = cesaro_net(a, [6, 9, 12])
    verdict = verify_net(interleave(b, b), [a], "left", F(1, 5), window=4)
    assert verdict.worst_by_step() == [0] * 6
    assert verdict.status == "ergodic"
    assert [r.step for r in verdict.trace] == list(range(6))


def test_detect_limit_cases():
    q = OperatorMatrix.from_rows([[F(1, 3)] * 3] * 3)
    assert detect_limit([q, q, q], 0) == q
    trace = [cesaro(SHIFT3, n) for n in (30, 60, 90)]
    assert detect_limit(trace, F(1, 10)) == trace[-1]
    d0, d1 = Measure.dirac(2, 0), Measure.dirac(2, 1)
    assert detect_limit([d0, d1, d0, d1], F(1, 10)) is None
    with pytest.raises(ValueError):
        detect_limit([q], 0, window=1)
