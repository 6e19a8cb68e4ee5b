import random
from fractions import Fraction

import pytest

from ergoscope import rational
from ergoscope.envelope import (
    Budget,
    Verdict,
    _certify,
    classify,
    convex_koehler_zero,
    ellis,
    jacobs,
    kernel_image_check,
    koehler,
    minimal_unique_check,
    power_periodicity,
    report_json,
    report_to_json_dict,
    verify_zero_on_all_elements,
    zero_rank,
)
from ergoscope.operators import Measure, OperatorMatrix, adjoint_matrix
from ergoscope.subshift import block_boundary, rolandex_prefix, window_closure, windows_system
from ergoscope.systems import FiniteSystem, cyclic_shift_system, random_system
from ergoscope.transforms import Transformation, kernel

F = Fraction

TWO_CONSTANTS = FiniteSystem(
    ("0", "1"),
    (("c0", Transformation((0, 0))), ("c1", Transformation((1, 1)))),
)
TWO_FIXED_POINTS = FiniteSystem(
    ("0", "1", "2"),
    (("id", Transformation((0, 1, 2))), ("m", Transformation((0, 1, 0)))),
)
RIGHT_ZERO_PAIR = FiniteSystem(
    ("a", "b", "c"),
    (("q1", Transformation((0, 1, 0))), ("q2", Transformation((0, 1, 1)))),
)


def test_ellis_examples():
    identity_sys = FiniteSystem(("x",), (("id", Transformation((0,)),),)) if False else \
        FiniteSystem(("x", "y"), (("id", Transformation((0, 1))),))
    assert ellis(identity_sys).size == 1
    assert ellis(cyclic_shift_system(3)).size == 3


def test_ellis_of_subshift_truncation_contains_constant_maps():
    word = rolandex_prefix(block_boundary(5) + 5)
    ws = window_closure(word, 4)
    sys_ = windows_system(ws)
    sg = ellis(sys_)
    constants = {
        sys_.states[sg.elements[i].images[0]]
        for i in range(sg.size)
        if sg.elements[i].rank == 1
    }
    assert {"0000", "1111"} <= constants


def test_koehler_examples():
    identity_sys = FiniteSystem(("x", "y"), (("id", Transformation((0, 1))),))
    kg = koehler(identity_sys)
    assert kg.size == 1 and kg.elements[0] == OperatorMatrix.identity(2)
    kg3 = koehler(cyclic_shift_system(3))
    assert kg3.size == 3
    assert all(m.row_stochastic and m.column_stochastic for m in kg3.elements)
    id_c0 = FiniteSystem(
        ("0", "1"), (("id", Transformation((0, 1))), ("c0", Transformation((0, 0))))
    )
    kgc = koehler(id_c0)
    push_all_to_zero = OperatorMatrix.from_rows([[1, 1], [0, 0]])
    assert set(kgc.elements) == {OperatorMatrix.identity(2), push_all_to_zero}


def test_koehler_bridge_orders():
    # Pushforwards multiply like composition; Koopman matrices reverse it.
    sys_ = FiniteSystem(
        ("0", "1", "2"),
        (("s", Transformation((1, 2, 0))), ("t", Transformation((0, 0, 1)))),
    )
    kg = koehler(sys_)
    sg = kg.bridge
    for i in range(sg.size):
        for j in range(sg.size):
            composed = sg.elements[i].compose(sg.elements[j])
            assert kg.elements[i] @ kg.elements[j] == adjoint_matrix(composed)
            km_i = kg.elements[i].transpose()
            km_j = kg.elements[j].transpose()
            assert km_j @ km_i == adjoint_matrix(composed).transpose()


def test_power_periodicity():
    p, q, powers = power_periodicity(Transformation((1, 2, 0)))
    assert (p, q) == (0, 3)
    p2, q2, _ = power_periodicity(Transformation((0, 1, 0)))
    assert (p2, q2) == (1, 1)


def test_zero_cyclic_shift_rank_one():
    result = convex_koehler_zero(cyclic_shift_system(3))
    assert result.status == "found" and result.method == "cesaro_product"
    cert = result.certificate
    assert cert.matrix == OperatorMatrix.from_rows([[F(1, 3)] * 3] * 3)
    assert zero_rank(cert) == 1
    assert verify_zero_on_all_elements(cert, ellis(cyclic_shift_system(3))) == 6


def test_zero_identity_system():
    sys_ = FiniteSystem(("a", "b"), (("id", Transformation((0, 1))),))
    result = convex_koehler_zero(sys_)
    assert result.certificate.matrix == OperatorMatrix.identity(2)
    assert zero_rank(result.certificate) == 2


def test_zero_absent_for_two_constants():
    # The cheap route: both point masses are invariant and live in one
    # orbit closure, so no zero can assign consistent columns.
    result = convex_koehler_zero(TWO_CONSTANTS)
    assert result.status == "absent"
    assert result.method == "minimal_set_refutation"
    # The exact feasibility route must agree.
    from ergoscope.envelope import _zero_by_feasibility

    assert _zero_by_feasibility(TWO_CONSTANTS, ellis(TWO_CONSTANTS)) is None


def test_lp_without_a_point_after_the_screen_passed_is_an_error(monkeypatch):
    # S3 from a 3-cycle and a transposition: the screen passes, so a zero
    # exists, and an LP that finds none is wrong, never an "absent" verdict.
    sys_ = FiniteSystem(("a", "b", "c"), (("r", Transformation((1, 2, 0))),
                                          ("s", Transformation((1, 0, 2)))))
    assert not sys_.commuting
    assert convex_koehler_zero(sys_).method == "linear_feasibility"
    monkeypatch.setattr(rational, "lp_feasible_point", lambda rows, rhs: None)
    with pytest.raises(AssertionError, match="kernel LP found no zero"):
        convex_koehler_zero(sys_)


def test_zero_two_fixed_points_rank_two():
    result = convex_koehler_zero(TWO_FIXED_POINTS)
    assert result.status == "found"
    assert zero_rank(result.certificate) == 2


def test_zero_absent_for_right_zero_pair():
    result = convex_koehler_zero(RIGHT_ZERO_PAIR)
    assert result.status == "absent"
    sg = ellis(RIGHT_ZERO_PAIR)
    assert len(kernel(sg)) == 2


def test_zero_found_by_feasibility_when_words_fail():
    # Non-commuting pair with a genuine semigroup zero (both fix 0 and
    # squash everything there eventually); word averages keep weight on
    # the non-zero element h forever, so feasibility must decide.
    sys_ = FiniteSystem(
        ("0", "1", "2"),
        (("g", Transformation((0, 0, 1))), ("h", Transformation((0, 2, 2)))),
    )
    result = convex_koehler_zero(sys_)
    assert result.status == "found"
    assert result.method == "linear_feasibility"
    assert zero_rank(result.certificate) == 1


def test_zero_witness_is_convex_combination():
    for sys_ in (cyclic_shift_system(4), TWO_FIXED_POINTS):
        cert = convex_koehler_zero(sys_).certificate
        total = sum(w for _, w in cert.witness)
        assert total == 1 and all(w > 0 for _, w in cert.witness)
        acc = None
        for t, w in cert.witness:
            term = adjoint_matrix(t).scale(w)
            acc = term if acc is None else acc + term
        assert acc == cert.matrix


def test_certify_raises_on_a_matrix_that_is_no_zero():
    # The identity is a convex combination, but not the zero of the shift.
    with pytest.raises(AssertionError, match="not the witness's convex combination"):
        _certify({(0, 1, 2): F(1)}, cyclic_shift_system(3), (0, 0, 0))
    with pytest.raises(AssertionError, match="not convex"):
        _certify({(0, 1, 2): F(1, 2)}, cyclic_shift_system(3), (0, 0, 0))
    cert = _certify({(1, 2, 0): F(1, 3), (2, 0, 1): F(1, 3), (0, 1, 2): F(1, 3)},
                    cyclic_shift_system(3), (0, 0, 0))
    assert cert.matrix == OperatorMatrix.from_rows([[F(1, 3)] * 3] * 3)


def test_commuting_systems_always_have_zero():
    rng = random.Random(47)
    for _ in range(25):
        sys_ = random_system(rng.randint(1, 6), rng.randint(1, 3),
                             commuting=True, seed=rng.randrange(10**6))
        assert convex_koehler_zero(sys_).status == "found"


def test_jacobs_full_support_isomorphic():
    sys_ = cyclic_shift_system(3)
    mu = Measure.uniform_on(3, range(3))
    result = jacobs(sys_, mu)
    assert result.semigroup.size == koehler(sys_).size
    assert result.checked_identities == 3


def test_jacobs_restriction_to_fixed_point():
    sys_ = FiniteSystem(("0", "1", "2"), (("m", Transformation((0, 1, 0))),))
    result = jacobs(sys_, Measure.dirac(3, 0))
    assert result.semigroup.size == 1
    assert result.semigroup.elements[0] == OperatorMatrix.identity(1)


def test_jacobs_two_disjoint_cycles():
    # Two 2-cycles; uniform measure on the first is invariant.
    t = Transformation((1, 0, 3, 2))
    sys_ = FiniteSystem(("a", "b", "c", "d"), (("t", t),))
    mu = Measure.uniform_on(4, [0, 1])
    result = jacobs(sys_, mu)
    assert result.semigroup.size == 2
    assert all(m.column_stochastic for m in result.semigroup.elements)


@pytest.mark.parametrize("mu", [Measure.uniform_on(4, range(4)), Measure.dirac(4, 0)],
                         ids=["mass-truncated", "invariant-prefix"])
def test_jacobs_rejects_a_measure_of_another_size(mu):
    sys_ = FiniteSystem(("0", "1", "2"), (("id", Transformation((0, 1, 2))),))
    with pytest.raises(ValueError, match="measure has 4 states, system has 3"):
        jacobs(sys_, mu)


def test_jacobs_rejects_non_invariant():
    with pytest.raises(ValueError, match="not invariant"):
        jacobs(cyclic_shift_system(3), Measure.dirac(3, 0))


def test_kernel_image_check_examples():
    rep = kernel_image_check(cyclic_shift_system(3))
    assert rep.kernel_size == 3 and rep.minimal_union == frozenset({0, 1, 2})
    rep2 = kernel_image_check(FiniteSystem(
        ("0", "1", "2"), (("m", Transformation((0, 1, 0))),)
    ))
    assert rep2.minimal_union == frozenset({0, 1})
    assert rep2.violations == ()


def test_kernel_image_check_random():
    rng = random.Random(53)
    for _ in range(30):
        sys_ = random_system(rng.randint(1, 6), rng.randint(1, 3),
                             commuting=rng.random() < 0.5,
                             seed=rng.randrange(10**6))
        assert kernel_image_check(sys_).violations == ()


def test_minimal_unique_check():
    rep = minimal_unique_check(cyclic_shift_system(4))
    assert rep.unique_measure == Measure.uniform_on(4, range(4))
    # Two commuting rotations on Z6.
    r1 = Transformation(tuple((i + 1) % 6 for i in range(6)))
    r2 = Transformation(tuple((i + 2) % 6 for i in range(6)))
    sys_ = FiniteSystem(tuple(map(str, range(6))), (("r1", r1), ("r2", r2)))
    rep2 = minimal_unique_check(sys_)
    assert rep2.unique_measure == Measure.uniform_on(6, range(6))
    with pytest.raises(ValueError, match="not minimal"):
        minimal_unique_check(TWO_FIXED_POINTS)


def test_classify_cyclic_shift():
    rep = classify(cyclic_shift_system(3))
    assert rep.unique_ergodic is Verdict.TRUE
    assert rep.norm_mean_ergodic is Verdict.TRUE
    assert rep.weak_star_mean_ergodic is Verdict.TRUE
    assert rep.invariant_measure == Measure.uniform_on(3, range(3))
    assert rep.transitive == 0
    assert rep.zero_rank == 1


def test_classify_two_fixed_points():
    rep = classify(TWO_FIXED_POINTS)
    assert rep.weak_star_mean_ergodic is Verdict.TRUE
    assert rep.unique_ergodic is Verdict.FALSE
    assert rep.zero_rank == 2
    assert rep.minimal_sets == (frozenset({0}), frozenset({1}))
    assert rep.invariant_measure is None


def test_classify_two_constants():
    rep = classify(TWO_CONSTANTS)
    assert rep.weak_star_mean_ergodic is Verdict.FALSE
    assert rep.norm_mean_ergodic is Verdict.FALSE
    assert rep.unique_ergodic is Verdict.FALSE
    assert rep.kernel_size == 2


def test_classify_chain_never_violated():
    rng = random.Random(59)
    order = {Verdict.FALSE: 0, Verdict.UNDETERMINED: 1, Verdict.TRUE: 2}
    for _ in range(40):
        sys_ = random_system(rng.randint(1, 5), rng.randint(1, 3),
                             commuting=rng.random() < 0.5,
                             seed=rng.randrange(10**6))
        rep = classify(sys_)
        assert order[rep.unique_ergodic] <= order[rep.norm_mean_ergodic]
        assert order[rep.norm_mean_ergodic] <= order[rep.weak_star_mean_ergodic]


def test_classify_size_cap_reports_undetermined():
    # Permutation generators pass the minimal-set screen, so the capped
    # closure leaves the verdicts honestly undetermined.
    sys_ = FiniteSystem(
        tuple(map(str, range(5))),
        (
            ("a", Transformation((1, 2, 3, 4, 0))),
            ("b", Transformation((1, 0, 2, 3, 4))),
        ),
    )
    rep = classify(sys_, Budget(max_elements=10, lp_max_elements=10))
    assert rep.ellis_size is None
    assert rep.weak_star_mean_ergodic is Verdict.UNDETERMINED
    assert any("size cap" in note for note in rep.notes)


def test_classify_refutation_survives_size_cap():
    # The minimal-set refutation needs no closure, so a collapsing
    # generator still yields a determinate verdict under a tiny cap.
    sys_ = FiniteSystem(
        tuple(map(str, range(5))),
        (
            ("a", Transformation((1, 2, 3, 0, 4))),
            ("b", Transformation((1, 0, 2, 3, 4))),
            ("c", Transformation((0, 0, 1, 2, 3))),
        ),
    )
    rep = classify(sys_, Budget(max_elements=10, lp_max_elements=10))
    assert rep.ellis_size is None
    assert rep.weak_star_mean_ergodic is Verdict.FALSE
    assert rep.unique_ergodic is Verdict.FALSE


def test_report_json_stable():
    rep = classify(cyclic_shift_system(3))
    a = report_json(rep)
    b = report_json(classify(cyclic_shift_system(3)))
    assert a == b
    doc = report_to_json_dict(rep)
    assert doc["unique_ergodic"] == "true"
    assert doc["zero"]["status"] == "found"
    assert doc["invariant_measure"] == ["1/3", "1/3", "1/3"]


def test_zero_search_undetermined_beyond_lp_budget():
    # Two non-commuting permutations generating all of S5: the
    # minimal-set screen cannot refute (one minimal set, bijective), and
    # the kernel is the whole group, whose 120 elements exceed the
    # feasibility budget.
    sys_ = FiniteSystem(
        tuple(map(str, range(5))),
        (
            ("cycle", Transformation((1, 2, 3, 4, 0))),
            ("swap", Transformation((1, 0, 2, 3, 4))),
        ),
    )
    result = convex_koehler_zero(sys_, budget=Budget(lp_max_elements=64))
    assert result.status == "undetermined"
    assert any("exceed" in note for note in result.notes)
    rep = classify(sys_, Budget(lp_max_elements=64))
    assert rep.weak_star_mean_ergodic is Verdict.UNDETERMINED
    assert rep.unique_ergodic is Verdict.UNDETERMINED
    # With the budget raised, feasibility certifies the group average.
    full = convex_koehler_zero(sys_, budget=Budget(lp_max_elements=128))
    assert full.status == "found"
    assert zero_rank(full.certificate) == 1


def test_refutation_for_non_qualifying_minimal_set():
    # One minimal set on which a generator collapses: no invariant
    # measure can live there, so the zero is refuted at any size.
    sys_ = FiniteSystem(
        ("a", "b", "c"),
        (("g", Transformation((0, 0, 2))), ("h", Transformation((1, 1, 2)))),
    )
    result = convex_koehler_zero(sys_)
    assert result.status == "absent"
    assert result.method == "minimal_set_refutation"
    assert "carries no invariant measure" in result.notes[0]


def test_truncated_subshift_matrix_verdict_matches_window_verdict():
    # The window truncation of the block word fails weak* mean
    # ergodicity both at the symbolic level and as a finite system.
    from ergoscope.subshift import classify_subshift

    word = rolandex_prefix(block_boundary(5) + 5)
    assert classify_subshift(word, 4).weak_star_mean_ergodic == "false"
    sys_ = windows_system(window_closure(word, 4))
    rep = classify(sys_)
    assert rep.weak_star_mean_ergodic is Verdict.FALSE
    assert rep.zero.method == "minimal_set_refutation"


def test_large_closure_stores_only_generator_graphs():
    # A 108,685-element closure: a dense Cayley table would take 44 GiB,
    # the two generator graphs take 108,685 x 3 entries each.
    sys_ = random_system(8, 3, seed=3)
    assert ellis(sys_).right.shape == (108685, 3)
    rep = classify(sys_)
    assert rep.ellis_size == 108685
    assert rep.kernel_size == 8
    assert rep.unique_ergodic is Verdict.FALSE
    assert rep.norm_mean_ergodic is Verdict.FALSE
    assert rep.weak_star_mean_ergodic is Verdict.FALSE
