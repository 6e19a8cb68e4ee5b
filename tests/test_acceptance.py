"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ergoscope.cosgrid import (
    build_grid,
    iterate_stepwise,
    pi_projection,
    uniform_weights,
)
from ergoscope.envelope import (
    Verdict,
    classify,
    convex_koehler_zero,
    ellis,
    jacobs,
    kernel_image_check,
    koehler,
    power_periodicity,
)
from ergoscope.nets import (
    cesaro,
    constant_net,
    detect_limit,
    folner_box,
    folner_net,
    interleave,
    verify_net,
)
from ergoscope.operators import (
    OperatorMatrix,
    adjoint_matrix,
    decomposition_check,
    fixed_space,
    invariant_measures,
    koopman_matrix,
    separation_check,
)
from ergoscope.subshift import (
    FIRST_COORDINATE,
    block_boundary,
    cesaro_trace,
    classify_subshift,
    fixed_windows,
    rolandex_prefix,
    window_closure,
)
from ergoscope.systems import FiniteSystem, orbit, random_system, transitivity, congruence_closure
from ergoscope.transforms import Transformation, kernel, zero
from oracles import cayley_table, enumerate_all_ideals, multiplicative_on_all_pairs, principal_ideal

F = Fraction


def report_pass(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


# ----------------------------------------------------------------------
# Corpora


def make_mixed_corpus():
    systems = []
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        g = rng.randint(1, 3)
        systems.append(random_system(n, g, commuting=False, seed=seed))
    return systems


def make_commuting_corpus():
    return [
        random_system(random.Random(10_000 + seed).randint(1, 6),
                      random.Random(20_000 + seed).randint(1, 3),
                      commuting=True, seed=seed)
        for seed in range(200)
    ]


@pytest.fixture(scope="module")
def mixed_corpus():
    systems = make_mixed_corpus()
    return [(sys_, ellis(sys_)) for sys_ in systems]


@pytest.fixture(scope="module")
def commuting_corpus():
    return make_commuting_corpus()


# ----------------------------------------------------------------------
# Criterion 1: kernel/zero agree with exhaustive ideal enumeration.


def oracle_kernel(sg):
    """Independent route: inclusion-minimal principal ideal.

    Small semigroups get full subset enumeration; mid-size ones the
    intersection of all principal ideals; large ones start from a
    minimal-rank principal ideal, shrink to an inclusion-minimal one and
    verify minimality, skipping elements whose translates are full (for
    those J(a) is everything).
    """
    m = sg.size
    if m <= 12:
        result = set(range(m))
        for ideal in enumerate_all_ideals(sg):
            result &= ideal
        return frozenset(result)
    if m <= 400:
        cur = None
        for a in range(m):
            j = principal_ideal(sg, a)
            cur = j if cur is None else cur & j
        return frozenset(cur)
    table = cayley_table(sg)

    def full_translates(a):
        return (len(np.unique(table[:, a])) == m
                and len(np.unique(table[a, :])) == m)

    a0 = min(range(m), key=lambda i: sg.elements[i].rank)
    current = principal_ideal(sg, a0)
    shrunk = True
    while shrunk:
        shrunk = False
        for b in sorted(current):
            if full_translates(b):
                continue
            j = principal_ideal(sg, b)
            if j < current:
                current = j
                shrunk = True
                break
    for b in current:
        if full_translates(b):
            assert current == frozenset(range(m))
        else:
            assert principal_ideal(sg, b) == current
    for q in current:
        assert set(table[:, q].tolist()) <= current
        assert set(table[q, :].tolist()) <= current
    return current


def test_criterion_1_kernel_zero_oracle(mixed_corpus):
    start = time.monotonic()
    for sys_, sg in mixed_corpus:
        expected = oracle_kernel(sg)
        assert kernel(sg) == expected, sys_.name
        z = zero(sg)
        if len(expected) == 1:
            assert z == next(iter(expected)), sys_.name
        else:
            assert z is None, sys_.name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report_pass(1, "kernel/zero oracle equivalence",
                f"200 systems, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 2: mean ergodic theorem at finite scale.


def _folner_ns(d):
    return {1: (8, 16, 32), 2: (4, 8, 12), 3: (3, 5, 8)}[d]


def test_criterion_2_mean_ergodic_nets(commuting_corpus):
    start = time.monotonic()
    for sys_ in commuting_corpus:
        result = convex_koehler_zero(sys_)
        assert result.status == "found", sys_.name
        q = result.certificate.matrix
        adjoints = [adjoint_matrix(g) for g in sys_.generator_maps]

        # Exact at the detected period: the product of the per-generator
        # period averages equals the zero, computed by direct matrix
        # sums rather than through the certificate's weights.
        transient = 0
        exact = None
        for g, a in zip(sys_.generator_maps, adjoints):
            pre, per, _ = power_periodicity(g)
            transient += pre + per
            acc = OperatorMatrix.zeros(sys_.n)
            power = OperatorMatrix.identity(sys_.n)
            for k in range(pre + per):
                if k >= pre:
                    acc = acc + power.scale(F(1, per))
                power = power @ a
            exact = acc if exact is None else exact @ acc
        assert exact == q, sys_.name

        # Cesàro / Følner-box traces: defect bound 2/N and convergence.
        ns = _folner_ns(len(adjoints))
        for n in ns:
            box = folner_box(adjoints, n)
            eye = OperatorMatrix.identity(sys_.n)
            for a in adjoints:
                defect = (eye - a) @ box
                worst = max(abs(x) for row in defect.rows for x in row)
                assert worst <= F(2, n), sys_.name
            assert box.max_entry_distance(q) <= F(transient, n), sys_.name

        # Interleaved mixed net: still converges to the same zero.
        mixed = interleave(folner_net(adjoints, ns),
                           folner_net(adjoints, tuple(n + 1 for n in ns)))
        bound = F(transient, min(ns))
        limit = detect_limit(mixed.matrices(), 2 * bound, window=2)
        assert limit is not None
        assert limit.max_entry_distance(q) <= bound
        verdict = verify_net(mixed, adjoints, "left", F(2, min(ns)))
        assert verdict.status == "ergodic", sys_.name

    # Zero absent: constructive net with two accumulation points, from a
    # semigroup whose kernel holds two right zeros.
    q1, q2 = Transformation((0, 1, 0)), Transformation((0, 1, 1))
    pair = FiniteSystem(("a", "b", "c"), (("q1", q1), ("q2", q2)))
    assert convex_koehler_zero(pair).status == "absent"
    a1, a2 = adjoint_matrix(q1), adjoint_matrix(q2)
    alternating = interleave(constant_net(a1, [(a1, F(1))], 6),
                             constant_net(a2, [(a2, F(1))], 6))
    verdict = verify_net(alternating, [a1, a2], "left", 0)
    assert verdict.status == "ergodic"
    assert detect_limit(alternating.matrices(), F(1, 10)) is None
    accumulation = set(alternating.matrices())
    assert len(accumulation) == 2

    elapsed = time.monotonic() - start
    report_pass(2, "zero element governs all ergodic nets",
                f"200 commuting systems + alternating witness, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# Criterion 3: separation, decomposition and zero existence agree.


def test_criterion_3_characterization_agreement(commuting_corpus):
    for sys_ in commuting_corpus:
        zero_found = convex_koehler_zero(sys_).status == "found"
        fix_fn = fixed_space([koopman_matrix(g) for g in sys_.generator_maps])
        fix_meas = fixed_space([adjoint_matrix(g) for g in sys_.generator_maps])
        sep = separation_check(fix_fn, fix_meas)
        dec = decomposition_check(sys_).direct_sum
        assert sep == dec == zero_found, sys_.name
    report_pass(3, "separation = decomposition = zero existence",
                "200 commuting systems")


# ----------------------------------------------------------------------
# Criterion 4: implication chain and transitive equivalence.


def transitive_commuting_systems(count):
    found = []
    seed = 0
    while len(found) < count:
        rng = random.Random(30_000 + seed)
        sys_ = random_system(rng.randint(2, 6), rng.randint(1, 3),
                             commuting=True, seed=50_000 + seed)
        if transitivity(sys_).witness is not None:
            found.append(sys_)
        seed += 1
    return found


def test_criterion_4_chain_and_transitive(commuting_corpus):
    order = {Verdict.FALSE: 0, Verdict.UNDETERMINED: 1, Verdict.TRUE: 2}
    non_amenable = [
        FiniteSystem(("0", "1"), (("c0", Transformation((0, 0))),
                                  ("c1", Transformation((1, 1))))),
        FiniteSystem(("a", "b", "c"), (("q1", Transformation((0, 1, 0))),
                                       ("q2", Transformation((0, 1, 1))))),
    ]
    for sys_ in commuting_corpus[:60] + non_amenable:
        rep = classify(sys_)
        assert order[rep.unique_ergodic] <= order[rep.norm_mean_ergodic]
        assert order[rep.norm_mean_ergodic] <= order[rep.weak_star_mean_ergodic]

    hits = 0
    for sys_ in transitive_commuting_systems(100):
        rep = classify(sys_)
        assert rep.weak_star_mean_ergodic is Verdict.TRUE
        assert rep.unique_ergodic is Verdict.TRUE
        hits += 1
    assert hits == 100
    report_pass(4, "implication chain and transitive equivalence",
                "100 transitive commuting systems, 100% uniquely ergodic")


# ----------------------------------------------------------------------
# Criterion 5: unique ergodicity triple agreement.


def test_criterion_5_unique_ergodicity_triple(commuting_corpus):
    for sys_ in commuting_corpus:
        cert = convex_koehler_zero(sys_).certificate
        rank_one = cert.rank() == 1
        measures = invariant_measures(sys_)
        single_measure = len(measures) == 1

        # Function-side limit by independent periodic averaging of the
        # Koopman matrices: every basis functional's Cesàro limit is
        # constant iff all rows agree.
        limit = None
        for g in sys_.generator_maps:
            pre, per, _ = power_periodicity(g)
            km = koopman_matrix(g)
            acc = OperatorMatrix.zeros(sys_.n)
            power = OperatorMatrix.identity(sys_.n)
            for k in range(pre + per):
                if k >= pre:
                    acc = acc + power.scale(F(1, per))
                power = power @ km
            limit = acc if limit is None else limit @ acc
        constant_rows = all(row == limit.rows[0] for row in limit.rows)

        assert rank_one == single_measure == constant_rows, sys_.name
        if rank_one:
            mu = measures[0]
            assert limit.rows[0] == mu.weights, sys_.name
            for i in range(sys_.n):
                basis = tuple(F(1) if j == i else F(0) for j in range(sys_.n))
                value = mu.pairing(basis)
                assert limit.apply(basis) == (value,) * sys_.n
    report_pass(5, "rank-one zero = unique measure = constant limits",
                "200 commuting systems, limits equal the integral exactly")


# ----------------------------------------------------------------------
# Criterion 6: kernel images inside the union of minimal sets.


def test_criterion_6_kernel_image(mixed_corpus, commuting_corpus):
    checked = 0
    for sys_, sg in mixed_corpus:
        assert kernel_image_check(sys_, _ellis=sg).violations == ()
        checked += 1
    for sys_ in commuting_corpus:
        assert kernel_image_check(sys_).violations == ()
        checked += 1
    report_pass(6, "kernel images lie in the union of minimal sets",
                f"{checked} systems")


# ----------------------------------------------------------------------
# Criterion 7: block-word reproduction.


def test_criterion_7_rolandex():
    start = time.monotonic()
    n = block_boundary(8)
    word = rolandex_prefix(n)
    ws = window_closure(word, 7)
    assert fixed_windows(ws) == [(0,) * 7, (1,) * 7]
    report = classify_subshift(word, 7)
    assert report.weak_star_mean_ergodic == "false"
    value = cesaro_trace(word, FIRST_COORDINATE, [n])[0]
    assert value == F(28, n)
    assert float(value) < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report_pass(7, "block word is not weak* mean ergodic",
                f"prefix {n}, trace 28/{n}, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# Criterion 8: |cos| multiplication operator reproduction.


def test_criterion_8_cos_grid():
    start = time.monotonic()
    model = build_grid(2, 100)
    mu = uniform_weights(model)
    final = iterate_stepwise(model, mu, 10**5)  # asserts pi-mass each step
    distance = float(np.abs(final - pi_projection(model, mu)).sum())
    assert distance <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report_pass(8, "pi point masses absorb the iteration",
                f"l1 distance {distance:.2e} at n=1e5, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# Criterion 9: epimorphism checks.


def test_criterion_9_epimorphisms():
    from ergoscope.transforms import factor_epimorphism, restriction_epimorphism

    verified = 0
    jacobs_checked = 0
    for seed in range(100):
        rng = random.Random(70_000 + seed)
        sys_ = random_system(rng.randint(2, 5), rng.randint(1, 2),
                             commuting=rng.random() < 0.5, seed=seed)
        sg = ellis(sys_)
        checks = sg.size * len(sg.generator_indices)

        def all_pairs(target, element_map):
            return multiplicative_on_all_pairs(sg, target.images[list(element_map)])

        subset = orbit(sys_, rng.randrange(sys_.n)).states
        restriction = restriction_epimorphism(sg, subset)
        assert restriction.surjective
        assert restriction.checked_identities == checks
        assert all_pairs(restriction.target, restriction.element_map)

        x, y = rng.randrange(sys_.n), rng.randrange(sys_.n)
        phi = congruence_closure(sys_, [(x, y)])
        factor = factor_epimorphism(sg, phi)
        assert factor.surjective
        assert factor.checked_identities == checks
        assert all_pairs(factor.target, factor.element_map)
        verified += 1

        for mu in invariant_measures(sys_):
            result = jacobs(sys_, mu)
            assert result.checked_identities == checks
            assert all_pairs(result.semigroup.bridge, result.restriction_map)
            jacobs_checked += 1
    assert verified == 100
    report_pass(9, "restriction/factor/Jacobs epimorphisms verified",
                f"100 instances, {jacobs_checked} Jacobs restrictions")


# ----------------------------------------------------------------------
# Criterion 10: byte-identical artifacts on reruns.


def test_criterion_10_determinism(tmp_path):
    from ergoscope.envelope import report_json

    for seed in (3, 14, 15, 92, 65):
        sys_ = random_system(5, 2, seed=seed)
        assert report_json(classify(sys_)) == report_json(classify(sys_))

    descriptor = {
        "states": ["0", "1", "2"],
        "generators": [
            {"name": "id", "map": {"0": "0", "1": "1", "2": "2"}},
            {"name": "m", "map": {"0": "0", "1": "1", "2": "0"}},
        ],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(descriptor))
    outputs = []
    for tag in ("first", "second"):
        json_out = tmp_path / f"{tag}.json"
        csv_out = tmp_path / f"{tag}.csv"
        for args in (
            ["classify", str(path), "--json-out", str(json_out)],
            ["trace", str(path), "--net", "folner", "--N", "8",
             "--csv-out", str(csv_out)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "ergoscope.cli", *args],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outputs.append((json_out.read_bytes(), csv_out.read_bytes()))
    assert outputs[0] == outputs[1]

    small = block_boundary(4) + 4
    runs = []
    for tag in ("r1", "r2"):
        out_dir = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "ergoscope.cli", "reproduce", "rolandex",
             "--horizon", str(small), "--window", "3", "--out-dir", str(out_dir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(((out_dir / "rolandex_report.json").read_bytes(),
                     (out_dir / "rolandex_trace.csv").read_bytes()))
    assert runs[0] == runs[1]
    report_pass(10, "byte-identical JSON/CSV artifacts across reruns")
