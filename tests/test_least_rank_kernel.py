"""Differential tests: the kernel, the zero, the transitivity witness and
the zero search against the searches they replaced.

``kernel`` reads the least-rank elements, ``zero`` reads a one-element
kernel, ``classify`` takes the strict transitivity witness and
``convex_koehler_zero`` refutes, then solves the exact LP over the Ellis
kernel.  The references below are the earlier definitions: the principal
ideal of the product of all elements, the common right and left zeros,
the identity-based witness choice, and the search that averaged generator
words before an LP over the whole closure, with zero identities checked
by exact matrix products on the pushforward sum of the witness.
"""

import dataclasses
from fractions import Fraction
from typing import NamedTuple

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ergoscope import envelope, rational
from ergoscope.envelope import (
    Budget,
    ZeroSearchResult,
    classify,
    convex_koehler_zero,
    report_to_json_dict,
    verify_zero_on_all_elements,
)
from ergoscope.operators import adjoint_matrix, pushforward
from ergoscope.systems import FiniteSystem, random_system, transitivity
from ergoscope.transforms import (
    SizeCapError,
    Transformation,
    generate_closure,
    kernel,
    left_zeros,
    right_zeros,
    zero,
)
from oracles import principal_ideal

MAX_ELEMENTS = 150


def system_of(maps):
    return FiniteSystem(
        tuple(map(str, range(len(maps[0])))),
        tuple((f"g{i}", Transformation(tuple(m))) for i, m in enumerate(maps)),
    )


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    image = st.tuples(*[st.integers(0, n - 1)] * n)
    return system_of(draw(st.lists(image, min_size=1, max_size=3)))


def small_closure(sys_):
    try:
        return generate_closure(sys_.generator_maps, max_elements=MAX_ELEMENTS)
    except SizeCapError:
        assume(False)


# The earlier definitions.

def ref_kernel(sg):
    p = sg.elements[0].images
    for e in sg.elements[1:]:
        p = tuple(p[y] for y in e.images)
    return principal_ideal(sg, sg.index_of(Transformation(p)))


def ref_zero(sg):
    both = right_zeros(sg) & left_zeros(sg)
    assert len(both) <= 1
    return next(iter(both)) if both else None


def ref_witness(sys_, sg):
    trans = transitivity(sys_)
    has_identity = any(e.is_identity for e in sg.elements)
    return trans.witness if has_identity else trans.strict_witness


REF_MAX_WORD_LEN = 6


class RefCertificate(NamedTuple):
    matrix: object
    witness: tuple
    checks: tuple


def ref_certify(weights, sys_):
    total = sum(weights.values())
    if total != 1 or any(w < 0 for w in weights.values()):
        return None
    witness = tuple(sorted(weights.items(), key=lambda kv: kv[0].images))
    q = pushforward(witness)
    checks = []
    for name, g in sys_.generators:
        a = adjoint_matrix(g)
        if a @ q != q or q @ a != q:
            return None
        checks.append(f"A[{name}] Q = Q A[{name}] = Q")
    checks.append("Q is a convex combination of semigroup pushforwards")
    return RefCertificate(q, witness, tuple(checks))


def ref_word_average(sys_, max_len):
    gens = sys_.generator_maps
    level = {Transformation.identity(sys_.n): 1}
    counts = {}
    for _ in range(max_len):
        nxt = {}
        for t, c in level.items():
            for g in gens:
                key = g.compose(t)
                nxt[key] = nxt.get(key, 0) + c
        level = nxt
        for t, c in level.items():
            counts[t] = counts.get(t, 0) + c
        total = sum(counts.values())
        cert = ref_certify({t: Fraction(c, total) for t, c in counts.items()}, sys_)
        if cert is not None:
            return cert
    return None


def ref_feasibility(sys_, sg):
    images = [t.images for t in sg.elements]
    m, n = sg.size, sys_.n
    rows = []
    for columns in zip(sg.left.T.tolist(), sg.right.T.tolist()):
        for r in range(n):
            for c in range(n):
                for col in columns:
                    rows.append(tuple(
                        (images[col[i]][c] == r) - (images[i][c] == r) for i in range(m)
                    ))
    rows.append((Fraction(1),) * m)
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]
    solution = rational.lp_feasible_point(rows, rhs)
    if solution is None:
        return None
    cert = ref_certify({sg.elements[i]: w for i, w in enumerate(solution) if w > 0}, sys_)
    assert cert is not None
    return cert


def ref_convex_koehler_zero(sys_, budget=None):
    budget = budget or Budget()
    screen = envelope._zero_support_labels(sys_)
    if sys_.commuting:
        weights = envelope._zero_by_cesaro_product(sys_)
        cert = ref_certify({Transformation(t): w for t, w in weights.items()}, sys_)
        return ZeroSearchResult("found", cert, "cesaro_product")
    if isinstance(screen, str):
        return ZeroSearchResult("absent", None, "minimal_set_refutation", (screen,))
    cert = ref_word_average(sys_, REF_MAX_WORD_LEN)
    if cert is not None:
        return ZeroSearchResult("found", cert, "word_average")
    try:
        sg = envelope.ellis(sys_, budget.max_elements)
    except SizeCapError as exc:
        return ZeroSearchResult("undetermined", None, "word_average", (str(exc),))
    if sg.size > budget.lp_max_elements:
        return ZeroSearchResult(
            "undetermined", None, "word_average",
            (f"{sg.size} elements exceed the exact-refutation budget "
             f"{budget.lp_max_elements}",),
        )
    cert = ref_feasibility(sys_, sg)
    if cert is None:
        return ZeroSearchResult("absent", None, "linear_feasibility")
    return ZeroSearchResult("found", cert, "linear_feasibility")


def witness_of(result):
    cert = result.certificate
    return None if cert is None else (cert.matrix, cert.witness, cert.checks)


HYPOTHESIS = settings(max_examples=120, deadline=None,
                      suppress_health_check=[HealthCheck.filter_too_much])


@HYPOTHESIS
@given(systems())
def test_least_rank_kernel_and_zero_match_ideal_search(sys_):
    sg = small_closure(sys_)
    assert kernel(sg) == ref_kernel(sg)
    assert zero(sg) == ref_zero(sg)


@HYPOTHESIS
@given(systems())
# Non-commuting systems that reach each stage of the earlier search: the
# word average (S3), the exact LP, a closure above a cap of 37, and a
# closure above the LP budget of 64, with a kernel of 120 (S5) and of 1;
# and an LP whose witness is 3 of the 6 kernel elements.
@example(system_of([(1, 0, 2), (1, 2, 0)]))
@example(system_of([(0, 1, 0), (2, 1, 1)]))
@example(system_of([(2, 1, 3, 3), (0, 0, 1, 3), (2, 0, 1, 3)]))
@example(system_of([(4, 1, 4, 2, 0), (2, 1, 3, 4, 1)]))
@example(system_of([(3, 4, 2, 2, 1), (1, 0, 2, 4, 3), (4, 0, 2, 4, 4)]))
@example(system_of([(1, 3, 4, 2, 3, 3), (3, 1, 3, 2, 4, 5)]))
def test_classify_witness_and_zero_search_match_earlier_order(sys_):
    sg = small_closure(sys_)
    report = classify(sys_)
    assert report.transitive == ref_witness(sys_, sg)
    unbudgeted = Budget(max_elements=MAX_ELEMENTS, lp_max_elements=MAX_ELEMENTS)
    for budget in (Budget(), Budget(max_elements=MAX_ELEMENTS // 4),
                   Budget(lp_max_elements=8)):
        new = convex_koehler_zero(sys_, budget)
        old = ref_convex_koehler_zero(sys_, budget)
        if old.status == "undetermined":
            # The kernel LP may decide where the closure exceeded the LP
            # budget; its verdict is the one the unbudgeted LP over the
            # whole closure reaches, and a zero is unique.
            assert new.method == "linear_feasibility"
            if new.status != "undetermined":
                full = ref_convex_koehler_zero(sys_, unbudgeted)
                assert new.status == full.status
                assert new.status == "absent" or (
                    new.certificate.matrix == full.certificate.matrix)
            if new.status == "found":
                verify_zero_on_all_elements(new.certificate, sg)
        elif old.method == "word_average":
            assert (new.status, new.method) == ("found", "linear_feasibility")
            assert new.certificate.matrix == old.certificate.matrix
        else:
            assert (new.status, new.method, new.notes) == (old.status, old.method, old.notes)
            assert witness_of(new) == witness_of(old)


def test_zero_search_refutes_before_the_lp(monkeypatch):
    # Two constant maps: each is a fixed point of itself, so the orbit
    # closure of either state holds two measure-carrying minimal sets.
    sys_ = FiniteSystem(("0", "1"), (("c0", Transformation((0, 0))),
                                     ("c1", Transformation((1, 1)))))
    calls = []
    feasibility = envelope._zero_by_feasibility
    monkeypatch.setattr(envelope, "_zero_by_feasibility",
                        lambda *args: calls.append(args) or feasibility(*args))
    report = classify(sys_)
    assert report.zero.method == "minimal_set_refutation"
    assert calls == []


def test_capped_classify_builds_the_closure_once(monkeypatch):
    sys_ = random_system(6, 3, seed=63)
    budget = Budget(max_elements=50)
    expected = dataclasses.replace(ref_convex_koehler_zero(sys_, budget),
                                   method="linear_feasibility")
    calls = []
    closure = envelope.generate_closure
    monkeypatch.setattr(envelope, "generate_closure",
                        lambda *args, **kwargs: calls.append(args) or closure(*args, **kwargs))
    report = classify(sys_, budget)
    assert len(calls) == 1
    assert report.zero == expected
    assert report.zero.notes == ("semigroup closure exceeds element cap 50",)
    doc = report_to_json_dict(report)
    assert doc["ellis_size"] is None and doc["kernel_size"] is None
    assert doc["weak_star_mean_ergodic"] == "undetermined"
    assert "size cap reached: semigroup closure exceeds element cap 50" in doc["notes"]
