"""Differential tests: the kernel, the zero, the transitivity witness and
the zero search against the searches they replaced.

``kernel`` reads the least-rank elements, ``zero`` reads a one-element
kernel, ``classify`` takes the strict transitivity witness and
``convex_koehler_zero`` refutes before it averages.  The references below
are the earlier definitions: the principal ideal of the product of all
elements, the common right and left zeros, the identity-based witness
choice and the averaging-first search order.
"""

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ergoscope import envelope
from ergoscope.envelope import (
    MAX_WORD_LEN,
    Budget,
    ZeroSearchResult,
    classify,
    convex_koehler_zero,
    report_to_json_dict,
)
from ergoscope.systems import FiniteSystem, random_system, transitivity
from ergoscope.transforms import (
    SizeCapError,
    Transformation,
    generate_closure,
    kernel,
    left_zeros,
    principal_ideal,
    right_zeros,
    zero,
)

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


def ref_convex_koehler_zero(sys_, budget=None):
    budget = budget or Budget()
    if sys_.commuting:
        cert = envelope._zero_by_cesaro_product(sys_)
        return ZeroSearchResult("found", cert, "cesaro_product")
    cert = envelope._zero_by_word_average(sys_, MAX_WORD_LEN)
    if cert is not None:
        return ZeroSearchResult("found", cert, "word_average")
    reason = envelope._zero_refuted_by_minimal_sets(sys_)
    if reason is not None:
        return ZeroSearchResult("absent", None, "minimal_set_refutation", (reason,))
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
    cert = envelope._zero_by_feasibility(sys_, sg)
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
# Non-commuting systems that reach each later stage of the search: the
# word average (S3), the exact LP, a closure above a cap of 37, and a
# closure above the LP budget of 64.
@example(system_of([(1, 0, 2), (1, 2, 0)]))
@example(system_of([(0, 1, 0), (2, 1, 1)]))
@example(system_of([(2, 1, 3, 3), (0, 0, 1, 3), (2, 0, 1, 3)]))
@example(system_of([(4, 1, 4, 2, 0), (2, 1, 3, 4, 1)]))
def test_classify_witness_and_zero_search_match_earlier_order(sys_):
    sg = small_closure(sys_)
    report = classify(sys_)
    assert report.transitive == ref_witness(sys_, sg)
    for budget in (Budget(), Budget(max_elements=MAX_ELEMENTS // 4),
                   Budget(lp_max_elements=8)):
        new = convex_koehler_zero(sys_, budget)
        old = ref_convex_koehler_zero(sys_, budget)
        assert (new.status, new.method, new.notes) == (old.status, old.method, old.notes)
        assert witness_of(new) == witness_of(old)


def test_zero_search_refutes_before_averaging(monkeypatch):
    # Two constant maps: each is a fixed point of itself, so the orbit
    # closure of either state holds two measure-carrying minimal sets.
    sys_ = FiniteSystem(("0", "1"), (("c0", Transformation((0, 0))),
                                     ("c1", Transformation((1, 1)))))
    calls = []
    average = envelope._zero_by_word_average
    monkeypatch.setattr(envelope, "_zero_by_word_average",
                        lambda *args: calls.append(args) or average(*args))
    report = classify(sys_)
    assert report.zero.method == "minimal_set_refutation"
    assert calls == []


def test_capped_classify_builds_the_closure_once(monkeypatch):
    sys_ = random_system(6, 3, seed=63)
    budget = Budget(max_elements=50)
    expected = ref_convex_koehler_zero(sys_, budget)
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
