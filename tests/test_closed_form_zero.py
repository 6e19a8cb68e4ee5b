"""The zero of the convex Köhler semigroup in closed form.

Column x of the zero Q is the uniform measure on M(x), the one invariant
support inside the orbit closure {x} u Sx, and ``ZeroCertificate`` holds
Q as these support labels.  The references below are independent of
that representation: the witness each search certifies, summed as
``Fraction`` matrices (the exact LP over the kernel for non-commuting
generators, the Cesàro product for commuting ones); the uniform average
of A_h over the group H = e o S o e of a kernel idempotent e, read off the
closure; and the oracle ``absorbed``, which pushes the columns of any Q
forward, for the label check ``_absorbed``.
"""

from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ergoscope import envelope
from ergoscope.envelope import (
    Budget,
    ZeroCertificate,
    _absorbed,
    _zero_support_labels,
    classify,
    convex_koehler_zero,
    report_json,
)
from ergoscope.operators import Measure, OperatorMatrix, adjoint_matrix
from ergoscope.systems import FiniteSystem, cyclic_shift_system, invariant_supports, random_system
from ergoscope.transforms import SizeCapError, Transformation, generate_closure, idempotents, kernel
from oracles import absorbed, absorbs, convex_combination

CAP = 400
HYPOTHESIS = settings(max_examples=120, deadline=None,
                      suppress_health_check=[HealthCheck.filter_too_much])


def system_of(maps):
    return FiniteSystem(tuple(map(str, range(len(maps[0])))),
                        tuple((f"g{i}", Transformation(tuple(m))) for i, m in enumerate(maps)))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    image = st.tuples(*[st.integers(0, n - 1)] * n)
    return system_of(draw(st.lists(image, min_size=1, max_size=3)))


@st.composite
def commuting_systems(draw):
    return random_system(draw(st.integers(1, 7)), draw(st.integers(1, 3)), commuting=True,
                         seed=draw(st.integers(0, 10**6)))


def small_closure(sys_):
    try:
        return generate_closure(sys_.generator_maps, max_elements=CAP)
    except SizeCapError:
        assume(False)


def orbit_closure(sys_, x):
    """{x} u Sx by a search from x."""
    seen, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for g in sys_.generator_maps:
            if g(y) not in seen:
                seen.add(g(y))
                todo.append(g(y))
    return seen


def ref_closed_form(sys_):
    """Column x is the uniform measure on the one invariant support inside
    the orbit closure of x."""
    columns = []
    for x in range(sys_.n):
        (m,) = [m for m in invariant_supports(sys_) if m <= orbit_closure(sys_, x)]
        columns.append(Measure.uniform_on(sys_.n, m).weights)
    return OperatorMatrix(tuple(zip(*columns)))


def witness_sum(cert):
    return convex_combination((adjoint_matrix(t), w) for t, w in cert.witness)


def h_average(sg):
    """The uniform average of A_h over H = e o S o e for a kernel idempotent e."""
    e = min(idempotents(sg) & kernel(sg))
    images = sg.images
    group = {tuple(images[e][images[s][images[e]]].tolist()) for s in range(sg.size)}
    return convex_combination((adjoint_matrix(Transformation(h)), Fraction(1, len(group)))
                              for h in group)


@HYPOTHESIS
@given(systems())
def test_closed_form_is_the_lp_certificate(sys_):
    """A zero exists iff the screen passes, and then the LP's witness sums
    to the closed form."""
    assume(not sys_.commuting)
    small_closure(sys_)
    result = convex_koehler_zero(sys_, Budget(max_elements=CAP, lp_max_elements=CAP))
    labels = _zero_support_labels(sys_)
    if isinstance(labels, str):
        assert (result.status, result.method, result.notes) == (
            "absent", "minimal_set_refutation", (labels,))
        return
    assert (result.status, result.method) == ("found", "linear_feasibility")
    cert = result.certificate
    assert cert.labels == labels and cert.supports == invariant_supports(sys_)
    assert cert.matrix == ref_closed_form(sys_) == witness_sum(cert)


@HYPOTHESIS
@given(commuting_systems())
def test_closed_form_is_the_cesaro_product(sys_):
    result = convex_koehler_zero(sys_)
    assert (result.status, result.method) == ("found", "cesaro_product")
    cert = result.certificate
    assert cert.matrix == ref_closed_form(sys_) == witness_sum(cert)
    assert cert.rank() == len(invariant_supports(sys_))


@HYPOTHESIS
@given(systems() | commuting_systems())
def test_closed_form_is_the_group_average(sys_):
    """Wherever the screen passes, the closed form is the H-average, whether
    or not a search within its budget finds a certificate."""
    sg = small_closure(sys_)
    labels = _zero_support_labels(sys_)
    assume(not isinstance(labels, str))
    q = ZeroCertificate(labels, invariant_supports(sys_), (), ()).matrix
    assert q == ref_closed_form(sys_) == h_average(sg)


@HYPOTHESIS
@given(systems() | commuting_systems())
def test_kernel_idempotents_fix_each_invariant_support(sys_):
    """Every element permutes an invariant support, and an idempotent
    permutation is the identity."""
    sg = small_closure(sys_)
    for e in idempotents(sg) & kernel(sg):
        for m in invariant_supports(sys_):
            assert all(sg.images[e][x] == x for x in m)


@st.composite
def closed_forms_and_maps(draw):
    """A closed-form certificate on n states, random maps, and up to three
    maps that absorb it: they permute each support and keep every label."""
    n = draw(st.integers(1, 6))
    member = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    member[draw(st.integers(0, n - 1))] = n      # at least one support
    blocks = sorted({frozenset(x for x in range(n) if member[x] == b)
                     for b in set(member) if b >= 0}, key=min)
    index = {x: i for i, m in enumerate(blocks) for x in m}
    labels = tuple(index[x] if x in index else draw(st.integers(0, len(blocks) - 1))
                   for x in range(n))
    cert = ZeroCertificate(labels, tuple(blocks), (), ())
    maps = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        images = [None] * n
        for m in blocks:
            for x, y in zip(sorted(m), draw(st.permutations(sorted(m)))):
                images[x] = y
        for x in range(n):
            if images[x] is None:
                images[x] = draw(st.sampled_from([y for y in range(n) if labels[y] == labels[x]]))
        maps.append(tuple(images))
    return cert, maps


@settings(max_examples=200, deadline=None)
@given(closed_forms_and_maps())
def test_label_check_matches_the_oracle(case):
    cert, maps = case
    assume(maps)
    images = np.array(maps)
    expected = absorbed(cert.matrix, images).tolist()
    assert [absorbs(cert.matrix, row) for row in maps] == expected
    assert _absorbed(cert, images).tolist() == expected


def test_classify_builds_the_zero_matrix_on_first_read(monkeypatch):
    built = []
    init = OperatorMatrix.__post_init__
    monkeypatch.setattr(OperatorMatrix, "__post_init__", lambda m: built.append(m) or init(m))
    for sys_ in (cyclic_shift_system(6), random_system(5, 2, seed=6)):
        built.clear()
        report = classify(sys_)
        assert report.zero.status == "found" and built == []
        q = report.zero.certificate.matrix
        assert built == [q] and report.zero.certificate.matrix is q
        report_json(report)
        assert built == [q]


def test_classify_verifies_the_zero_on_every_closure_element(monkeypatch):
    """No size limit: 1,001 elements, one more than the earlier limit."""
    checked = []
    check = envelope.verify_zero_on_all_elements
    monkeypatch.setattr(envelope, "verify_zero_on_all_elements",
                        lambda cert, sg: checked.append(sg.size) or check(cert, sg))
    report = classify(cyclic_shift_system(1001))
    assert report.zero.status == "found" and checked == [1001]
