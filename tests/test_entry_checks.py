"""Public entry points refuse bad input with ValueError.

Integer arguments go through ``transforms.check_int``, so bools and
non-integers are refused instead of running or crashing with a
TypeError; empty inputs and mixed traces are refused by name, and
``interleave`` refuses nets of different lengths instead of dropping the
longer net's extra steps.  The constructors' own checks are pinned by
their messages.
"""

from fractions import Fraction

import numpy as np
import pytest

from ergoscope.envelope import minimal_unique_check
from ergoscope.nets import (
    NetSample,
    abel_net,
    cesaro_net,
    constant_net,
    detect_limit,
    interleave,
    verify_net,
)
from ergoscope.operators import Measure, OperatorMatrix, fixed_space, pushforward
from ergoscope.subshift import BinaryWord, CylinderFunction, rolandex_prefix
from ergoscope.systems import FiniteSystem, cyclic_shift_system, orbit, random_system
from ergoscope.transforms import (
    Transformation,
    factor_epimorphism,
    generate_closure,
    restriction_epimorphism,
)

F = Fraction
I = OperatorMatrix.identity(2)
CYCLE = cyclic_shift_system(3)
SWAP = Transformation((1, 0))
S3 = FiniteSystem(("0", "1", "2"), (("swap", Transformation((1, 0, 2))),
                                    ("turn", Transformation((1, 2, 0)))))


@pytest.mark.parametrize("call", [
    lambda: orbit(CYCLE, True),
    lambda: orbit(CYCLE, 1.5),
    lambda: random_system(True, True),
    lambda: random_system(2.5, 1),
    lambda: random_system(2, 1.5),
    lambda: cyclic_shift_system(True),
    lambda: constant_net(I, [(I, 1)], 2.5),
    lambda: Measure.uniform_on(3, []),
    lambda: Measure.dirac(3, 1.0),
    lambda: Measure.dirac(3, True),
    lambda: Measure.uniform_on(3, [True]),
    lambda: Measure.uniform_on(3, [0, 2.0]),
    lambda: Measure.uniform_on(3, [1, True]),
    lambda: pushforward([]),
    lambda: detect_limit([I, Measure.dirac(2, 0), I], 1),
    lambda: detect_limit([Measure.dirac(2, 0), I, I], 1),
], ids=["orbit-bool", "orbit-float", "random-bools", "random-float-n", "random-float-g",
        "cyclic-bool", "constant-float", "uniform-empty", "dirac-float", "dirac-bool",
        "uniform-bool", "uniform-float", "uniform-int-and-bool", "pushforward-empty",
        "detect-limit-matrix-first", "detect-limit-measure-first"])
def test_bad_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("a, b", [(4, 2), (2, 4)])
def test_interleave_refuses_nets_of_different_lengths(a, b):
    step = [(I, Fraction(1))]
    with pytest.raises(ValueError):
        interleave(constant_net(I, step, a), constant_net(I, step, b))
    assert len(interleave(constant_net(I, step, a), constant_net(I, step, a)).steps) == 2 * a


@pytest.mark.parametrize("call, state", [
    (lambda: Measure.dirac(3, 7), "7"),
    (lambda: Measure.dirac(3, -1), "-1"),
    (lambda: Measure.uniform_on(3, [0, 5]), "5"),
    (lambda: Measure.uniform_on(3, [-2, 1]), "-2"),
], ids=["dirac-above", "dirac-negative", "uniform-above", "uniform-negative"])
def test_measures_name_a_state_outside_the_state_set(call, state):
    with pytest.raises(ValueError, match=rf"state {state} out of range\(3\)"):
        call()
    assert Measure.dirac(3, 2).weights == Measure.dirac(3, np.int64(2)).weights == (0, 0, 1)
    assert Measure.uniform_on(3, [0, 2]).weights == (Fraction(1, 2), 0, Fraction(1, 2))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: OperatorMatrix(((F(1), F(0)),)), ValueError,
                 "matrix must be square", id="matrix-not-square"),
    pytest.param(lambda: Measure((F(3, 2), F(-1, 2))), ValueError,
                 "negative mass", id="measure-negative"),
    pytest.param(lambda: Measure((F(1, 2),)), ValueError,
                 "total mass must be exactly 1", id="measure-mass"),
    pytest.param(lambda: fixed_space([]), ValueError,
                 "need at least one matrix", id="fixed-space-empty"),
    pytest.param(lambda: FiniteSystem((), (("g", Transformation((0,))),)), ValueError,
                 "empty state set", id="system-no-states"),
    pytest.param(lambda: FiniteSystem(("a", "a"), (("g", SWAP),)), ValueError,
                 "state labels must be distinct", id="system-repeated-labels"),
    pytest.param(lambda: FiniteSystem(("a", "b"), ()), ValueError,
                 "need at least one generator", id="system-no-generators"),
    pytest.param(lambda: FiniteSystem(("a",), (("g", SWAP),)), ValueError,
                 "generator 'g' has wrong degree", id="system-wrong-degree"),
    pytest.param(lambda: Transformation(()), ValueError,
                 "empty state set", id="map-empty"),
    pytest.param(lambda: Transformation((0, 2)), ValueError,
                 "image out of range", id="map-out-of-range"),
    pytest.param(lambda: generate_closure([]), ValueError,
                 "need at least one generator", id="closure-empty"),
    pytest.param(lambda: restriction_epimorphism(generate_closure([SWAP]), []), ValueError,
                 "empty subset", id="restriction-empty"),
    pytest.param(lambda: factor_epimorphism(generate_closure([SWAP]), [0]), ValueError,
                 "phi must assign a factor state to every state", id="factor-short"),
    pytest.param(lambda: factor_epimorphism(generate_closure([SWAP]), [0, 2]), ValueError,
                 "phi must be surjective onto an initial segment", id="factor-gap"),
    pytest.param(lambda: BinaryWord(()), ValueError, "empty word", id="word-empty"),
    pytest.param(lambda: BinaryWord(((0, 1), (0, 2))), ValueError,
                 "runs must alternate", id="word-runs"),
    pytest.param(lambda: rolandex_prefix(10**7 + 1).bits(), MemoryError,
                 "word too long to materialize", id="word-too-long"),
    pytest.param(lambda: CylinderFunction(2, (F(0), F(1))), ValueError,
                 "need one value per length-depth 0/1 word", id="cylinder-length"),
    pytest.param(lambda: abel_net(I, [1]), ValueError,
                 "Abel means need r > 1", id="abel-net-r"),
    pytest.param(lambda: verify_net(cesaro_net(I, [1]), [I], "up", 0), ValueError,
                 "side must be left, right or two_sided", id="verify-side"),
    pytest.param(lambda: NetSample(()), ValueError, "empty net", id="net-empty"),
    pytest.param(lambda: minimal_unique_check(S3), ValueError,
                 "only for commuting generators", id="minimal-check-noncommuting"),
])
def test_constructor_checks_raise_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()
