"""Public entry points refuse bad input with ValueError.

Integer arguments go through ``transforms.check_int``, so bools and
non-integers are refused instead of running or crashing with a
TypeError; empty inputs and mixed traces are refused by name, and
``interleave`` refuses nets of different lengths instead of dropping the
longer net's extra steps.
"""

from fractions import Fraction

import pytest

from ergoscope.nets import constant_net, detect_limit, interleave
from ergoscope.operators import Measure, OperatorMatrix, pushforward
from ergoscope.systems import cyclic_shift_system, orbit, random_system

I = OperatorMatrix.identity(2)
CYCLE = cyclic_shift_system(3)


@pytest.mark.parametrize("call", [
    lambda: orbit(CYCLE, True),
    lambda: orbit(CYCLE, 1.5),
    lambda: random_system(True, True),
    lambda: random_system(2.5, 1),
    lambda: random_system(2, 1.5),
    lambda: cyclic_shift_system(True),
    lambda: constant_net(I, [(I, 1)], 2.5),
    lambda: Measure.uniform_on(3, []),
    lambda: pushforward([]),
    lambda: detect_limit([I, Measure.dirac(2, 0), I], 1),
    lambda: detect_limit([Measure.dirac(2, 0), I, I], 1),
], ids=["orbit-bool", "orbit-float", "random-bools", "random-float-n", "random-float-g",
        "cyclic-bool", "constant-float", "uniform-empty", "pushforward-empty",
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
    assert Measure.dirac(3, 2).weights == (0, 0, 1)
    assert Measure.uniform_on(3, [0, 2]).weights == (Fraction(1, 2), 0, Fraction(1, 2))
