"""Every demo script runs to completion against the library in ``src``.

Demo 05's stdout is pinned: every verdict and number it prints is exact,
so a change to the subshift layer must leave it byte for byte the same.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
EXPECTED_STDOUT = {
    "05_binary_shift.py": (
        'prefix of 11111138 symbols stored as 14 runs\n'
        'start of the word: 1000000000011000 ...\n'
        '\n'
        'windows at W=7: 24\n'
        "constant windows: ['0000000', '1111111']\n"
        'verdict: 2 disjoint minimal candidates in one orbit closure at resolution W=7: not weak* mean ergodic (resolution-qualified)\n'
        'average of first coordinate over N=1116: 1/186 ~ 5.38e-03\n'
        'average of first coordinate over N=111125: 3/22225 ~ 1.35e-04\n'
        'average of first coordinate over N=11111138: 14/5555569 ~ 2.52e-06\n'
        '\n'
        'truncated system: 9 windows, 1783 closure elements\n'
        "constant maps land on: ['0000', '0001', '0011', '0110', '0111', '1000', '1100', '1110', '1111']\n"
    ),
}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, path], capture_output=True,
                            text=True, env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
    expected = EXPECTED_STDOUT.get(os.path.basename(path))
    if expected is not None:
        assert result.stdout == expected
