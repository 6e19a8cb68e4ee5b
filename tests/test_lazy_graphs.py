"""The generator graphs are built on first read, and the closure search
keeps a set of bytes without its hash order reaching any output."""

import os
import subprocess
import sys
from functools import cached_property

from ergoscope.envelope import classify
from ergoscope.systems import random_system
from ergoscope.transforms import TransSemigroup

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def count_builds(monkeypatch, name):
    descriptor = TransSemigroup.__dict__[name]
    assert isinstance(descriptor, cached_property)
    build, calls = descriptor.func, []

    def counted(sg):
        calls.append(sg.size)
        return build(sg)

    monkeypatch.setattr(descriptor, "func", counted)
    return calls


def test_classify_builds_a_graph_only_where_it_is_read(monkeypatch):
    right, left = count_builds(monkeypatch, "right"), count_builds(monkeypatch, "left")
    # Refuted by its minimal sets: no caller reads a graph of the
    # 108,685-element closure.
    report = classify(random_system(8, 3, seed=3))
    assert (report.zero.status, report.zero.method) == ("absent", "minimal_set_refutation")
    assert right == left == []
    # The kernel LP composes the kernel rows with the generator rows
    # itself, so it reads no graph either.
    report = classify(random_system(8, 3, seed=2))
    assert (report.zero.status, report.zero.method) == ("found", "linear_feasibility")
    assert right == left == []



SCRIPT = """
import hashlib
import numpy as np
from ergoscope.systems import random_system
from ergoscope.transforms import generate_closure

gen_sets = [random_system(n, 3, seed=seed).generator_maps
            for n, seed in ((8, 3), (8, 2), (7, 17), (5, 1))]
# One permutation with cycles 5, 7, 8, 9 and 11: 27,720 levels of one element.
ends = [0, 5, 12, 20, 29, 40]
gen_sets.append([tuple(a + (x - a + 1) % (b - a)
                       for a, b in zip(ends, ends[1:]) for x in range(a, b))])
for gens in gen_sets:
    sg = generate_closure(gens)
    digest = hashlib.sha256()
    for part in (sg.images, sg.right, sg.left, np.array(sg.generator_indices)):
        digest.update(part.tobytes())
    print(sg.size, digest.hexdigest())
"""


def closure_digests(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_closures_are_byte_identical_under_any_hash_seed():
    first = closure_digests("0")
    assert first.split()[::2] == ["108685", "3596", "11061", "107", "27720"]
    assert closure_digests("7") == first
