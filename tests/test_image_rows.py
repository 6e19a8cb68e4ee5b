"""Maps stay image rows: matrices and label maps are built only where read.

``koehler`` builds only the pushforwards its bridge check compares, and
``MatrixSemigroup.elements`` builds the rest on first read; the CLI's
``ellis`` and ``kernel`` commands print label maps straight from the
closure's image rows.  ``classify`` builds the powers and witness maps of
a zero without checking their images again.
"""

import json

from ergoscope import cli, envelope
from ergoscope.envelope import MatrixSemigroup, jacobs, koehler
from ergoscope.operators import Measure, adjoint_matrix
from ergoscope.systems import cyclic_shift_system, random_system
from ergoscope.transforms import Transformation

SYSTEM = random_system(8, 3, seed=0)  # 3,374 elements


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_koehler_builds_only_the_checked_matrices(monkeypatch):
    calls = count_calls(monkeypatch, envelope, "adjoint_matrix")
    kg = koehler(SYSTEM)
    assert kg.size == kg.bridge.size == 3374
    assert len(calls) <= 27
    eager = tuple(adjoint_matrix(t) for t in kg.bridge.elements)
    assert kg.elements == eager
    assert kg.elements is kg.elements


def test_matrix_semigroup_is_its_bridge():
    assert list(MatrixSemigroup.__dataclass_fields__) == ["bridge"]
    shift = cyclic_shift_system(3)
    result = jacobs(shift, Measure.uniform_on(3, range(3)))
    assert result.semigroup.elements == tuple(
        adjoint_matrix(t) for t in result.semigroup.bridge.elements)
    assert result.semigroup.elements == koehler(shift).elements


def descriptor(sys_):
    return {
        "states": list(sys_.states),
        "generators": [{"name": name, "map": {sys_.states[x]: sys_.states[y]
                                              for x, y in enumerate(g.images)}}
                       for name, g in sys_.generators],
    }


def test_kernel_command_reads_image_rows(tmp_path, monkeypatch, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(descriptor(SYSTEM)))
    calls = count_calls(monkeypatch, Transformation, "__post_init__")
    assert cli.main(["kernel", str(path)]) == cli.EXIT_OK
    assert len(calls) < 100
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 3374
    monkeypatch.undo()
    sg = envelope.ellis(SYSTEM)
    assert doc["kernel_elements"] == [
        {SYSTEM.states[x]: SYSTEM.states[sg.elements[i](x)] for x in range(SYSTEM.n)}
        for i in doc["kernel_indices"]
    ]


def test_ellis_command_reads_image_rows(tmp_path, monkeypatch, capsys):
    sys_ = random_system(5, 2, seed=4)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(descriptor(sys_)))
    calls = count_calls(monkeypatch, Transformation, "__post_init__")
    assert cli.main(["ellis", str(path)]) == cli.EXIT_OK
    assert len(calls) < 10
    doc = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    sg = envelope.ellis(sys_)
    assert doc["elements"] == [
        {sys_.states[x]: sys_.states[t(x)] for x in range(sys_.n)} for t in sg.elements
    ]


def test_classify_checks_no_power_or_witness_map_again(monkeypatch):
    """The powers of ``power_periodicity`` and the witness maps of ``_certify``
    compose maps already checked, so ``classify`` of an n-cycle checks no
    more maps for n = 200 than for n = 20."""
    calls = count_calls(monkeypatch, Transformation, "__post_init__")
    counts = []
    for n in (20, 200):
        sys_ = cyclic_shift_system(n)
        calls.clear()
        report = envelope.classify(sys_)
        counts.append(len(calls))
        assert len(report.zero.certificate.witness) == n
    assert counts[0] == counts[1]
