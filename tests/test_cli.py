import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(ROOT, "docs", "report.schema.json")

CYCLIC = {
    "states": ["0", "1", "2"],
    "generators": [{"name": "shift", "map": {"0": "1", "1": "2", "2": "0"}}],
}
TWO_CONSTANTS = {
    "states": ["0", "1"],
    "generators": [
        {"name": "c0", "map": {"0": "0", "1": "0"}},
        {"name": "c1", "map": {"0": "1", "1": "1"}},
    ],
}
TWO_FIXED = {
    "states": ["0", "1", "2"],
    "generators": [
        {"name": "id", "map": {"0": "0", "1": "1", "2": "2"}},
        {"name": "m", "map": {"0": "0", "1": "1", "2": "0"}},
    ],
}


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ergoscope.cli", *args],
        capture_output=True, text=True, env=env,
    )


def write_descriptor(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_classify_cyclic_shift(tmp_path):
    path = write_descriptor(tmp_path, CYCLIC)
    out = tmp_path / "report.json"
    result = run_cli(["classify", path, "--json-out", str(out)])
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["unique_ergodic"] == "true"
    assert report["invariant_measure"] == ["1/3", "1/3", "1/3"]
    schema = json.loads(Path(SCHEMA_PATH).read_text())
    jsonschema.validate(report, schema)


def test_classify_two_constants(tmp_path):
    path = write_descriptor(tmp_path, TWO_CONSTANTS)
    result = run_cli(["classify", path])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["weak_star_mean_ergodic"] == "false"
    jsonschema.validate(report, json.loads(Path(SCHEMA_PATH).read_text()))


def test_classify_oversized_exits_undetermined(tmp_path):
    # Two permutations generating all of S5: no cheap refutation, and
    # the capped closure leaves every verdict undetermined.
    doc = {
        "states": [str(i) for i in range(5)],
        "generators": [
            {"name": "a", "map": {"0": "1", "1": "2", "2": "3", "3": "4", "4": "0"}},
            {"name": "b", "map": {"0": "1", "1": "0", "2": "2", "3": "3", "4": "4"}},
        ],
    }
    path = write_descriptor(tmp_path, doc)
    result = run_cli(["classify", path], env_extra={"ERGOSCOPE_MAX_ELEMENTS": "20"})
    assert result.returncode == 3
    report = json.loads(result.stdout)
    assert report["weak_star_mean_ergodic"] == "undetermined"
    assert any("size cap" in n for n in report["notes"])


def test_classify_budget_zero_caps_the_closure(tmp_path):
    path = write_descriptor(tmp_path, CYCLIC)
    result = run_cli(["classify", path, "--budget", "0"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["ellis_size"] is None
    assert "size cap reached: semigroup closure exceeds element cap 0" in report["notes"]


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"states": [,]}')
    result = run_cli(["classify", str(path)])
    assert result.returncode == 1
    assert "line 1" in result.stderr and "column" in result.stderr


def test_ellis_and_kernel_commands(tmp_path):
    path = write_descriptor(tmp_path, CYCLIC)
    result = run_cli(["ellis", path])
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["size"] == 3
    assert {"0": "1", "1": "2", "2": "0"} in doc["elements"]

    id_c0 = {
        "states": ["0", "1"],
        "generators": [
            {"name": "id", "map": {"0": "0", "1": "1"}},
            {"name": "c0", "map": {"0": "0", "1": "0"}},
        ],
    }
    path2 = write_descriptor(tmp_path, id_c0, "id_c0.json")
    result2 = run_cli(["kernel", path2])
    doc2 = json.loads(result2.stdout)
    assert doc2["kernel_elements"] == [{"0": "0", "1": "0"}]


def test_invariant_measures_command(tmp_path):
    path = write_descriptor(tmp_path, TWO_FIXED)
    result = run_cli(["invariant-measures", path])
    doc = json.loads(result.stdout)
    assert doc["measures"] == [["1", "0", "0"], ["0", "1", "0"]]


def test_trace_csv(tmp_path):
    path = write_descriptor(tmp_path, CYCLIC)
    out = tmp_path / "trace.csv"
    result = run_cli(["trace", path, "--net", "cesaro", "--N", "16",
                      "--csv-out", str(out)])
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "descriptor,generator,side,defect,defect_float"
    assert len(lines) > 4


def test_trace_folner_rejects_non_commuting(tmp_path):
    path = write_descriptor(tmp_path, TWO_CONSTANTS)
    result = run_cli(["trace", path, "--net", "folner", "--N", "8"])
    assert result.returncode == 1
    assert "Følner box averages need commuting generators" in result.stderr


def test_classify_subshift_descriptor(tmp_path):
    doc = {"subshift": {"generator": "explicit", "bits": "01" * 10, "window": 2}}
    path = write_descriptor(tmp_path, doc)
    result = run_cli(["classify", path])
    assert result.returncode == 3  # single candidate: undetermined
    report = json.loads(result.stdout)
    assert report["minimal_candidates"] == [["01", "10"]]


def test_trace_subshift_horizon_beyond_bits(tmp_path):
    # A horizon longer than the explicit word is cut to the word, as in
    # classify; the trace then ends at the word's length.
    bits = "0110100110010110"
    doc = {"subshift": {"generator": "explicit", "bits": bits,
                        "horizon": 100, "window": 2}}
    path = write_descriptor(tmp_path, doc)
    out = tmp_path / "trace.csv"
    result = run_cli(["trace", path, "--csv-out", str(out)])
    assert result.returncode == 0, result.stderr
    last = out.read_text().splitlines()[-1]
    assert last.split(",")[0] == str(len(bits))


def test_classify_grid_descriptor(tmp_path):
    doc = {"grid": {"multiples_of_pi": 2, "subdivisions": 50}}
    path = write_descriptor(tmp_path, doc)
    result = run_cli(["classify", path, "--tol", "1e-6"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["converged"] is True


def test_reproduce_rolandex_small(tmp_path):
    from ergoscope.subshift import block_boundary

    horizon = block_boundary(4) + 4
    result = run_cli([
        "reproduce", "rolandex", "--horizon", str(horizon),
        "--window", "3", "--out-dir", str(tmp_path),
    ])
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "rolandex_report.json").read_text())
    assert report["weak_star_mean_ergodic"] == "false"
    assert report["fixed_windows"] == ["000", "111"]
    trace = (tmp_path / "rolandex_trace.csv").read_text().splitlines()
    assert trace[0] == "N,value,value_float"


def test_reproduce_rolandex_insufficient_horizon(tmp_path):
    result = run_cli([
        "reproduce", "rolandex", "--horizon", "40", "--window", "4",
        "--out-dir", str(tmp_path),
    ])
    # 40 symbols never reach a block of four ones: undetermined.
    assert result.returncode == 3


@pytest.mark.parametrize("option", ["--horizon", "--window"])
def test_reproduce_rolandex_rejects_zero(tmp_path, option):
    result = run_cli(["reproduce", "rolandex", option, "0",
                      "--out-dir", str(tmp_path)])
    assert result.returncode == 1
    assert "input error" in result.stderr


def test_reproduce_coscos(tmp_path):
    result = run_cli(["reproduce", "coscos", "--out-dir", str(tmp_path)])
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "coscos_report.json").read_text())
    assert report["l1_distance_at_1e5"] <= 1e-6
    assert report["converged"] is True


def test_unknown_reproduction():
    result = run_cli(["reproduce", "nonsense"])
    assert result.returncode == 2  # argparse usage error


def test_byte_identical_reruns(tmp_path):
    path = write_descriptor(tmp_path, TWO_FIXED)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    first = run_cli(["classify", path, "--json-out", str(out1)])
    second = run_cli(["classify", path, "--json-out", str(out2)])
    assert first.returncode == second.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["trace", path, "--net", "folner", "--N", "8", "--csv-out", str(csv1)])
    run_cli(["trace", path, "--net", "folner", "--N", "8", "--csv-out", str(csv2)])
    assert csv1.read_bytes() == csv2.read_bytes()
