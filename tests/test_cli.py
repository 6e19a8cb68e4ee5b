import hashlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

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


@pytest.mark.parametrize("command", ["ellis", "classify"])
@pytest.mark.parametrize("value", ["-5", "0", "abc", "1.5"])
def test_invalid_element_cap_is_an_input_error(tmp_path, command, value):
    # -5 and 0 used to exit 3 as if a real budget ran out; abc and 1.5
    # exited 1 with a bare int() message.
    path = write_descriptor(tmp_path, CYCLIC)
    result = run_cli([command, path], env_extra={"ERGOSCOPE_MAX_ELEMENTS": value})
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(
        f"input error: ERGOSCOPE_MAX_ELEMENTS must be a positive integer, got {value!r}")
    assert "Traceback" not in result.stderr


def test_classify_budget_zero_caps_the_closure(tmp_path):
    path = write_descriptor(tmp_path, CYCLIC)
    result = run_cli(["classify", path, "--budget", "0"])
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["ellis_size"] is None
    assert "size cap reached: semigroup closure exceeds element cap 0" in report["notes"]


@pytest.mark.parametrize("command", ["ellis", "classify"])
def test_negative_budget_is_an_input_error(tmp_path, command):
    # ellis used to exit 3 on a cap no closure can meet; classify exited 0.
    two_cycle = {"states": ["0", "1"], "generators": [{"name": "swap", "map": {"0": "1", "1": "0"}}]}
    result = run_cli([command, write_descriptor(tmp_path, two_cycle), "--budget", "-5"])
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("input error: need max_elements >= 0")


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


def test_trace_at_a_huge_n_begins_with_the_small_n_rows(tmp_path):
    # N = 2**40: the net counts each power, never listing N of them.  The
    # address-space cap and the timeout end a regression that does.
    path = write_descriptor(tmp_path, CYCLIC)
    small = run_cli(["trace", path, "--net", "cesaro", "--N", "64"])
    cap = 512 << 20
    huge = subprocess.run(
        [sys.executable, "-m", "ergoscope.cli", "trace", path, "--net", "cesaro",
         "--N", "1099511627776"], capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert small.returncode == 0 and huge.returncode == 0, huge.stderr
    small_lines, huge_lines = small.stdout.splitlines(), huge.stdout.splitlines()
    assert len(huge_lines) > len(small_lines) > 1
    assert huge_lines[:len(small_lines)] == small_lines


def test_trace_reads_r_and_tol_as_exact_decimals(tmp_path):
    from ergoscope.cli import build_parser

    path = write_descriptor(tmp_path, CYCLIC)
    result = run_cli(["trace", path, "--net", "abel", "--r", "1.1", "--side", "right",
                      "--tol", "0.3"])
    assert result.returncode == 0, result.stderr
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["abel r=1331/1000", "abel r=121/100", "abel r=11/10"]
    args = build_parser().parse_args(["trace", path, "--r", "1.1", "--tol", "0.3"])
    assert (args.r, args.tol) == (Fraction(11, 10), Fraction(3, 10))
    defaults = build_parser().parse_args(["trace", path])
    assert (defaults.r, defaults.tol) == (2, Fraction(1, 10**9))


def test_trace_folner_rejects_non_commuting(tmp_path):
    path = write_descriptor(tmp_path, TWO_CONSTANTS)
    result = run_cli(["trace", path, "--net", "folner", "--N", "8"])
    assert result.returncode == 1
    assert "Følner box averages need commuting generators" in result.stderr


@pytest.mark.parametrize("n", ["0", "-4"])
def test_trace_rejects_n_below_one(tmp_path, n):
    path = write_descriptor(tmp_path, CYCLIC)
    result = run_cli(["trace", path, "--N", n])
    assert result.returncode == 1
    assert "need N >= 1" in result.stderr


CONSTANT_A = {"name": "g", "map": {"a": "a", "b": "a"}}
CONSTANT_B = {"name": "g", "map": {"a": "b", "b": "b"}}


@pytest.mark.parametrize("command, doc, message", [
    # Two generators named g: the second used to replace the first.
    ("classify", {"states": ["a", "b"], "generators": [CONSTANT_A, CONSTANT_B]},
     "generator names must be distinct"),
    ("classify", {"grid": 5}, "grid descriptor must be a JSON object"),
    ("classify", {"grid": {"multiples_of_pi": "2"}}, "multiples_of_pi must be an integer"),
    ("classify", {"subshift": {"window": "7"}}, "window must be an integer"),
    ("classify", {"subshift": {"window": 3, "horizon": "100"}},
     "horizon must be an integer"),
    ("classify", {"states": ["a", "b"], "generators": [{"name": "g", "map": ["a", "b"]}]},
     "generator 'g' must map every state"),
    ("classify", {"states": [["a"], "b"], "generators": [CONSTANT_A]},
     "states must be a list of string labels"),
    ("classify", {"name": 5, "states": ["a", "b"], "generators": [CONSTANT_A]},
     "name must be a string"),
    ("classify", {"states": ["a", "b"], "generators": []}, "need at least one generator"),
    ("trace", CYCLIC, "--r must be finite"),
    ("trace", CYCLIC, "--tol must be finite"),
], ids=["duplicate-names", "grid-not-object", "grid-string", "window-string",
        "horizon-string", "map-list", "state-list", "name-int", "no-generators",
        "r-inf", "tol-inf"])
def test_invalid_input_exits_one_without_traceback(tmp_path, command, doc, message):
    args = [command, write_descriptor(tmp_path, doc)]
    if message.startswith("--"):
        args += ["--net", "abel", message.split()[0], "inf"]
    result = run_cli(args)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(f"input error: {message}")
    assert "Traceback" not in result.stderr


def test_classify_names_a_character_that_is_no_bit(tmp_path):
    doc = {"subshift": {"generator": "explicit", "bits": "0 1", "window": 1}}
    result = run_cli(["classify", write_descriptor(tmp_path, doc)])
    assert result.returncode == 1, result.stderr
    assert result.stderr == "input error: bit ' ' at position 1 is not '0' or '1'\n"


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


def test_classify_oversized_grid_exits_undetermined(tmp_path):
    # 2 * 10**12 + 1 points used to fail in numpy with _ArrayMemoryError.
    path = write_descriptor(tmp_path, {"grid": {"subdivisions": 10**12}})
    result = run_cli(["classify", path])
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith(
        "undetermined: grid of 2000000000001 points exceeds element cap 1000000")
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize("option", ["--horizon", "--window"])
def test_reproduce_rejected_input_creates_no_out_dir(tmp_path, option):
    out_dir = tmp_path / "o1"
    result = run_cli(["reproduce", "rolandex", option, "0", "--out-dir", str(out_dir)])
    assert result.returncode == 1
    assert not out_dir.exists()


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


@pytest.mark.parametrize("given, args", [
    ("missing/out.json", ["classify", "{input}", "--json-out", "{given}"]),
    ("a_dir", ["classify", "{input}", "--json-out", "{given}"]),
    ("missing/out.csv", ["trace", "{input}", "--csv-out", "{given}"]),
    ("a_dir", ["classify", "{given}"]),
    ("a_file/sub", ["reproduce", "coscos", "--out-dir", "{given}"]),
], ids=["json-out-missing-dir", "json-out-is-dir", "csv-out-missing-dir", "input-is-dir",
        "out-dir-under-file"])
def test_unusable_path_exits_one_without_traceback(tmp_path, given, args):
    # open, mkstemp, os.replace or os.makedirs raises an OSError on each path.
    path = write_descriptor(tmp_path, CYCLIC)
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    given = str(tmp_path / given)
    result = run_cli([a.format(input=path, given=given) for a in args])
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("input error")
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert given in result.stderr and ".ergoscope-" not in result.stderr
    assert not list(tmp_path.rglob(".ergoscope-*"))


# SHA-256 of the CLI's outputs: refactoring the command layer must keep every byte.
STDOUT_SHA256 = {
    ("CYCLIC", "classify"): "ac8f9e3304d55ce51f982d09e1be2b7cbbdc4114478742b5e51aea861b66eee9",
    ("CYCLIC", "ellis"): "f98278bcb9c38a4e88f54cd02a0f0b70f7e2bfc97333cb456d8edc388fa43f6a",
    ("CYCLIC", "kernel"): "4ebc0b368a59a860696ba984c42f743c05e91f2cea167f602fca91a4ffaa2424",
    ("CYCLIC", "invariant-measures"):
        "e788b38b5a201ab338dd4514a9d94a522d27b7738a0eb9c97ff4e6a5696d1fc7",
    ("CYCLIC", "trace"): "9d475e73daee6948355f6167d115439d43e599e811dcb745352482a98333456b",
    ("TWO_FIXED", "classify"): "28d9e8de1ee2af56a5df3b8470f2a616dc815d0dfe7ccc09840b2ec13ce8586e",
    ("TWO_FIXED", "ellis"): "6613d95f7502d3c8806e42db7d94457399d432db6202d8a866bf7c3ca9064e50",
    ("TWO_FIXED", "kernel"): "026ec58979b7bf025e69616aea65ca317ccbbe1f7f074d30e3477fa7ce382ab8",
    ("TWO_FIXED", "invariant-measures"):
        "dfde6a9c030adfa209b20bb86c385565d2f3dca066166b2dcdf6936d87885725",
    ("TWO_FIXED", "trace"): "177270051d12bc4196984e466a5ea8d045a1ad066a4dbe69a88d3172461a426a",
}
REPRODUCE_SHA256 = {
    "rolandex": {
        "rolandex_report.json": "9325119989baa6422047165af5680064fbe829b32c28dd3cdd8550a58d528d91",
        "rolandex_trace.csv": "d6db2a37b32b18efbcdd443f2702b17fee475bb76a31cdf0ae582e13347f8a81",
    },
    "coscos": {
        "coscos_report.json": "6ea880061453a224b858b1f2699370e17c1b7537a2862804a69af91720c75806",
        "coscos_trace.csv": "3af06e6c4c362d2478c5ef77c2e5623a8f6791bdf4a93733606d46f1f2489fd7",
    },
}


@pytest.mark.parametrize("name, command", sorted(STDOUT_SHA256))
def test_stdout_bytes_are_pinned(tmp_path, name, command):
    args = [command, write_descriptor(tmp_path, globals()[name])]
    if command == "trace":
        args += ["--net", "folner", "--N", "8"]
    result = run_cli(args)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[name, command]


# SHA-256 of the defect CSVs of the Abel and one-sided Cesàro nets, recorded
# before products of pushforwards ran on their maps.
TRACE_SHA256 = {
    ("CYCLIC", "abel", "two_sided"):
        "7cfc6d0efa791beb2bc7909e2ab9e4ef8996310d3594945103e657737d34e934",
    ("CYCLIC", "cesaro", "left"):
        "26b2ef1804c6863bf70f734fede1f1e7fa2a87f55a25267bf6431172a42b9749",
    ("CYCLIC", "cesaro", "right"):
        "4feb2bb823dc41b6fe8c0b8c2730ce33f7dd23fdd52e4f94132de7fe4a6ce950",
    ("TWO_FIXED", "abel", "two_sided"):
        "e9acc889b69bcb570649685fbbda51e343d10206ae4e53a611cb27aa5d1cc449",
    ("TWO_FIXED", "cesaro", "left"):
        "39cd273a401ee1e82bfa56c96d988fa33553862b3627dede1a1073ba6ca6957b",
    ("TWO_FIXED", "cesaro", "right"):
        "042ea50527180bc7c30c166fe6e1d8b8ec242d44bf0ed96341e73264824b73fe",
}


@pytest.mark.parametrize("name, net, side", sorted(TRACE_SHA256))
def test_trace_csv_bytes_are_pinned(tmp_path, name, net, side):
    args = ["trace", write_descriptor(tmp_path, globals()[name]), "--net", net, "--side", side]
    result = run_cli(args)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == TRACE_SHA256[name, net, side]


@pytest.mark.parametrize("name", sorted(REPRODUCE_SHA256))
def test_reproduce_bytes_are_pinned(tmp_path, name):
    from ergoscope.subshift import block_boundary

    args = ["reproduce", name, "--out-dir", str(tmp_path / "out")]
    if name == "rolandex":
        args += ["--horizon", str(block_boundary(4) + 4), "--window", "3"]
    result = run_cli(args)
    assert result.returncode == 0, result.stderr
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / "out").iterdir()}
    assert digests == REPRODUCE_SHA256[name]
