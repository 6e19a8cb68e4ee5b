"""Command-line surface: descriptors in, reports and traces out.

Each ``cmd_*`` returns ``(exit_code, outputs)``, mapping a path (``None``
for stdout) to its text, and only :func:`main` writes.  Exit codes: 0 for
determinate results, 1 for input errors (unreadable or unwritable paths
too), 3 when any verdict is undetermined (including size-cap aborts), so
CI can gate on reproduction runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from .cosgrid import (
    build_grid,
    iterate_adjoint,
    off_pi_trace_rows,
    pi_projection,
    uniform_weights,
    weak_star_limit_check,
)
from .envelope import (
    Budget,
    Verdict,
    classify,
    ellis,
    report_to_json_dict,
)
from .nets import abel_net, cesaro_net, defect_csv_rows, folner_net, verify_net
from .operators import adjoint_matrix, invariant_measures
from .subshift import (
    FIRST_COORDINATE,
    BinaryWord,
    block_boundary,
    cesaro_trace,
    classify_subshift,
    rolandex_prefix,
    trace_csv_rows,
)
from .systems import FiniteSystem
from .transforms import SizeCapError, kernel

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDETERMINED = 3


def _atomic_write(path: str, data: str) -> None:
    """Write through a temp file beside ``path``; an OSError names ``path``."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".ergoscope-")
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class InputError(ValueError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InputError(message)


def _object(spec, what: str) -> dict:
    _require(isinstance(spec, dict), f"{what} must be a JSON object")
    return spec


def _integer(spec: dict, key: str, default: int | None = None) -> int | None:
    """spec[key] if it is an integer, ``default`` if it is missing or null."""
    value = spec.get(key)
    _require(value is None or type(value) is int, f"{key} must be an integer, not {value!r}")
    return default if value is None else value


def _load_descriptor(path: str) -> dict:
    try:
        with open(path) as handle:
            return _object(json.load(handle), path)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        )


def _system_from_descriptor(doc: dict) -> FiniteSystem:
    try:
        states = doc["states"]
        generators = doc["generators"]
        maps = {g["name"]: g["map"] for g in generators}
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad system descriptor: {exc}")
    _require(isinstance(states, list) and all(isinstance(x, str) for x in states),
             "states must be a list of string labels")
    labels = set(states)
    _require(len(labels) == len(states), "state labels must be distinct")
    _require(len(maps) > 0, "need at least one generator")
    _require(len(maps) == len(generators), "generator names must be distinct")
    _require(isinstance(doc.get("name", ""), str), "name must be a string")
    for name, mapping in maps.items():
        _require(isinstance(mapping, dict) and set(mapping) == labels,
                 f"generator {name!r} must map every state")
        _require(all(isinstance(y, str) and y in labels for y in mapping.values()),
                 f"generator {name!r} maps outside the state set")
    return FiniteSystem.from_maps(maps, name=doc.get("name", ""))


def _subshift_word(spec: dict) -> tuple[BinaryWord, int]:
    spec = _object(spec, "subshift descriptor")
    generator = spec.get("generator", "rolandex")
    horizon = _integer(spec, "horizon")
    window = _integer(spec, "window")
    _require(window is not None, "subshift descriptor needs a window")
    if generator == "rolandex":
        horizon = horizon if horizon is not None else block_boundary(8)
        word = rolandex_prefix(horizon)
    elif generator == "explicit":
        bits = spec.get("bits")
        _require(isinstance(bits, str) and bits != "", "explicit subshift needs a bits string")
        word = BinaryWord.from_string(bits)
        if horizon is not None:
            word = word.prefix(min(horizon, word.length))
    else:
        raise InputError(f"unknown subshift generator {generator!r}")
    _require(window <= word.length, "window exceeds horizon")
    return word, window


def _subshift_fields(report) -> dict:
    """The JSON fields of a subshift classification report."""
    return {
        "window": report.window,
        "horizon": report.horizon,
        "fixed_windows": ["".join(map(str, w)) for w in report.fixed],
        "minimal_candidates": [
            sorted("".join(map(str, w)) for w in c)
            for c in report.minimal_candidates
        ],
        "weak_star_mean_ergodic": report.weak_star_mean_ergodic,
        "note": report.note,
    }


def cmd_classify(args) -> tuple[int, dict]:
    doc = _load_descriptor(args.input)
    if "subshift" in doc:
        word, window = _subshift_word(doc["subshift"])
        report = classify_subshift(word, window)
        payload = {"type": "subshift", **_subshift_fields(report)}
        code = EXIT_OK if report.weak_star_mean_ergodic != "undetermined" else EXIT_UNDETERMINED
        return code, {args.json_out: _json_text(payload)}
    if "grid" in doc:
        spec = _object(doc["grid"], "grid descriptor")
        model = build_grid(_integer(spec, "multiples_of_pi", 2),
                           _integer(spec, "subdivisions", 100))
        report = weak_star_limit_check(model, uniform_weights(model), args.tol)
        payload = {
            "type": "grid",
            "converged": report.converged,
            "n_power": report.n_power,
            "n_cesaro": report.n_cesaro,
            "limit_is_probability": report.limit_is_probability,
        }
        code = EXIT_OK if report.converged else EXIT_UNDETERMINED
        return code, {args.json_out: _json_text(payload)}
    sys_ = _system_from_descriptor(doc)
    report = classify(sys_, Budget(max_elements=args.budget))
    verdicts = (report.unique_ergodic, report.norm_mean_ergodic, report.weak_star_mean_ergodic)
    code = EXIT_UNDETERMINED if Verdict.UNDETERMINED in verdicts else EXIT_OK
    return code, {args.json_out: _json_text(report_to_json_dict(report))}


def _element_as_label_map(sys_: FiniteSystem, images) -> dict:
    return {sys_.states[x]: sys_.states[y] for x, y in enumerate(images)}


def cmd_ellis(args) -> tuple[int, dict]:
    sys_ = _system_from_descriptor(_load_descriptor(args.input))
    sg = ellis(sys_, args.budget)
    payload = {
        "size": sg.size,
        "elements": [_element_as_label_map(sys_, row) for row in sg.images.tolist()],
        "generator_indices": list(sg.generator_indices),
    }
    return EXIT_OK, {args.json_out: _json_text(payload)}


def cmd_kernel(args) -> tuple[int, dict]:
    sys_ = _system_from_descriptor(_load_descriptor(args.input))
    sg = ellis(sys_, args.budget)
    ker = sorted(kernel(sg))
    payload = {
        "size": sg.size,
        "kernel_indices": ker,
        "kernel_elements": [_element_as_label_map(sys_, row) for row in sg.images[ker].tolist()],
    }
    return EXIT_OK, {args.json_out: _json_text(payload)}


def cmd_invariant_measures(args) -> tuple[int, dict]:
    sys_ = _system_from_descriptor(_load_descriptor(args.input))
    measures = invariant_measures(sys_)
    payload = {
        "states": list(sys_.states),
        "measures": [[str(w) for w in mu.weights] for mu in measures],
    }
    return EXIT_OK, {args.json_out: _json_text(payload)}


def cmd_trace(args) -> tuple[int, dict]:
    doc = _load_descriptor(args.input)
    if "subshift" in doc:
        word, window = _subshift_word(doc["subshift"])
        horizon = word.length
        ns = []
        n = max(window, 2)
        while n < horizon:
            ns.append(n)
            n *= 4
        ns.append(horizon)
        values = cesaro_trace(word, FIRST_COORDINATE, ns)
        text = _csv_text(("N", "value", "value_float"), trace_csv_rows(ns, values))
        return EXIT_OK, {args.csv_out: text}
    _require(args.N >= 1, "need N >= 1")
    sys_ = _system_from_descriptor(doc)
    adjoints = [adjoint_matrix(g) for g in sys_.generator_maps]
    ns = [2**k for k in range(1, args.N.bit_length() + 1) if 2**k <= args.N] or [1]
    if args.net == "cesaro":
        net = cesaro_net(adjoints[0], ns)
    elif args.net == "folner":
        net = folner_net(adjoints, ns)
    elif args.net == "abel":
        net = abel_net(adjoints[0], [args.r ** k for k in (3, 2, 1)])
    else:
        raise InputError(f"unknown net {args.net!r}")
    verdict = verify_net(net, adjoints, args.side, args.tol)
    header = ("descriptor", "generator", "side", "defect", "defect_float")
    return EXIT_OK, {args.csv_out: _csv_text(header, defect_csv_rows(verdict))}


def cmd_reproduce(args) -> tuple[int, dict]:
    if args.name == "rolandex":
        word, window = _subshift_word({"horizon": args.horizon,
                                       "window": 7 if args.window is None else args.window})
        horizon = word.length
        report = classify_subshift(word, window)
        ns = [horizon // 4, horizon // 2, horizon]
        ns = sorted({n for n in ns if n >= 1})
        values = cesaro_trace(word, FIRST_COORDINATE, ns)
        payload = {
            "name": "rolandex",
            **_subshift_fields(report),
            "first_coordinate_trace": [
                {"N": n, "value": str(v)} for n, v in zip(ns, values)
            ],
        }
        both_constants = set(report.fixed) == {(0,) * window, (1,) * window}
        reproduced = report.weak_star_mean_ergodic == "false" and both_constants
        return EXIT_OK if reproduced else EXIT_UNDETERMINED, {
            os.path.join(args.out_dir, "rolandex_report.json"): _json_text(payload),
            os.path.join(args.out_dir, "rolandex_trace.csv"):
                _csv_text(("N", "value", "value_float"), trace_csv_rows(ns, values)),
        }
    if args.name == "coscos":
        model = build_grid(2, 100)
        mu = uniform_weights(model)
        tol = args.tol
        check = weak_star_limit_check(model, mu, tol)
        final = iterate_adjoint(model, mu, 10**5)
        dist = float(abs(final - pi_projection(model, mu)).sum())
        ns = [10**k for k in range(6)]
        payload = {
            "name": "coscos",
            "tol": tol,
            "l1_distance_at_1e5": dist,
            "n_power": check.n_power,
            "n_cesaro": check.n_cesaro,
            "converged": check.converged,
        }
        return EXIT_OK if check.converged and dist <= tol else EXIT_UNDETERMINED, {
            os.path.join(args.out_dir, "coscos_report.json"): _json_text(payload),
            os.path.join(args.out_dir, "coscos_trace.csv"):
                _csv_text(("n", "off_pi_mass"), off_pi_trace_rows(model, mu, ns)),
        }
    raise InputError(f"unknown reproduction {args.name!r}")


def _exact_decimal(text: str) -> Fraction | float:
    """The exact rational a decimal or fraction string names, so "1.1" is
    11/10; "inf" and "nan" stay floats for ``main`` to refuse."""
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergoscope",
        description="Enveloping semigroups and mean ergodicity of finite systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    source, budget, json_out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    source.add_argument("input")
    budget.add_argument("--budget", type=int, default=None)
    json_out.add_argument("--json-out", default=None)

    p = sub.add_parser("classify", parents=[source, budget, json_out],
                       help="full classification report")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_classify)
    for name, func in (("ellis", cmd_ellis), ("kernel", cmd_kernel)):
        sub.add_parser(name, parents=[source, budget, json_out]).set_defaults(func=func)
    sub.add_parser("invariant-measures", parents=[source, json_out]).set_defaults(
        func=cmd_invariant_measures)

    p = sub.add_parser("trace", parents=[source], help="ergodic net defect trace as CSV")
    p.add_argument("--net", choices=("cesaro", "abel", "folner"), default="cesaro")
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--r", type=_exact_decimal, default="2")
    p.add_argument("--side", choices=("left", "right", "two_sided"), default="two_sided")
    p.add_argument("--tol", type=_exact_decimal, default="1e-9")
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("reproduce", help="run a shipped example pipeline")
    p.add_argument("name", choices=("rolandex", "coscos"))
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    """Run one command, write its outputs and map every failure to an exit code."""
    args = build_parser().parse_args(argv)
    try:
        for option in ("r", "tol"):
            value = getattr(args, option, 0.0)
            _require(isinstance(value, Fraction) or math.isfinite(value),
                     f"--{option} must be finite")
        code, outputs = args.func(args)
        # Only a computation that succeeded creates its output directory.
        if args.command == "reproduce" and args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
        for path, text in outputs.items():
            if path:
                _atomic_write(path, text)
            else:
                sys.stdout.write(text)
        return code
    except SizeCapError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
