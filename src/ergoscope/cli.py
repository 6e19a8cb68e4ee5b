"""Command-line surface: descriptors in, reports and traces out.

Exit codes: 0 for determinate results, 1 for input errors, 3 when any
verdict is undetermined (including size-cap aborts), so CI can gate on
reproduction runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ergoscope-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, path: str | None) -> None:
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _load_descriptor(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        )


class InputError(Exception):
    pass


def _system_from_descriptor(doc: dict) -> FiniteSystem:
    try:
        states = doc["states"]
        generators = doc["generators"]
        maps = {g["name"]: g["map"] for g in generators}
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad system descriptor: {exc}")
    if len(set(states)) != len(states):
        raise InputError("state labels must be distinct")
    for name, mapping in maps.items():
        if set(mapping) != set(states):
            raise InputError(f"generator {name!r} must map every state")
        if not set(mapping.values()) <= set(states):
            raise InputError(f"generator {name!r} maps outside the state set")
    return FiniteSystem.from_maps(maps, name=doc.get("name", ""))


def _subshift_word(spec: dict) -> tuple[BinaryWord, int]:
    generator = spec.get("generator", "rolandex")
    horizon = spec.get("horizon")
    window = spec.get("window")
    if window is None:
        raise InputError("subshift descriptor needs a window")
    if generator == "rolandex":
        horizon = horizon if horizon is not None else block_boundary(8)
        word = rolandex_prefix(horizon)
    elif generator == "explicit":
        bits = spec.get("bits")
        if not bits:
            raise InputError("explicit subshift needs a bits string")
        word = BinaryWord.from_string(bits)
        if horizon is not None:
            word = word.prefix(min(horizon, word.length))
    else:
        raise InputError(f"unknown subshift generator {generator!r}")
    if window > word.length:
        raise InputError("window exceeds horizon")
    return word, window


def cmd_classify(args) -> int:
    doc = _load_descriptor(args.input)
    if "subshift" in doc:
        word, window = _subshift_word(doc["subshift"])
        report = classify_subshift(word, window)
        payload = {
            "type": "subshift",
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
        _emit(_json_text(payload), args.json_out)
        return EXIT_OK if report.weak_star_mean_ergodic != "undetermined" else EXIT_UNDETERMINED
    if "grid" in doc:
        spec = doc["grid"]
        model = build_grid(spec.get("multiples_of_pi", 2), spec.get("subdivisions", 100))
        report = weak_star_limit_check(model, uniform_weights(model), args.tol)
        payload = {
            "type": "grid",
            "converged": report.converged,
            "n_power": report.n_power,
            "n_cesaro": report.n_cesaro,
            "limit_is_probability": report.limit_is_probability,
        }
        _emit(_json_text(payload), args.json_out)
        return EXIT_OK if report.converged else EXIT_UNDETERMINED
    sys_ = _system_from_descriptor(doc)
    report = classify(sys_, Budget(max_elements=args.budget))
    _emit(_json_text(report_to_json_dict(report)), args.json_out)
    verdicts = (report.unique_ergodic, report.norm_mean_ergodic,
                report.weak_star_mean_ergodic)
    if any(v is Verdict.UNDETERMINED for v in verdicts):
        return EXIT_UNDETERMINED
    return EXIT_OK


def _element_as_label_map(sys_: FiniteSystem, t) -> dict:
    return {sys_.states[x]: sys_.states[t(x)] for x in range(sys_.n)}


def cmd_ellis(args) -> int:
    sys_ = _system_from_descriptor(_load_descriptor(args.input))
    sg = ellis(sys_, args.budget)
    payload = {
        "size": sg.size,
        "elements": [_element_as_label_map(sys_, t) for t in sg.elements],
        "generator_indices": list(sg.generator_indices),
    }
    _emit(_json_text(payload), args.json_out)
    return EXIT_OK


def cmd_kernel(args) -> int:
    sys_ = _system_from_descriptor(_load_descriptor(args.input))
    sg = ellis(sys_, args.budget)
    ker = sorted(kernel(sg))
    payload = {
        "size": sg.size,
        "kernel_indices": ker,
        "kernel_elements": [_element_as_label_map(sys_, sg.elements[i]) for i in ker],
    }
    _emit(_json_text(payload), args.json_out)
    return EXIT_OK


def cmd_invariant_measures(args) -> int:
    sys_ = _system_from_descriptor(_load_descriptor(args.input))
    measures = invariant_measures(sys_)
    payload = {
        "states": list(sys_.states),
        "measures": [[str(w) for w in mu.weights] for mu in measures],
    }
    _emit(_json_text(payload), args.json_out)
    return EXIT_OK


def cmd_trace(args) -> int:
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
        _emit(text, args.csv_out)
        return EXIT_OK
    sys_ = _system_from_descriptor(doc)
    adjoints = [adjoint_matrix(g) for g in sys_.generator_maps]
    ns = [2**k for k in range(1, args.N.bit_length() + 1) if 2**k <= args.N] or [1]
    if args.net == "cesaro":
        net = cesaro_net(adjoints[0], ns)
    elif args.net == "folner":
        net = folner_net(adjoints, ns)
    elif args.net == "abel":
        rs = [Fraction(args.r) ** k for k in range(1, 4)]
        net = abel_net(adjoints[0], sorted(rs, reverse=True))
    else:
        raise InputError(f"unknown net {args.net!r}")
    verdict = verify_net(net, adjoints, args.side, Fraction(args.tol))
    text = _csv_text(
        ("descriptor", "generator", "side", "defect", "defect_float"),
        defect_csv_rows(verdict),
    )
    _emit(text, args.csv_out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    if args.name == "rolandex":
        horizon = block_boundary(8) if args.horizon is None else args.horizon
        window = 7 if args.window is None else args.window
        word = rolandex_prefix(horizon)
        if window > word.length:
            raise InputError("window exceeds horizon")
        report = classify_subshift(word, window)
        ns = [horizon // 4, horizon // 2, horizon]
        ns = sorted({n for n in ns if n >= 1})
        values = cesaro_trace(word, FIRST_COORDINATE, ns)
        payload = {
            "name": "rolandex",
            "window": window,
            "horizon": horizon,
            "fixed_windows": ["".join(map(str, w)) for w in report.fixed],
            "minimal_candidates": [
                sorted("".join(map(str, w)) for w in c)
                for c in report.minimal_candidates
            ],
            "weak_star_mean_ergodic": report.weak_star_mean_ergodic,
            "note": report.note,
            "first_coordinate_trace": [
                {"N": n, "value": str(v)} for n, v in zip(ns, values)
            ],
        }
        _atomic_write(os.path.join(out_dir, "rolandex_report.json"), _json_text(payload))
        _atomic_write(
            os.path.join(out_dir, "rolandex_trace.csv"),
            _csv_text(("N", "value", "value_float"), trace_csv_rows(ns, values)),
        )
        both_constants = set(report.fixed) == {(0,) * window, (1,) * window}
        reproduced = report.weak_star_mean_ergodic == "false" and both_constants
        return EXIT_OK if reproduced else EXIT_UNDETERMINED
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
        _atomic_write(os.path.join(out_dir, "coscos_report.json"), _json_text(payload))
        _atomic_write(
            os.path.join(out_dir, "coscos_trace.csv"),
            _csv_text(("n", "off_pi_mass"), off_pi_trace_rows(model, mu, ns)),
        )
        return EXIT_OK if check.converged and dist <= tol else EXIT_UNDETERMINED
    raise InputError(f"unknown reproduction {args.name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergoscope",
        description="Enveloping semigroups and mean ergodicity of finite systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification report")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_classify)

    for name, func in (("ellis", cmd_ellis), ("kernel", cmd_kernel)):
        p = sub.add_parser(name)
        p.add_argument("input")
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--json-out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("invariant-measures")
    p.add_argument("input")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_invariant_measures)

    p = sub.add_parser("trace", help="ergodic net defect trace as CSV")
    p.add_argument("input")
    p.add_argument("--net", choices=("cesaro", "abel", "folner"), default="cesaro")
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--side", choices=("left", "right", "two_sided"), default="two_sided")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("reproduce", help="run a shipped example pipeline")
    p.add_argument("name", choices=("rolandex", "coscos"))
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeCapError as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
