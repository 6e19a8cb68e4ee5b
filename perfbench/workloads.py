"""The four benchmark workloads: their inputs and one function per item.

Every workload is a fixed corpus, so that the reference outputs recorded
in ``perfbench/reference`` cover every item a run can submit.  The run
seed fixes the order in which the closed loop submits the items.  The
inputs are generated here, with the benchmark's own random numbers, and
the library sees only the finished systems.

Library functions are always looked up as module attributes at call
time (``E.classify``, ``nets.abel_net``), so that the traced run sees
the calls the benchmark makes through the wrappers it installs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import ergoscope as E
import ergoscope.cli
import ergoscope.cosgrid
import ergoscope.nets
import ergoscope.subshift
from ergoscope.systems import FiniteSystem
from ergoscope.transforms import Transformation


@dataclass(frozen=True)
class Outcome:
    verdict: str
    determinate: bool
    outputs: dict[str, bytes]


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], Outcome]


# ---------------------------------------------------------------------------
# Input generation


def make_system(n: int, g: int, seed: int, commuting: bool = False) -> FiniteSystem:
    """The same maps as ``random_system(n, g, commuting, seed)``, drawn here."""
    rng = random.Random(seed)
    maps = []
    if commuting:
        base = tuple(rng.randrange(n) for _ in range(n))
        for _ in range(g):
            power = tuple(range(n))
            for _ in range(rng.randint(1, max(2 * n, 2))):
                power = tuple(base[y] for y in power)
            maps.append(power)
    else:
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(g)]
    return FiniteSystem(
        tuple(str(i) for i in range(n)),
        tuple((f"g{i}", Transformation(m)) for i, m in enumerate(maps)),
        name=f"random-n{n}-g{g}-s{seed}" + ("-comm" if commuting else ""),
    )


def system_key(sys_: FiniteSystem) -> str:
    return json.dumps([sys_.name, [list(g.images) for _, g in sys_.generators]])


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, indent=2, sort_keys=True).encode()


def _csv_bytes(rows) -> bytes:
    return "".join(",".join(map(str, row)) + "\n" for row in rows).encode()


# ---------------------------------------------------------------------------
# classify_corpus and large_closure


def _classify_item(sys_: FiniteSystem) -> Item:
    def run() -> Outcome:
        report = E.classify(sys_)
        verdicts = (report.unique_ergodic, report.norm_mean_ergodic,
                    report.weak_star_mean_ergodic)
        return Outcome(
            "/".join(v.value for v in verdicts),
            all(v is not E.Verdict.UNDETERMINED for v in verdicts),
            {"report.json": json.dumps(E.report_to_json_dict(report), indent=2).encode()},
        )
    return Item(system_key(sys_), run)


def classify_corpus() -> list[Item]:
    # Seeds 1000-1149 mix every zero-search path: Cesàro products (g = 1),
    # minimal-set refutations, exact LP certificates and two undetermined.
    items = []
    for seed in range(1000, 1150):
        rng = random.Random(seed)
        n, g = rng.randint(3, 6), rng.randint(1, 3)
        items.append(_classify_item(make_system(n, g, seed)))
    return items


# Closures of 3,374 and 11,061 elements, cheapest first, then the
# 108,685-element closure whose dense Cayley table does not fit.
LARGE_CLOSURE_SYSTEMS = ((8, 0), (7, 17), (8, 3))


def large_closure() -> list[Item]:
    return [_classify_item(make_system(n, 3, seed)) for n, seed in LARGE_CLOSURE_SYSTEMS]


# ---------------------------------------------------------------------------
# ergodic_nets

FOLNER_NS = {1: (8, 16, 32), 2: (4, 8, 12), 3: (3, 5, 8)}
ABEL_RS = (2, 4, 8)


def _matrix_text(m) -> str:
    return "\n".join(" ".join(map(str, row)) for row in m.rows)


def _nets_item(sys_: FiniteSystem) -> Item:
    def run() -> Outcome:
        search = E.convex_koehler_zero(sys_)
        if search.status != "found":
            raise AssertionError(f"commuting system without a zero: {search.status}")
        adjoints = [E.adjoint_matrix(g) for g in sys_.generator_maps]
        ns = FOLNER_NS[len(adjoints)]
        folner = E.folner_net(adjoints, ns)
        cesaro = E.cesaro_net(adjoints[0], FOLNER_NS[1])
        abel = ergoscope.nets.abel_net(adjoints[0], ABEL_RS)
        verdict = E.verify_net(folner, adjoints, "two_sided", Fraction(2, min(ns)))
        return Outcome(verdict.status, verdict.status != "undetermined", {
            "zero.txt": _matrix_text(search.certificate.matrix).encode(),
            "defects.csv": _csv_bytes(ergoscope.nets.defect_csv_rows(verdict)),
            "cesaro.txt": _matrix_text(cesaro.steps[-1].matrix).encode(),
            "abel.txt": _matrix_text(abel.steps[-1].matrix).encode(),
        })
    return Item(system_key(sys_), run)


def ergodic_nets() -> list[Item]:
    # Shaped like the acceptance criterion-2 corpus, with n >= 2.
    items = []
    for seed in range(36):
        n = random.Random(10_000 + seed).randint(2, 6)
        g = random.Random(20_000 + seed).randint(1, 3)
        items.append(_nets_item(make_system(n, g, seed, commuting=True)))
    return items


# ---------------------------------------------------------------------------
# pipelines

ROLANDEX_HORIZONS = (E.block_boundary(6), E.block_boundary(8), 10**8)
ROLANDEX_WINDOWS = (3, 7, 16, 32, 64, 128)
COSCOS_SUBDIVISIONS = (10**2, 10**3, 10**4)
COSCOS_TOLS = (1e-6, 1e-9, 1e-12)
STEPWISE_STEPS = 10**5
# One sweep takes about 1.5 s; seven make a pass long enough to time and
# give 210 item latencies, so p95 has ten items beyond it.
PIPELINE_SWEEPS = 7


def _rolandex_item(horizon: int, window: int) -> Item:
    def run() -> Outcome:
        word = E.rolandex_prefix(horizon)
        report = E.classify_subshift(word, window)
        ns = sorted({horizon // 4, horizon // 2, horizon})
        values = E.cesaro_trace(word, E.FIRST_COORDINATE, ns)
        payload = {
            "fixed": ["".join(map(str, w)) for w in report.fixed],
            "candidates": [sorted("".join(map(str, w)) for w in c)
                           for c in report.minimal_candidates],
            "verdict": report.weak_star_mean_ergodic,
            "note": report.note,
        }
        verdict = report.weak_star_mean_ergodic
        return Outcome(verdict, verdict != "undetermined", {
            "report.json": _json_bytes(payload),
            "trace.csv": _csv_bytes(ergoscope.subshift.trace_csv_rows(ns, values)),
        })
    return Item(f"rolandex horizon={horizon} window={window}", run)


def _coscos_item(subdivisions: int, tol: float) -> Item:
    def run() -> Outcome:
        model = E.build_grid(2, subdivisions)
        mu = ergoscope.cosgrid.uniform_weights(model)
        check = E.weak_star_limit_check(model, mu, tol)
        payload = {
            "converged": check.converged,
            "n_power": check.n_power,
            "n_cesaro": check.n_cesaro,
            "power_distance": repr(check.power_distance),
            "cesaro_distance": repr(check.cesaro_distance),
            "limit_is_probability": check.limit_is_probability,
        }
        verdict = "converged" if check.converged else "not_converged"
        return Outcome(verdict, True, {"report.json": _json_bytes(payload)})
    return Item(f"coscos subdivisions={subdivisions} tol={tol!r}", run)


def _stepwise_item() -> Item:
    def run() -> Outcome:
        model = E.build_grid(2, 100)
        mu = ergoscope.cosgrid.uniform_weights(model)
        final = ergoscope.cosgrid.iterate_stepwise(model, mu, STEPWISE_STEPS)
        # iterate_stepwise asserts bit-exact pi-mass invariance at every step.
        return Outcome("pi_mass_invariant", True, {"final.bin": final.tobytes()})
    return Item(f"coscos iterate_stepwise steps={STEPWISE_STEPS}", run)


def _cli_item(name: str, scratch_dir: str) -> Item:
    def run() -> Outcome:
        out_dir = tempfile.mkdtemp(dir=scratch_dir)
        try:
            code = ergoscope.cli.main(["reproduce", name, "--out-dir", out_dir])
            outputs = {}
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    outputs[fname] = fh.read()
        finally:
            shutil.rmtree(out_dir)
        if code not in (0, 3):
            raise RuntimeError(f"ergoscope reproduce {name} exited with {code}")
        verdict = "reproduced" if code == 0 else "undetermined"
        return Outcome(verdict, code == 0, outputs)
    return Item(f"cli reproduce {name}", run)


def pipelines(scratch_dir: str) -> list[Item]:
    items = [_rolandex_item(h, w) for h in ROLANDEX_HORIZONS for w in ROLANDEX_WINDOWS]
    items += [_coscos_item(s, t) for s in COSCOS_SUBDIVISIONS for t in COSCOS_TOLS]
    items.append(_stepwise_item())
    items += [_cli_item(name, scratch_dir) for name in ("rolandex", "coscos")]
    return items * PIPELINE_SWEEPS


# ---------------------------------------------------------------------------


def build(name: str, scratch_dir: str) -> list[Item]:
    """The workload's items in canonical order."""
    if name == "classify_corpus":
        return classify_corpus()
    if name == "large_closure":
        return large_closure()
    if name == "ergodic_nets":
        return ergodic_nets()
    if name == "pipelines":
        return pipelines(scratch_dir)
    raise ValueError(f"unknown workload {name!r}")


def inputs_digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.id.encode() + b"\n")
    return h.hexdigest()


def seeded_order(items: list[Item], seed: int) -> list[Item]:
    order = list(items)
    random.Random(seed).shuffle(order)
    return order
