"""The ergoscope benchmark.

Run one workload, as the metrics in ``BENCHMARK.json`` define it::

    python3 perfbench/run.py --workload classify_corpus --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give the environment record and
every metric by name with its unit.

    python3 perfbench/run.py --all --seed 1 --seconds 25   # all four workloads
    python3 perfbench/run.py --self-check                   # quick check of the harness
    python3 perfbench/run.py --record                       # rewrite perfbench/reference

Each workload runs in its own worker process (``worker.py``), one at a
time, single-threaded with BLAS threads pinned to 1, under an
address-space ceiling of ``MEMORY_CEILING_MB``.  The worker is a closed
loop with one client: it submits the workload's items one after
another, in an order fixed by the seed, and repeats the whole pass
while another pass still fits in ``--seconds``.  Every item's output is
checked against the reference recorded in ``perfbench/reference``.

The host's speed swings by up to half in states of a few seconds, so
the gated times, ``setup_s`` and ``wall_ref_s``, are counted on the
worker's ``HostClock`` (``hostclock.py``): seconds at a fixed reference
speed of the host, probed every 20 ms.  The wall-clock ``wall_s``,
``setup_wall_s`` and ``item_p95_s`` are printed beside them, not gated.
Results, spans and scratch files go to ``.perfbench_out`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("classify_corpus", "large_closure", "ergodic_nets", "pipelines")
MEMORY_CEILING_MB = 2048
SETUP_PROBES = 4
RUN_TIMEOUT_S = 170
SELF_CHECK_LIMITS = {"classify_corpus": 5, "large_closure": 1,
                     "ergodic_nets": 2, "pipelines": 4}
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
               setup_only=False, limit=0, corrupt=False, record=False):
    """Start a worker and return its result."""
    cfg = dict(workload=workload, seed=seed, seconds=seconds, trace=trace,
               setup_only=setup_only, limit=limit, corrupt=corrupt, record=record,
               root=ROOT, out_dir=OUT_DIR, memory_ceiling_mb=MEMORY_CEILING_MB,
               spawned=time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, env={**os.environ, **WORKER_ENV}, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker exceeded the run time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail_latency(latencies: list[float], items_per_pass: int) -> tuple[float, float]:
    """(latency, quantile): p95, or lower if a single pass would leave fewer
    than ten items beyond it, so that every run has ten; with fewer than
    eleven items per pass, the slowest item."""
    quantile = min(0.95, 1 - 10 / items_per_pass) if items_per_pass > 10 else 1.0
    xs = sorted(latencies)
    return xs[max(0, math.ceil(quantile * len(xs)) - 1)], quantile


def measure(workload: str, seed: int, seconds: float, trace: bool, limit: int = 0,
            corrupt: bool = False) -> dict:
    """One benchmark run: metrics with units, counts and the environment record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups, ref_setups = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_worker(workload, seed, seconds, trace, deadline,
                               setup_only=True, limit=limit)
            setups.append(probe["setup_wall_s"])
            ref_setups.append(probe["setup_ref_s"])
    res = run_worker(workload, seed, seconds, trace, deadline, limit=limit, corrupt=corrupt)
    setups.append(res["setup_wall_s"])
    ref_setups.append(res["setup_ref_s"])
    attempted = res["attempted"]
    tail, quantile = tail_latency(res["latencies"], res["items_per_pass"])
    if trace:
        untraced = statistics.median(res["untraced_walls"])
        metrics = dict(res["layers"])
        metrics["trace.overhead_share"] = (
            (statistics.median(res["pass_walls"]) - untraced) / untraced, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(ref_setups), "s"),
            "wall_ref_s": (statistics.median(res["pass_ref_walls"]), "s"),
            "item_p95_ref_s": (tail_latency(res["ref_latencies"], res["items_per_pass"])[0], "s"),
            "wall_s": (statistics.median(res["pass_walls"]), "s"),
            "item_p95_s": (tail, "s"),
            "setup_wall_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["maxrss_mb"], "MB"),
            "decided_share": (res["decided"] / attempted, "ratio"),
        }
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": attempted,
        "failed": res["failed"],
        "incorrect": res["incorrect"],
        "failures": res["failures"],
        "environment": {
            "python": res["python"], "numpy": res["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "memory_ceiling_mb": res["memory_ceiling_mb"],
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "inputs_digest": res["inputs_digest"],
            "canonical_inputs_digest": res["canonical_digest"],
            "items_per_pass": res["items_per_pass"], "passes": len(res["pass_walls"]),
            "pass_walls_s": res["pass_walls"],
            "pass_ref_walls_s": res["pass_ref_walls"],
            "host_clock_probes": res["clock_probes"],
            "untraced_pass_walls_s": res.get("untraced_walls"),
            "items_attempted": attempted,
            "failed_share": res["failed"] / attempted,
            "item_p95_quantile": quantile,
            "setup_samples_s": setups,
            "setup_ref_samples_s": ref_setups,
        },
    }


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def selected(run: dict, kind: str) -> dict:
    return {name: {"value": run["metrics"][name][0], "unit": unit}
            for name, unit in declared(kind).items()}


def report(run: dict, metrics: dict) -> None:
    env = run["environment"]
    print(json.dumps({"environment": env}))
    for name, m in metrics.items():
        print(f"{run['workload']:16} {name:60} {m['value']:.6g} {m['unit']}")
    # Printed but not gated: failed_share is 0 on most workloads, and
    # wall-clock times follow the host's speed swings of a few seconds.
    print(f"{run['workload']:16} {'failed_share':60} {env['failed_share']:.6g} ratio "
          f"({run['failed']} of {run['attempted']} items)")
    if not env["trace"]:
        for name in ("wall_s", "setup_wall_s", "item_p95_s", "item_p95_ref_s"):
            value, unit = run["metrics"][name]
            note = (f" (p{100 * env['item_p95_quantile']:.1f} of {env['items_attempted']} items)"
                    if name.startswith("item_p95") else "")
            print(f"{run['workload']:16} {name:60} {value:.6g} {unit}{note}")
    for failure in run["failures"]:
        print(f"{run['workload']:16} FAILED {failure['item']}: {failure['problem']}")


def record_references(workloads) -> None:
    for workload in workloads:
        res = run_worker(workload, 0, 0, False, time.monotonic() + 600, record=True)
        path = os.path.join(HERE, "reference", workload + ".json")
        with open(path, "w") as fh:
            json.dump({"inputs_digest": res["canonical_digest"],
                       "recorded_with": {"python": res["python"], "numpy": res["numpy"]},
                       "items": res["record"]}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(res['record'])} items of {workload} in {path}")


def self_check() -> None:
    """Tiny run of every workload: every declared metric with its unit, and
    a corrupted reference output reported as a failed item."""
    for workload in WORKLOADS:
        limit = SELF_CHECK_LIMITS[workload]
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            run = measure(workload, 1, 0, trace, limit=limit)
            for name, unit in declared(kind).items():
                if run["metrics"].get(name, (None, None))[1] != unit:
                    raise BenchError(f"{workload}: {name} not emitted in {unit}")
            if run["incorrect"]:
                raise BenchError(f"{workload}: {run['failures']}")
        run = measure(workload, 1, 0, False, limit=limit, corrupt=True)
        if run["failed"] < 1 or run["incorrect"] < 1:
            raise BenchError(f"{workload}: corrupted reference output went unnoticed")
        print(f"self-check {workload}: metrics and units complete, corruption detected")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ergoscope", "__init__.py")):
        print(f"no ergoscope sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.self_check:
            self_check()
            return 0
        if args.record:
            record_references([args.workload] if args.workload else WORKLOADS)
            return 0
        if not (args.all or args.workload):
            parser.error("give --workload, --all, --self-check or --record")
        kind = "per_layer" if args.trace else "end_to_end"
        runs = [measure(w, args.seed, args.seconds, bool(args.trace))
                for w in (WORKLOADS if args.all else (args.workload,))]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for run in runs:
        m = selected(run, kind)
        report(run, m)
        metrics.update({(f"{run['workload']}.{k}" if args.all else k): v
                        for k, v in m.items()})
    print(json.dumps({
        "correct": not any(run["incorrect"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
