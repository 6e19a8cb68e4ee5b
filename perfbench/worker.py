"""One workload in one process: set up, run the closed loop, check outputs.

Started by ``run.py`` with a JSON configuration as its only argument.
It prints one JSON line with the raw measurements, set-up time (until
its inputs exist) among them, and exits.  The memory ceiling is set before anything
else, so an oversized allocation raises ``MemoryError`` inside an item
instead of exhausting the machine.  Untraced, it also times set-up,
passes and items on a ``HostClock``, from the moment ``run.py`` started
the process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    clock = None
    if not cfg["trace"]:
        from hostclock import HostClock
        clock = HostClock()
        clock.start(cfg["spawned"])
    ceiling = cfg["memory_ceiling_mb"] * 2**20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        ceiling = min(ceiling, hard)
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    root = cfg["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import ergoscope
    if not os.path.abspath(ergoscope.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise ImportError(f"ergoscope imported from {ergoscope.__file__}, not from {root}/src")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from tracing import Tracer

    scratch = os.path.join(cfg["out_dir"], "scratch")
    os.makedirs(scratch, exist_ok=True)
    canonical = workloads.build(cfg["workload"], scratch)
    if cfg["limit"]:
        canonical = canonical[:cfg["limit"]]
    reference = None
    if not cfg["record"]:
        with open(os.path.join(os.path.dirname(__file__), "reference",
                               cfg["workload"] + ".json")) as fh:
            reference = json.load(fh)
        if not cfg["limit"] and workloads.inputs_digest(canonical) != reference["inputs_digest"]:
            raise RuntimeError("generated inputs differ from the recorded reference inputs")
        if cfg["corrupt"]:
            first = reference["items"][canonical[0].id]
            first["outputs"] = {name: "0" * 64 for name in first["outputs"]}
    items = workloads.seeded_order(canonical, cfg["seed"])
    setup = {"setup_wall_s": time.perf_counter() - cfg["spawned"],
             "setup_ref_s": clock.now() if clock else None}
    if cfg["setup_only"]:
        clock.stop()
        print(json.dumps(setup), flush=True)
        return 0

    tracer = Tracer() if cfg["trace"] else None
    runner = Runner(reference, tracer, clock)
    deadline = time.perf_counter() + cfg["seconds"]
    while True:
        start = time.perf_counter()
        runner.run_pass(items)
        now = time.perf_counter()
        if cfg["record"] or now + (now - start) > deadline:
            break
    if clock is not None:
        clock.stop()
    if tracer is not None:
        tracer.measure_closure_memory()

    import numpy
    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "memory_ceiling_mb": ceiling / 2**20,
        "inputs_digest": workloads.inputs_digest(items),
        "canonical_digest": workloads.inputs_digest(canonical),
        "items_per_pass": len(items),
        **setup,
        "pass_walls": runner.pass_walls,
        "pass_ref_walls": runner.pass_ref_walls,
        "latencies": runner.latencies,
        "ref_latencies": runner.ref_latencies,
        "clock_probes": clock.probes if clock else 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "incorrect": runner.incorrect,
        "decided": runner.decided,
        "failures": runner.failures[:20],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if cfg["record"]:
        result["record"] = runner.record
    if tracer is not None:
        result["untraced_walls"] = runner.untraced_walls
        result["layers"] = tracer.metrics(len(runner.pass_walls))
        tracer.write_spans(os.path.join(
            cfg["out_dir"], f"spans-{cfg['workload']}-seed{cfg['seed']}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


def release_free_heap():
    """A function that hands the C heap's free pages back to the system,
    where the C library has one (glibc's ``malloc_trim``)."""
    try:
        import ctypes
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    return lambda: trim(0)


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


class Runner:
    """Closed loop with a single client: the next item starts when one ends.

    Without a tracer, wall times leave out the clock's probes, and every
    pass and item is also timed in the clock's reference seconds.  With
    a tracer there is no clock, and every item runs twice, untraced and
    traced, in turns that alternate which goes first; the two sums per
    pass give the untraced and traced pass times, so their difference is
    what the tracing costs.
    """

    def __init__(self, reference, tracer, clock):
        self.reference = reference
        self.tracer = tracer
        self.clock = clock
        self.pass_walls: list[float] = []
        self.pass_ref_walls: list[float] = []
        self.untraced_walls: list[float] = []
        self.latencies: list[float] = []
        self.ref_latencies: list[float] = []
        self.attempted = self.failed = self.incorrect = self.decided = 0
        self.failures: list[dict] = []
        self.record: dict[str, dict] = {}
        self.release_free_heap = release_free_heap()

    def run_pass(self, items) -> None:
        if self.tracer is None:
            wall = sum(self.run_item(item) for item in items)
            self.pass_walls.append(wall)
            self.pass_ref_walls.append(sum(self.ref_latencies[-len(items):]))
            return
        walls = {False: 0.0, True: 0.0}
        for i, item in enumerate(items):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    self.tracer.item = item.id
                    with self.tracer.installed():
                        walls[True] += self.run_item(item)
                else:
                    walls[False] += self.run_item(item)
        self.pass_walls.append(walls[True])
        self.untraced_walls.append(walls[False])

    def run_item(self, item) -> float:
        probe_s = self.clock.probe_s if self.clock else 0.0
        ref_start = self.clock.now() if self.clock else 0.0
        start = time.perf_counter()
        try:
            outcome, error = item.run(), None
        except Exception as exc:  # every crash is a counted, reported failure
            kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
            outcome, error = None, f"{kind}: {exc}"[:300]
        latency = time.perf_counter() - start
        if self.clock:
            latency -= self.clock.probe_s - probe_s
            self.ref_latencies.append(self.clock.now() - ref_start)
        self.latencies.append(latency)
        # Untimed: without it, the peak RSS depends on the heap that the
        # items before the largest one happened to leave fragmented, and
        # so on the seed's order.
        self.release_free_heap()
        self.attempted += 1
        if outcome is not None and outcome.determinate:
            self.decided += 1
        if self.reference is None:
            self.record[item.id] = (
                {"error": error.split(":")[0]} if error else
                {"verdict": outcome.verdict, "determinate": outcome.determinate,
                 "outputs": digests(outcome.outputs)})
        else:
            problem, expected = self.check(self.reference["items"][item.id], outcome, error)
            if problem:
                self.failed += 1
                self.incorrect += not expected
                self.failures.append({"item": item.id, "problem": problem})
        return latency

    @staticmethod
    def check(ref: dict, outcome, error) -> tuple[str | None, bool]:
        """(problem, whether the reference run failed the same way)."""
        if error is not None:
            return error, ref.get("error") == error.split(":")[0]
        if "error" in ref or not ref["determinate"]:
            return None, True  # an undetermined or failed reference may improve
        if outcome.verdict != ref["verdict"]:
            return f"verdict {outcome.verdict} != reference {ref['verdict']}", False
        changed = sorted(k for k, v in digests(outcome.outputs).items()
                         if ref["outputs"].get(k) != v)
        if changed or set(outcome.outputs) != set(ref["outputs"]):
            return f"outputs differ from reference: {changed}", False
        return None, True


if __name__ == "__main__":
    sys.exit(main())
