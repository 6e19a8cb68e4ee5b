"""Spans around the library's public functions, recorded from outside.

``Tracer.installed`` replaces each traced function at every ``ergoscope``
module attribute bound to it (``envelope.generate_closure``,
``operators.minimal_sets``, ``rational.mat_mul``, ...), so calls between
layers pass through the wrapper; nothing in ``src/`` changes.

A span records its name, start, end, parent span and item id.  Spans
are kept in memory and written out when the run ends.  Self time is a
span's duration minus the part covered by its child spans; busy time of
a name counts only its outermost spans, so recursion is not counted
twice.  ``rational.mat_mul`` and ``operators.adjoint_matrix`` run
hundreds of thousands of times per pass, so they are timed and counted
but keep no span record.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

TRACED = (
    ("transforms", "generate_closure"),
    ("transforms", "kernel"),
    ("systems", "minimal_sets"),
    ("systems", "transitivity"),
    ("operators", "invariant_measures"),
    ("operators", "fixed_space"),
    ("operators", "decomposition_check"),
    ("operators", "adjoint_matrix"),
    ("rational", "mat_mul"),
    ("rational", "lp_feasible_point"),
    ("envelope", "classify"),
    ("envelope", "convex_koehler_zero"),
    ("envelope", "verify_zero_on_all_elements"),
    ("envelope", "kernel_image_check"),
    ("nets", "folner_net"),
    ("nets", "cesaro_net"),
    ("nets", "abel_net"),
    ("nets", "verify_net"),
    ("subshift", "rolandex_prefix"),
    ("subshift", "window_closure"),
    ("subshift", "classify_subshift"),
    ("subshift", "cesaro_trace"),
    ("cosgrid", "build_grid"),
    ("cosgrid", "weak_star_limit_check"),
    ("cosgrid", "iterate_stepwise"),
    ("cli", "main"),
)
NO_SPAN_RECORD = {"rational.mat_mul", "operators.adjoint_matrix"}
COUNTERS = (
    "transforms.generate_closure.elements",
    "rational.lp_feasible_point.rows",
    "rational.lp_feasible_point.columns",
    "envelope.convex_koehler_zero.method.cesaro_product",
    "envelope.convex_koehler_zero.method.word_average",
    "envelope.convex_koehler_zero.method.minimal_set_refutation",
    "envelope.convex_koehler_zero.method.linear_feasibility",
    "envelope.convex_koehler_zero.undetermined",
    "nets.combination_terms",
    "subshift.window_closure.windows",
    "cosgrid.grid_points",
)


class Tracer:
    def __init__(self):
        self.item = None
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.counts = defaultdict(int)
        self.peak_mb = 0.0
        self._largest_closure = (0, None)  # (elements, call arguments)
        self._stack: list[list] = []  # [time in child spans, span index]
        self._open = defaultdict(int)

    @contextlib.contextmanager
    def installed(self):
        """Route every binding of the traced functions through a wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ergoscope" or name.startswith("ergoscope.")]
        replaced = []
        for module_name, attr in TRACED:
            original = getattr(importlib.import_module(f"ergoscope.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        try:
            yield
        finally:
            for module, key, original in replaced:
                setattr(module, key, original)

    def _wrap(self, name, fn):
        record = name not in NO_SPAN_RECORD
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][1] if self._stack else -1
            index = len(self.spans) if record else parent
            if record:
                self.spans.append(None)
            frame = [0.0, index]
            self._stack.append(frame)
            self._open[name] += 1
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                duration = end - start
                if record:
                    self.spans[index] = (name, start, end, parent, self.item)
                if self._stack:
                    self._stack[-1][0] += duration
                if not self._open[name]:
                    self.busy[name] += duration
                self.self_time[name] += duration - frame[0]
                self.calls[name] += 1
                if not ok:
                    self.failed[name] += 1
            if count is not None:
                count(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # Counters taken at the same boundaries as the spans.

    def _count_transforms_generate_closure(self, args, kwargs, sg):
        self.counts["transforms.generate_closure.elements"] += sg.size
        if sg.size > self._largest_closure[0]:
            self._largest_closure = (sg.size, (args, kwargs))

    def measure_closure_memory(self) -> None:
        """tracemalloc peak of the largest closure traced, called once more.

        Under tracemalloc the closure's Python loops run about three times
        slower, so the peak is taken outside the timed passes.  The peak
        over all calls is the largest closure's: its m x m table dominates.
        """
        if self._largest_closure[1] is None:
            return
        from ergoscope.transforms import generate_closure
        args, kwargs = self._largest_closure[1]
        tracemalloc.start()
        try:
            generate_closure(*args, **kwargs)
            self.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def _count_rational_lp_feasible_point(self, args, kwargs, solution):
        rows = args[0]
        self.counts["rational.lp_feasible_point.rows"] += len(rows)
        self.counts["rational.lp_feasible_point.columns"] += len(rows[0]) if rows else 0

    def _count_envelope_convex_koehler_zero(self, args, kwargs, result):
        if result.status == "undetermined":
            self.counts["envelope.convex_koehler_zero.undetermined"] += 1
        else:
            self.counts[f"envelope.convex_koehler_zero.method.{result.method}"] += 1

    def _count_net(self, args, kwargs, net):
        self.counts["nets.combination_terms"] += sum(len(s.combination) for s in net.steps)

    _count_nets_folner_net = _count_nets_cesaro_net = _count_nets_abel_net = _count_net

    def _count_subshift_window_closure(self, args, kwargs, ws):
        self.counts["subshift.window_closure.windows"] += len(ws.windows)

    def _count_cosgrid_build_grid(self, args, kwargs, model):
        self.counts["cosgrid.grid_points"] += len(model.points)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer value per traced pass, with its unit."""
        out: dict[str, tuple[float, str]] = {}
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            out[f"{name}.busy_s"] = (self.busy[name] / passes, "s")
            out[f"{name}.self_s"] = (self.self_time[name] / passes, "s")
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.failed"] = (self.failed[name] / passes, "count")
        for key in COUNTERS:
            out[key] = (self.counts[key] / passes, "count")
        out["transforms.generate_closure.peak_mb"] = (self.peak_mb, "MB")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
