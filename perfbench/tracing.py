"""Span tracing around the program's public functions, from outside the program.

Modules import these functions by name (``from .flow import flow_r2``), so
:meth:`Tracer.install` replaces every module attribute that *is* the original
function, in every loaded ``se2control`` module, and :meth:`Tracer.uninstall`
puts the originals back.  Each wrapped call pushes a frame on one stack; when
it returns, its duration is added to the enclosing frame's child time, so a
function's self time is its duration minus that of its timed callees.

Functions called thousands of times per job are *counted*: calls, summed
time and self time, but no span each.  The others also record a span
(job, id, parent, name, start, end), kept in memory until the run ends.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
from time import perf_counter

from se2control import flow

SPAN, COUNT = True, False


def _rk4_steps(args, kwargs, result, counters):
    # Same rule as the oracle: ceil(|s| / step) steps, none for s = 0.
    s = float(args[1] if len(args) > 1 else kwargs["s"])
    step = float(kwargs.get("step", args[4] if len(args) > 4 else flow.DEFAULT_RK4_STEP))
    if s != 0.0:
        counters["rk4_steps"] += max(1, int(math.ceil(abs(s) / step - 1e-12)))


def _reach(args, kwargs, result, counters):
    cfg = result.config
    nx, ny = cfg.shape
    cells = result.cell_count
    counters["reach_rounds"] += result.rounds
    counters["reach_cells"] += cells
    # Every claimed cell is expanded once, under every (control, arc step).
    counters["reach_candidates"] += cells * cfg.controls.size * cfg.steps_per_arc
    counters["reach_claims"] += cells - 1
    counters["grid_bytes"] += nx * ny * 17  # bool occupancy + two float64 grids


def _concat(args, kwargs, result, counters):
    counters["flow_samples"] += len(result.times)


def _invariance(args, kwargs, result, counters):
    counters["invariance_samples"] += result.n_samples


def _plan(args, kwargs, result, counters):
    counters["plan_arcs"] += result.diagnostics.get("arcs", 0)
    counters["plan_bisection_iterations"] += result.diagnostics.get("bisection_iterations", 0)


# (module, function, records a span, hook on the returned value)
TARGETS = (
    ("specfile", "load_system_spec", SPAN, None),
    ("specfile", "load_control", SPAN, None),
    ("specfile", "dump_json", SPAN, None),
    ("specfile", "write_trajectory_csv", SPAN, None),
    ("specfile", "write_cells_csv", SPAN, None),
    ("system", "classify", SPAN, None),
    ("system", "reduce_system", COUNT, None),
    ("flow", "flow_r2", COUNT, None),
    ("flow", "flow_se2", COUNT, None),
    ("flow", "flow_detA0", COUNT, None),
    ("flow", "flow_concat", SPAN, _concat),
    ("flow", "rk4_oracle", COUNT, _rk4_steps),
    ("geometry", "check_invariance", SPAN, _invariance),
    ("reachability", "estimate_control_set", SPAN, None),
    ("reachability", "reach_forward", SPAN, _reach),
    ("reachability", "reach_backward", SPAN, _reach),
    ("reachability", "degenerate_structure_check", SPAN, None),
    ("reachability", "steer_degenerate", SPAN, None),
    ("planner", "plan_periodic", SPAN, _plan),
    ("verification", "run_verification", SPAN, None),
)


class Tracer:
    """Installs the wrappers and keeps spans, per-function stats and counters."""

    def __init__(self, main):
        self.spans = []
        self.stats = {}  # "module.function" -> [calls, total_s, self_s]
        self.counters = collections.Counter()
        self.job = None
        self._stack = []  # frames: [start, child_time, span_id]
        self._next_id = 0
        self._saved = []
        # The CLI entry point, wrapped as the root span of each job.
        self.root = self._wrap("cli.main", main, SPAN, None)
        self._wrapper_of = {}  # id(original) -> (original, wrapper)
        for modname, fname, span, hook in TARGETS:
            original = getattr(sys.modules["se2control." + modname], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, span, hook)
            self._wrapper_of[id(original)] = (original, wrapper)

    def _wrap(self, name, fn, span, hook):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            if span:
                self._next_id += 1
                sid = self._next_id
            else:
                sid = parent
            frame = [perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if span:
                    self.spans.append((self.job, sid, parent, name, frame[0], end))
            if hook is not None:
                hook(args, kwargs, result, self.counters)
            return result

        return wrapper

    def install(self) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "se2control" and not name.startswith("se2control."):
                continue
            for attr, value in list(vars(mod).items()):
                original, wrapper = self._wrapper_of.get(id(value), (None, None))
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def stat(self, name: str, field: int) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[field]


def layer_metrics(tr: Tracer, n_rounds: int, time_scale: float) -> dict:
    """Per-layer figures per traced round (one pass over the job list).

    Times are multiplied by `time_scale`, the host's speed during the traced
    rounds relative to its reference speed (see speed.py).
    """
    n = max(n_rounds, 1)
    c = tr.counters
    calls = lambda name: tr.stat(name, 0) / n
    total = lambda *names: time_scale * sum(tr.stat(x, 1) for x in names) / n
    own = lambda name: time_scale * tr.stat(name, 2) / n
    per = lambda num, den, scale: num * scale / den if den else 0.0

    reach_s = total("reachability.reach_forward", "reachability.reach_backward")
    candidates = c["reach_candidates"] / n
    rk4_s = total("flow.rk4_oracle")
    rk4_steps = c["rk4_steps"] / n
    inv_s = total("geometry.check_invariance")
    inv_samples = c["invariance_samples"] / n
    return {
        "reachability.reach_s": (reach_s, "s"),
        "reachability.rounds": (c["reach_rounds"] / n, "count"),
        "reachability.cells": (c["reach_cells"] / n, "count"),
        "reachability.candidates": (candidates, "count"),
        "reachability.ns_per_candidate": (per(reach_s, candidates, 1e9), "ns"),
        "reachability.claims_per_candidate": (per(c["reach_claims"] / n, candidates, 1.0), "ratio"),
        "reachability.grid_bytes": (c["grid_bytes"] / n, "B"),
        "reachability.estimate_self_s": (own("reachability.estimate_control_set"), "s"),
        "reachability.degenerate_s": (total("reachability.degenerate_structure_check"), "s"),
        "reachability.steer_calls": (calls("reachability.steer_degenerate"), "count"),
        "flow.flow_r2_calls": (calls("flow.flow_r2"), "count"),
        "flow.flow_r2_s": (total("flow.flow_r2"), "s"),
        "flow.flow_se2_calls": (calls("flow.flow_se2"), "count"),
        "flow.flow_se2_s": (total("flow.flow_se2"), "s"),
        "flow.flow_detA0_calls": (calls("flow.flow_detA0"), "count"),
        "flow.flow_concat_s": (total("flow.flow_concat"), "s"),
        "flow.samples": (c["flow_samples"] / n, "count"),
        "flow.rk4_calls": (calls("flow.rk4_oracle"), "count"),
        "flow.rk4_steps": (rk4_steps, "count"),
        "flow.rk4_s": (rk4_s, "s"),
        "flow.rk4_ns_per_step": (per(rk4_s, rk4_steps, 1e9), "ns"),
        "system.classify_calls": (calls("system.classify"), "count"),
        "system.reduce_calls": (calls("system.reduce_system"), "count"),
        "system.reduce_s": (total("system.reduce_system"), "s"),
        "geometry.invariance_s": (inv_s, "s"),
        "geometry.invariance_samples": (inv_samples, "count"),
        "geometry.invariance_us_per_sample": (per(inv_s, inv_samples, 1e6), "us"),
        "verification.self_s": (own("verification.run_verification"), "s"),
        "planner.plan_s": (total("planner.plan_periodic"), "s"),
        "planner.self_s": (own("planner.plan_periodic"), "s"),
        "planner.arcs": (c["plan_arcs"] / n, "count"),
        "planner.bisection_iterations": (c["plan_bisection_iterations"] / n, "count"),
        "specfile.read_s": (total("specfile.load_system_spec", "specfile.load_control"), "s"),
        "specfile.write_s": (
            total("specfile.dump_json", "specfile.write_trajectory_csv", "specfile.write_cells_csv"),
            "s",
        ),
        "specfile.bytes_written": (c["bytes_written"] / n, "B"),
        "cli.self_s": (own("cli.main"), "s"),
    }
