"""The program surface that the benchmark's tracer reads (perfbench/tracing.py).

The tracer looks up its target functions by module and name and reads
fields of their results; a change that renames or drops one breaks the
benchmark without touching perfbench/.  This test runs one traced job of
each subcommand and reads every per-layer metric that BENCHMARK.json names.
"""
import contextlib
import io
import json
import os
import sys

import pytest

from se2control import cli
from test_cli import DEGENERATE, OPEN, TRACE_ZERO

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    return tracing


def test_traced_jobs_fill_every_per_layer_metric(tmp_path, tracing):
    open_spec, tz_spec = tmp_path / "open.json", tmp_path / "tz.json"
    open_spec.write_text(json.dumps(OPEN))
    tz_spec.write_text(json.dumps(TRACE_ZERO))
    jobs = [
        ["classify", str(open_spec), "--out", str(tmp_path / "classify.json")],
        ["simulate", str(open_spec), "--u", "0.5", "--horizon", "2", "--verify",
         "--out", str(tmp_path / "sim.csv")],
        ["reach", str(open_spec), "--resolution", "0.05", "--control-grid", "5",
         "--cells-csv", str(tmp_path / "cells.csv"), "--out", str(tmp_path / "reach.json")],
        ["plan", str(tz_spec), "--v0", "3,0", "--out", str(tmp_path / "plan.json")],
        ["verify", str(open_spec), "--samples", "200", "--out", str(tmp_path / "verify.json")],
    ]
    tr = tracing.Tracer(cli.main)
    tr.install()
    try:
        for k, argv in enumerate(jobs):
            tr.job = k
            assert tr.root(argv) == 0, argv
    finally:
        tr.uninstall()

    c = tr.counters
    for name in ("reach_rounds", "reach_cells", "reach_candidates", "rk4_steps",
                 "plan_arcs", "invariance_samples", "flow_samples"):
        assert c[name] > 0, name
    layers = tracing.layer_metrics(tr, 1, 1.0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names - {"trace.overhead_pct"} <= set(layers)


def test_every_traced_job_reduces_its_system_at_most_once(tmp_path, tracing):
    # Each job prepares one plant and passes it along; the tracer counts the
    # reductions, and every function it targets must still resolve.
    for module, name, _, _ in tracing.TARGETS:
        assert callable(getattr(sys.modules["se2control." + module], name)), (module, name)
    paths = {}
    for key, data in (("open", OPEN), ("tz", TRACE_ZERO), ("deg", DEGENERATE)):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(data))
    control = tmp_path / "control.json"
    control.write_text(json.dumps({"segments": [{"duration": 0.5, "u": u} for u in (0.5, -0.5, 1.0, 0.0)]}))
    jobs = [
        ["classify", str(paths["open"])],
        ["simulate", str(paths["open"]), "--control", str(control), "--verify"],
        ["simulate", str(paths["deg"]), "--control", str(control), "--verify"],
        ["reach", str(paths["open"]), "--resolution", "0.1", "--control-grid", "5"],
        ["plan", str(paths["tz"]), "--v0", "3,0", "--traj-csv", str(tmp_path / "traj.csv")],
        ["verify", str(paths["open"]), "--samples", "200"],
        ["verify", str(paths["deg"]), "--samples", "200"],
    ]
    tr = tracing.Tracer(cli.main)
    tr.install()
    try:
        for argv in jobs:
            before = tr.stat("system.reduce_system", 0)
            with contextlib.redirect_stdout(io.StringIO()):
                assert tr.root(argv) == 0, argv
            assert tr.stat("system.reduce_system", 0) - before <= 1, argv
    finally:
        tr.uninstall()
    assert tr.stat("flow.flow_se2", 0) > 0
