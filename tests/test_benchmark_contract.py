"""The program surface that the benchmark's tracer reads (perfbench/tracing.py).

The tracer looks up its target functions by module and name and reads
fields of their results; a change that renames or drops one breaks the
benchmark without touching perfbench/.  This test runs one traced job of
each subcommand and reads every per-layer metric that BENCHMARK.json names.
"""
import json
import os

import pytest

from se2control import cli
from test_cli import OPEN, TRACE_ZERO

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
