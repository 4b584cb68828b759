"""Each independent check must pass real output and reject a corrupted copy.

    python3 -m pytest -q perfbench/test_checks.py

The fixture runs a few cheap jobs of each workload through se2control.cli.main
(src on sys.path), then every test corrupts one output in one way.
"""

import csv
import json
import math
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import algebra  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402

SEED = 7
WANTED = {
    "reach_mix": ("reach03_closed_default", "reach07_tz_mid"),
    "verify_mix": ("verify05_open_sweep_ball", "verify11_deg_monotone3"),
    "trajectory_mix": ("plan01_d1.5", "sim00_open_2x64", "sim08_tz_2x64", "classify01_closed"),
}


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    from se2control.cli import main

    base = tmp_path_factory.mktemp("bench")
    jobs = {}
    for workload, ids in WANTED.items():
        in_dir = str(base / workload / "inputs")
        out_dir = str(base / workload / "out")
        os.makedirs(out_dir)
        for job in gen.generate(workload, SEED, in_dir):
            if job["id"] in ids:
                argv = [a.replace("@IN@", in_dir).replace("@OUT@", out_dir) for a in job["argv"]]
                assert main(argv) == 0, job["id"]
                jobs[job["id"]] = (job, in_dir, out_dir)
    return jobs


@pytest.fixture
def job(ran, request, tmp_path):
    """A private copy of one job's outputs: (job, in_dir, out_dir)."""
    j, in_dir, out_dir = ran[request.param]
    copy = str(tmp_path / "out")
    shutil.copytree(out_dir, copy)
    assert checks.check_job(j, in_dir, copy) == []
    return j, in_dir, copy


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _edit_json(path, edit):
    d = _read_json(path)
    edit(d)
    with open(path, "w") as fh:
        json.dump(d, fh)


def _rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _errors(job):
    j, in_dir, out_dir = job
    return checks.check_job(j, in_dir, out_dir)


@pytest.mark.parametrize("job", ["classify01_closed"], indirect=True)
def test_flipped_case_label_is_rejected(job):
    path = os.path.join(job[2], job[0]["id"] + ".json")
    _edit_json(path, lambda d: d.update(case=algebra.CASE_OPEN))
    assert any("case" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["reach03_closed_default"], indirect=True)
def test_cell_outside_the_ball_is_rejected(job):
    j, _, out_dir = job
    d = _read_json(os.path.join(out_dir, j["id"] + ".json"))
    xmin, xmax, ymin, _ = d["grid"]["bounds"]
    res = d["grid"]["resolution"]
    i = int(math.ceil((xmax - xmin) / res - 1e-9)) - 1  # a corner cell, 2.1 radii out
    path = os.path.join(out_dir, j["params"]["csv"])
    rows = _rows(path)
    rows[-1] = [str(i), "0", repr(xmin + (i + 0.5) * res), repr(ymin + 0.5 * res)]
    _write_rows(path, rows)
    assert any("from the ball centre" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["reach03_closed_default"], indirect=True)
def test_missing_equilibrium_cell_is_rejected(job):
    j, in_dir, out_dir = job
    red = algebra.reduce(algebra.load_spec(os.path.join(in_dir, j["spec"])))
    d = _read_json(os.path.join(out_dir, j["id"] + ".json"))
    xmin, _, ymin, _ = d["grid"]["bounds"]
    res = d["grid"]["resolution"]
    v = red.equilibrium(0.5 * red.omega[1])
    cell = [str(math.floor((v[0] - xmin) / res)), str(math.floor((v[1] - ymin) / res))]
    path = os.path.join(out_dir, j["params"]["csv"])
    rows = _rows(path)
    kept = [r for r in rows if r[:2] != cell]
    assert len(kept) == len(rows) - 1
    _write_rows(path, kept)
    _edit_json(os.path.join(out_dir, j["id"] + ".json"), lambda d: d.update(cells=d["cells"] - 1))
    assert any("unoccupied cell" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["reach07_tz_mid"], indirect=True)
def test_wrong_disk_coverage_is_rejected(job):
    path = os.path.join(job[2], job[0]["id"] + ".json")
    _edit_json(path, lambda d: d["coverage"].update(fraction=d["coverage"]["fraction"] - 0.01))
    assert any("recounted" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["verify05_open_sweep_ball"], indirect=True)
def test_perturbed_bound_sweep_margin_is_rejected(job):
    def edit(d):
        m = d["suites"][0]["metrics"]
        m["min_margin"] *= 1.0 + 1e-4

    _edit_json(os.path.join(job[2], job[0]["id"] + ".json"), edit)
    assert any("mpmath" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["verify05_open_sweep_ball"], indirect=True)
def test_wrong_sample_count_is_rejected(job):
    _edit_json(
        os.path.join(job[2], job[0]["id"] + ".json"),
        lambda d: d["suites"][1]["metrics"].update(samples=d["suites"][1]["metrics"]["samples"] - 1),
    )
    assert any("ball_invariance samples" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["verify11_deg_monotone3"], indirect=True)
def test_wrong_suite_routing_is_rejected(job):
    _edit_json(
        os.path.join(job[2], job[0]["id"] + ".json"),
        lambda d: d["suites"][0].update(status="passed"),
    )
    assert any("bound_sweep passed, expected skipped" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["plan01_d1.5"], indirect=True)
def test_plan_segment_with_wrong_duration_is_rejected(job):
    def edit(d):
        d["control"]["segments"][0]["duration"] *= 1.001

    _edit_json(os.path.join(job[2], job[0]["id"] + ".json"), edit)
    assert any("origin" in e or "from v0" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["plan01_d1.5"], indirect=True)
def test_plan_control_outside_omega_is_rejected(job):
    def edit(d):
        d["control"]["segments"][0]["u"] = 10.0

    _edit_json(os.path.join(job[2], job[0]["id"] + ".json"), edit)
    assert any("outside the reduced range" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["sim00_open_2x64"], indirect=True)
def test_perturbed_trajectory_endpoint_is_rejected(job):
    path = os.path.join(job[2], job[0]["id"] + ".csv")
    rows = _rows(path)
    rows[-1][2] = repr(float(rows[-1][2]) + 1e-4)
    _write_rows(path, rows)
    assert any("from RK4" in e for e in _errors(job))


@pytest.mark.parametrize("job", ["sim08_tz_2x64"], indirect=True)
def test_large_rk4_deviation_row_is_rejected(job):
    path = os.path.join(job[2], job[0]["id"] + ".csv")
    rows = _rows(path)
    assert rows[-1][0] == "# rk4_max_deviation"
    rows[-1][1] = "0.5"
    _write_rows(path, rows)
    assert any("rk4_max_deviation" in e for e in _errors(job))


def test_known_fault_counts_only_a_one_line_exit_2():
    fault = {"kind": "fault"}
    assert checks.job_succeeded(fault, 2, "error: e^(lambda s) overflows at s = 709\n", None)
    assert not checks.job_succeeded(fault, None, "", "OverflowError: math range error")
    assert not checks.job_succeeded(fault, 2, "Traceback\n  ...\nOverflowError\n", None)
    assert not checks.job_succeeded({"kind": "reach"}, 2, "error: x\n", None)
