"""CLI end-to-end: exit codes, JSON/CSV payloads, determinism."""
import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from se2control import cli
from se2control.system import ReducedSpec


OPEN = {
    "alpha": 1.0,
    "xi": [0.0, 0.0],
    "A": {"lambda": 1.0, "mu": 2.0},
    "eta1": [1.0, 0.0],
    "omega": [-1.0, 1.0],
}
TRACE_ZERO = {
    "alpha": 1.0,
    "xi": [0.0, 0.0],
    "A": {"lambda": 0.0, "mu": 1.0},
    "eta1": [1.0, 0.0],
    "omega": [-2.0, 2.0],
}
DEGENERATE = {
    "alpha": 1.0,
    "xi": [1.0, 0.0],
    "A": [[0.0, 0.0], [0.0, 0.0]],
    "eta1": [0.3, 0.2],
    "omega": [-1.0, 1.0],
}

REACH_ARGS = ["--resolution", "0.05", "--bounds=-2,2,-2,2", "--control-grid", "5"]


def write_spec(tmp_path, data, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run_main(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_classify_stdout_json(tmp_path, capsys):
    rc, out, _ = run_main(capsys, ["classify", write_spec(tmp_path, OPEN)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["case"] == "OpenControlSet"
    assert payload["larc"] is True


def test_classify_out_file_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, TRACE_ZERO)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["classify", spec, "--out", str(a)]) == 0
    assert cli.main(["classify", spec, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["case"] == "ControllableTraceZero"


def test_simulate_constant_control_csv(tmp_path, capsys):
    rc, out, _ = run_main(
        capsys,
        ["simulate", write_spec(tmp_path, OPEN), "--u", "0.5", "--horizon", "2.0"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,t,v_x,v_y,u"
    assert len(lines) > 10
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(2.0, abs=0.0)
    assert float(last[4]) == 0.5


def test_simulate_verify_appends_deviation(tmp_path, capsys):
    rc, out, _ = run_main(
        capsys,
        ["simulate", write_spec(tmp_path, OPEN), "--u", "0.25", "--horizon", "1.0",
         "--verify"],
    )
    assert rc == 0
    trailer = out.strip().splitlines()[-1]
    assert trailer.startswith("# rk4_max_deviation,")
    assert float(trailer.split(",")[1]) < 1e-6


def test_simulate_verify_measures_the_rows_it_wrote(tmp_path, capsys):
    # RK4 runs segment by segment from the first row and is compared with the
    # CSV row at each segment's end, at a count of samples that is no power of two.
    from se2control.flow import rk4_oracle
    from se2control.group import angle_dist
    from se2control.specfile import load_system_spec

    spec_path = write_spec(tmp_path, dict(OPEN, xi=[0.3, -0.7]))
    segments = [(1.25, 0.7), (0.6, -0.3), (2.3, 0.9)]
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps({"segments": [{"duration": d, "u": u} for d, u in segments]}))
    rc, out, _ = run_main(capsys, ["simulate", spec_path, "--control", str(ctrl), "--x0", "0.3,1,-2",
                                   "--samples-per-segment", "3", "--verify"])
    assert rc == 0
    lines = out.strip().splitlines()
    rows = [[float(v) for v in line.split(",")[1:4]] for line in lines[1:-1]]
    assert len(rows) == 1 + 3 * len(segments)
    spec = load_system_spec(spec_path)
    approx, want = rows[0], 0.0
    for k, (dur, u) in enumerate(segments, 1):
        approx = rk4_oracle(spec, dur, approx, u)
        end = rows[3 * k]
        want = max(want, angle_dist(end[0], approx[0]) + math.hypot(end[1] - approx[1], end[2] - approx[2]))
    assert float(lines[-1].split(",")[1]) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_simulate_piecewise_control_file(tmp_path, capsys):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps({
        "segments": [{"duration": 1.0, "u": 0.5}, {"duration": 0.5, "u": -0.25}],
    }))
    rc, out, _ = run_main(
        capsys,
        ["simulate", write_spec(tmp_path, OPEN), "--control", str(ctrl)],
    )
    assert rc == 0
    u_col = {line.split(",")[4] for line in out.strip().splitlines()[1:]}
    assert {"0.5", "-0.25"} <= u_col


def test_simulate_overflow_is_invalid_input(tmp_path, capsys):
    rc, out, err = run_main(
        capsys,
        ["simulate", write_spec(tmp_path, OPEN), "--u", "0.5", "--horizon", "1000"],
    )
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: flow is not finite at s = ")


def test_simulate_negative_x0(tmp_path, capsys):
    for option in ("--x0", "--x"):  # in full and abbreviated
        rc, out, _ = run_main(
            capsys,
            ["simulate", write_spec(tmp_path, OPEN), "--u", "0.5", "--horizon", "1.0",
             option, "-1,2,0"],
        )
        assert rc == 0
        first = out.strip().splitlines()[1].split(",")
        assert [float(x) for x in first[1:4]] == pytest.approx([2 * 3.141592653589793 - 1, 2.0, 0.0])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("size, position", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_simulate_rejects_non_finite_x0(tmp_path, capsys, bad, size, position):
    coords = ["0.5"] * size
    coords[position] = bad
    x0 = ",".join(coords)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(
            capsys,
            ["simulate", write_spec(tmp_path, OPEN), "--u", "0.5", "--horizon", "1.0", "--x0", x0],
        )
    assert rc == 2
    assert out == ""
    assert err == f"error: --x0: coordinates must be finite, got {x0}\n"


@pytest.mark.parametrize("x0", ["1e308,1e308", "0.3,1e308,-1e308"])
def test_simulate_huge_x0_gives_one_line_and_no_warning(tmp_path, capsys, x0):
    # The chart products of flow_se2 overflow here; they once wrote a
    # RuntimeWarning and its source line before the error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(
            capsys,
            ["simulate", write_spec(tmp_path, OPEN), "--horizon", "1", "--x0", x0],
        )
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: flow is not finite at s = ")


def _simulate_quietly(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_main(capsys, ["simulate"] + argv)


@pytest.mark.parametrize("spec, error", [
    (OPEN, "flow is not finite at s = 1.5625e+306"),
    (TRACE_ZERO, None),
    (DEGENERATE, None),
])
def test_simulate_sample_times_past_the_float_range_of_dur_times_k(tmp_path, capsys, spec, error):
    # 1e308 * k overflows for k >= 2, though every sample time 1e308 * k / 64
    # is finite: the times once overflowed and wrote a RuntimeWarning.
    rc, out, err = _simulate_quietly(
        capsys, [write_spec(tmp_path, spec), "--u", "0", "--horizon", "1e308"])
    if error:
        # e^{lam s} overflows at the first sample, s = 1e308 / 64.
        assert (rc, out, err) == (2, "", f"error: {error}\n")
        return
    assert (rc, err) == (0, "")
    times = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert times == [0.0] + [float(Fraction(1e308) * k / 64) for k in range(1, 65)]


def test_simulate_sample_times_near_the_float_range_round_once(tmp_path, capsys):
    rc, out, err = _simulate_quietly(
        capsys, [write_spec(tmp_path, DEGENERATE), "--u", "0", "--horizon", "1.7e308",
                 "--samples-per-segment", "3"])
    assert (rc, err) == (0, "")
    times = [float(line.split(",")[0]) for line in out.strip().splitlines()[2:]]
    want = [Fraction(1.7e308) * k / 3 for k in (1, 2, 3)]
    # Each time rounds 1.7e308 * k and then its quotient by 3.
    assert len(times) == 3
    assert all(abs(Fraction(t) - w) <= math.ulp(t) for t, w in zip(times, want))


def test_simulate_control_past_the_float_range_gives_one_line(tmp_path, capsys):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps({"segments": [{"duration": 1e308, "u": 0.0}] * 2}))
    rc, out, err = _simulate_quietly(capsys, [write_spec(tmp_path, DEGENERATE), "--control", str(ctrl)])
    assert (rc, out) == (2, "")
    assert err == "error: sample times overflow: the control lasts past the float range\n"


@pytest.mark.parametrize("horizon", ["1e306", "1e308"])
def test_simulate_verify_past_the_rk4_step_range_gives_one_line(tmp_path, capsys, horizon):
    # |s| / step overflows, so the RK4 step count is no integer: the oracle
    # once raised OverflowError out of main, after the trajectory rows.  The
    # check runs before the output opens, so neither stdout nor --out gets a row.
    spec, out_file = write_spec(tmp_path, DEGENERATE), tmp_path / "traj.csv"
    argv = [spec, "--u", "0", "--horizon", horizon, "--verify"]
    message = f"error: the RK4 step count |s| / step overflows at s = {float(horizon)}\n"
    assert _simulate_quietly(capsys, argv) == (2, "", message)
    assert _simulate_quietly(capsys, argv + ["--out", str(out_file)]) == (2, "", message)
    assert not out_file.exists()


@pytest.mark.parametrize("x0", ["1", "1,2,3,4", "1,2,3,4,5"])
def test_simulate_x0_count_message_names_both_forms(tmp_path, capsys, x0):
    rc, out, err = run_main(
        capsys,
        ["simulate", write_spec(tmp_path, OPEN), "--u", "0.5", "--horizon", "1.0", "--x0", x0],
    )
    assert rc == 2
    assert out == ""
    assert err == "error: --x0: expected 2 or 3 comma-separated numbers\n"


def test_simulate_control_outside_omega_is_invalid_input(tmp_path, capsys):
    rc, _, err = run_main(
        capsys,
        ["simulate", write_spec(tmp_path, OPEN), "--u", "5", "--horizon", "1"],
    )
    assert rc == 2
    assert err.startswith("error:")


def test_invalid_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{\n  broken\n}\n")
    rc, _, err = run_main(capsys, ["classify", str(bad)])
    assert rc == 2
    assert "broken.json:2" in err


def test_missing_spec_file_is_invalid_input(tmp_path, capsys):
    rc, _, err = run_main(capsys, ["classify", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in err


def test_reach_payload_and_determinism(tmp_path, capsys):
    spec = write_spec(tmp_path, OPEN)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["reach", spec, "--out", str(a)] + REACH_ARGS) == 0
    assert cli.main(["reach", spec, "--out", str(b)] + REACH_ARGS) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["case"] == "open"
    assert payload["cells"] > 0
    assert not {"boundary", "lifted", "generator_u"} & payload.keys()
    assert payload["classification"]["case"] == "OpenControlSet"
    assert "boundary_structure" in payload["classification"]
    assert payload["grid"]["resolution"] == 0.05


def test_reach_cells_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, OPEN)
    out, cells = tmp_path / "r.json", tmp_path / "cells.csv"
    rc = cli.main(
        ["reach", spec, "--out", str(out), "--cells-csv", str(cells)] + REACH_ARGS
    )
    assert rc == 0
    lines = cells.read_text().strip().splitlines()
    assert lines[0] == "i,j,x,y"
    assert len(lines) - 1 == json.loads(out.read_text())["cells"]


def test_reach_negative_bounds(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = cli.main(
        ["reach", write_spec(tmp_path, OPEN), "--out", str(out), "--resolution", "0.05",
         "--bounds", "-2,2,-2,2", "--control-grid", "5"]
    )
    assert rc == 0
    assert json.loads(out.read_text())["grid"]["bounds"] == [-2.0, 2.0, -2.0, 2.0]
    args = cli.build_parser().parse_args(["reach", "spec.json", "--bound", "-2,2,-2,2"])
    assert args.bounds == "-2,2,-2,2"


def test_shortest_bounds_abbreviation_is_read_as_bounds():
    args = cli.build_parser().parse_args(["reach", "spec.json", "--b", "-2,2,-2,2"])
    assert args.bounds == "-2,2,-2,2"


@pytest.mark.parametrize(
    "grid_args, message",
    [
        (["--resolution", "1e-6"], "bytes, over the 536870912-byte budget"),
        (["--resolution", "1e-310"], "unbounded number of cells"),
        (["--bounds=-inf,inf,-1,1"], "unbounded number of cells"),
    ],
)
def test_reach_rejects_oversized_grid(tmp_path, capsys, grid_args, message):
    rc, out, err = run_main(capsys, ["reach", write_spec(tmp_path, OPEN)] + grid_args)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "bounds, message",
    [
        ("-inf,inf,-1,1", "unbounded number of cells"),
        ("-INF,1,-1,1", "unbounded number of cells"),
        ("-Infinity,1,-1,1", "unbounded number of cells"),
        ("-nan,1,-1,1", "x_min < x_max"),
        ("-NaN,1,-1,1", "x_min < x_max"),
    ],
)
def test_reach_bounds_starting_with_minus_inf_or_nan_give_one_line(tmp_path, capsys, bounds, message):
    rc, out, err = run_main(capsys, ["reach", write_spec(tmp_path, OPEN), "--bounds", bounds])
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "spec, argv, message",
    [
        (OPEN, ["simulate", "--u", "-inf", "--horizon", "1"], "segment controls must be finite"),
        (OPEN, ["simulate", "--horizon", "-nan"], "segment durations must be finite"),
        (OPEN, ["reach", "--seed-control", "-inf"], "seed control -inf lies outside"),
        (TRACE_ZERO, ["plan", "--v0", "1,1", "--rho", "-inf"], "rho must satisfy"),
        # An abbreviation of --horizon.
        (OPEN, ["simulate", "--hor", "-NaN"], "segment durations must be finite"),
    ],
)
def test_values_starting_with_minus_inf_or_nan_give_one_line(tmp_path, capsys, spec, argv, message):
    # argparse would read "-inf" as an option and print its usage block.
    rc, out, err = run_main(capsys, argv[:1] + [write_spec(tmp_path, spec)] + argv[1:])
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


def test_negative_values_attach_only_to_options_that_take_one(capsys):
    argv = ["simulate", "spec.json", "--u", "-inf", "--x0", "-1,2", "--verify", "--samples-p", "-3"]
    args = cli.build_parser().parse_args(argv)
    assert (args.u, args.x0, args.verify, args.samples_per_segment) == (-math.inf, "-1,2", True, -3)
    # --verify takes no value, so "-nan" after it is no value of an option.
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv[:7] + ["-nan"] + argv[7:])
    assert "unrecognized arguments: -nan" in capsys.readouterr().err


def _value_options() -> list:
    """One param (command, option, action) per option, of every subcommand, that takes a value."""
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        pytest.param(command, opt, action, id=f"{command} {opt}")
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.option_strings and action.nargs != 0
        for opt in action.option_strings
    ]


@pytest.mark.parametrize("value", ["-1", "-inf", "-nan", "-3,0"])
@pytest.mark.parametrize("command, option, action", _value_options())
def test_every_value_option_reads_a_value_that_starts_with_minus(capsys, command, option, action, value):
    # argparse itself reads only plain numbers such as -1 as values; the CLI
    # widens its negative-number pattern to -inf, -nan and lists.  Should
    # argparse stop consulting that pattern, this fails for every option.
    required = ["--v0", "1,1"] if command == "plan" else []
    argv = [command, "spec.json", *required, option, value]
    try:
        want = (action.type or str)(value)
    except ValueError:
        want = None
    if want is not None and (action.choices is None or want in action.choices):
        assert repr(getattr(cli.build_parser().parse_args(argv), action.dest)) == repr(want)
        return
    # The value reaches the option's own type or choices check.
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    err = capsys.readouterr().err
    assert f"argument {option}: invalid" in err and f"'{value}'" in err


def test_verify_on_the_overflowing_degenerate_spec_fails_only_conjugacy(tmp_path, capsys):
    # alpha = 1e180, xi = (1e160, 3), A = 0: H(v) = <v, i xi> overflowed in
    # spec units and verify exited 2.  In units of xi the monotone check
    # passes; the conjugacy suite still fails, because the RK4 oracle's fixed
    # step turns the angle by about 1e177 rad per step.
    path = write_spec(tmp_path, dict(DEGENERATE, alpha=1e180, xi=[1e160, 3.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["verify", path])
    assert (rc, err) == (4, "")
    failed = [s["name"] for s in json.loads(out)["suites"] if s["status"] == "failed"]
    assert failed == ["conjugacy"]


# The A = 0 specs on which the check once failed or stopped: at xi = 1e150 the
# O(1) targets read as mutual and off the line, at 1e-160 H underflowed, at
# 1e-170 |xi|^2 did (exit 2), and at alpha = 1e180, xi = (1e160, 3) H overflowed.
@pytest.mark.parametrize("change", [
    {"xi": [1e150, 0.0]},
    {"xi": [1e-160, 0.0]},
    {"xi": [1e-170, 0.0]},
    {"alpha": 1e180, "xi": [1e160, 3.0]},
], ids=["xi=1e150", "xi=1e-160", "xi=1e-170", "alpha=1e180"])
def test_verify_monotone_passes_at_extreme_xi(tmp_path, capsys, change):
    path = write_spec(tmp_path, dict(DEGENERATE, **change))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["verify", path, "--suite", "monotone_functional"])
    (suite,) = json.loads(out)["suites"]
    assert (rc, err, suite["status"]) == (0, "", "passed"), suite
    assert suite["metrics"]["mutual_pairs"] > 0 and suite["metrics"]["counterexamples"] == 0


def _degenerate_specs_at_every_magnitude(n, seed):
    """n A = 0 specs with |xi|, alpha and the ends of Omega from 1e-300 to
    1e300, and alpha times each end of Omega in the same range."""
    rng = random.Random(seed)
    specs = []
    for _ in range(n):
        a = rng.uniform(-300.0, 300.0)
        lo, hi = (rng.uniform(max(-300.0, -300.0 - a), min(300.0, 300.0 - a)) for _ in range(2))
        size, phi = 10.0 ** rng.uniform(-300.0, 300.0), rng.uniform(-math.pi, math.pi)
        specs.append({"alpha": rng.choice((1.0, -1.0)) * 10.0**a,
                      "xi": [size * math.cos(phi), size * math.sin(phi)],
                      "A": [[0.0, 0.0], [0.0, 0.0]], "eta1": [0.3, 0.2],
                      "omega": [-(10.0**lo), 10.0**hi]})
    return specs


def test_verify_monotone_passes_at_every_magnitude(tmp_path, capsys):
    # The check runs in units of xi and of time, so no magnitude of xi,
    # alpha or Omega reaches a case its units do not hold.  Where alpha
    # Omega was tiny the steering once found no mutual pair (exit 4).
    for i, spec in enumerate(_degenerate_specs_at_every_magnitude(40, 35)):
        path = write_spec(tmp_path, spec, f"deg{i}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_main(capsys, ["verify", path, "--seed", str(i), "--suite", "monotone_functional"])
        (suite,) = json.loads(out)["suites"]
        assert (rc, err, suite["status"]) == (0, "", "passed"), (spec, suite)


def test_overflowing_spec_classifies_and_verifies_without_warnings(tmp_path, capsys):
    # alpha xi overflows in the rank test, and sqrt(x**2 + y**2) of the
    # flows' deviations would: classify still finds the rank condition, and
    # the flow suites report finite deviations.
    path = write_spec(tmp_path, dict(DEGENERATE, alpha=1e180, xi=[1e160, 3.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, _ = run_main(capsys, ["classify", path])
        assert rc == 0 and json.loads(out)["larc"] is True
        rc, out, _ = run_main(capsys, ["verify", path, "--suite", "conjugacy", "--suite", "semigroup"])
    suites = json.loads(out)["suites"]
    assert [s["name"] for s in suites] == ["conjugacy", "semigroup"]
    assert all(math.isfinite(s["metrics"]["max_deviation"]) for s in suites)


@pytest.mark.parametrize("command", ["classify", "verify", "reach"])
def test_overflowing_rates_give_one_line(tmp_path, capsys, command):
    # lambda^2 overflows: once a traceback from float ** in SystemSpec.det.
    # The reduction and its flows take these rates; the det A that classify
    # reports, and reach and verify read, does not fit a double.
    path = write_spec(tmp_path, dict(OPEN, xi=[0.3, -0.7], A={"lambda": 1e200, "mu": 2.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, [command, path])
    assert rc == 2
    assert out == ""
    assert err == "error: det A = lambda^2 + mu^2 overflows\n"


@pytest.mark.parametrize("argv_tail, rc, err", [
    (["classify"], 0, ""),
    (["reach"], 3, "error: reach applies to the planar reduced cases; this system is NotClassified\n"),
    (["plan", "--v0", "1,0"], 3, "error: plan requires the rotation-only case (trace A = 0, "
                                 "det A != 0); this system is NotClassified\n"),
    (["verify"], 2, "error: flow is not finite at s = 1.6452134544805177\n"),
    (["simulate", "--horizon", "1", "--u", "0.5"], 2, "error: flow is not finite at s = 0.015625\n"),
])
def test_an_unreducible_spec_is_classified_before_it_is_reduced(tmp_path, capsys, argv_tail, rc, err):
    # The rank condition fails (xi = eta1 = 0), so classify reports
    # NotClassified without reducing, and reach and plan stop there; the
    # jobs that flow or verify reduce it, and e^{lambda s} overflows at the
    # first time they flow.
    path = write_spec(tmp_path, dict(OPEN, A={"lambda": 1e200, "mu": 2.0}, eta1=[0.0, 0.0]))
    got = run_main(capsys, [argv_tail[0], path] + argv_tail[1:])
    assert (got[0], got[2]) == (rc, err)
    if rc == 0:
        assert json.loads(got[1])["case"] == "NotClassified"


@pytest.mark.parametrize("v0", ["1e100,0", "0,1e100"])
def test_plan_with_an_overflowing_theta_eta_gives_one_line(tmp_path, capsys, v0):
    # |theta eta|^2 overflows: both starts once wrote numpy's overflow warning,
    # and "0,1e100" then exited 0 with a plan built on a zero line direction.
    # |theta eta| = 1e160 itself is past the planner's MAX_LENGTH.
    path = write_spec(tmp_path, dict(TRACE_ZERO, eta1=[1e160, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["plan", path, "--v0", v0])
    assert rc == 2
    assert out == ""
    assert err == ("error: plan needs |theta eta| >= 1e-150, and v0, theta eta and the "
                   "centers v(+-rho) within 1e+150 of the origin\n")


def test_plan_over_the_byte_budget_gives_one_line(tmp_path, capsys):
    # 39,328 arcs: once about 5 M trajectory rows, past the 512 MiB budget.
    tz = {"alpha": 1.1, "xi": [0.5, 0.2], "A": {"lambda": 0.0, "mu": 1.4},
          "eta1": [0.7, -0.1], "omega": [-1.0, 1.0]}
    rc, out, err = run_main(capsys, ["plan", write_spec(tmp_path, tz), "--v0", "1e5,0"])
    assert rc == 2
    assert out == ""
    assert err == ("error: plan from v0 = (100000.0, 0.0) takes 39328 arcs, whose trajectory "
                   "needs about 8.56e+08 bytes, over the 536870912-byte budget\n")


@pytest.mark.parametrize("argv_tail, rc, err", [
    (["classify"], 0, ""),
    (["reach"], 0, ""),
    (["verify"], 2, "error: (mu - alpha u)^2 / lambda^2 overflows for u in omega\n"),
])
def test_rates_whose_squares_underflow_give_a_label_or_one_line(tmp_path, capsys, argv_tail, rc, err):
    # lambda^2 + mu^2 underflows: the system is open, not A = 0.  Its reduced
    # eta (about 3e169) once had a |eta|^2 too large for reach's grid; the
    # bound sweep's (nu / sigma)^2, which verify reports, is too large still.
    path = write_spec(tmp_path, dict(OPEN, xi=[0.3, -0.7], A={"lambda": 1e-170, "mu": 2e-170},
                                     eta1=[1.0, 0.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_main(capsys, [argv_tail[0], path] + argv_tail[1:])
    assert (got[0], got[2]) == (rc, err)
    if rc == 0:
        assert json.loads(got[1])["case"] == {"classify": "OpenControlSet", "reach": "open"}[argv_tail[0]]


# e^{s lambda} overflows on part of the bound sweep's s grid.
FAST_RATES = dict(OPEN, xi=[0.3, -0.7], A={"lambda": 100.0, "mu": 2.0}, eta1=[1.0, 0.2])


def test_bound_sweep_measures_rates_whose_exponential_overflows(tmp_path, capsys):
    # Once four numpy warnings, then min_margin Infinity and passed.
    path = write_spec(tmp_path, FAST_RATES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["verify", path, "--suite", "bound_sweep"])
    assert (rc, err) == (0, "")
    (suite,) = json.loads(out)["suites"]
    assert suite["status"] == "passed"
    assert 0.0 < suite["metrics"]["min_margin"] < math.inf


def test_verify_on_huge_rates_gives_one_line(tmp_path, capsys):
    # Once three numpy warnings from the bound sweep before the flow error.
    path = write_spec(tmp_path, dict(FAST_RATES, A={"lambda": 1e20, "mu": 2.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["verify", path])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, option, message",
    [
        (OPEN, ["--seed-control", "5"], "seed control 5.0 lies outside the control range [-1.0, 1.0]"),
        (OPEN, ["--seed-control", "nan"], "seed control nan lies outside"),
        (OPEN, ["--seed-control", "inf"], "seed control inf lies outside"),
        (OPEN, ["--seed-control=-inf"], "seed control -inf lies outside"),
        (TRACE_ZERO, ["--seed-control", "2.5"], "seed control 2.5 lies outside the control range"),
        (OPEN, ["--resolution", "inf"], "resolution must be positive and finite"),
        (TRACE_ZERO, ["--resolution", "inf"], "resolution must be positive and finite"),
        (OPEN, ["--time-step", "inf"], "time_step must be positive and finite"),
        (OPEN, ["--time-step", "nan"], "time_step must be positive and finite"),
    ],
)
def test_reach_rejects_invalid_values_with_one_line_and_no_warning(tmp_path, capsys, spec, option, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["reach", write_spec(tmp_path, spec)] + option)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("grid", [[], ["--bounds=-5,5,-5,5", "--resolution", "0.1"]])
def test_reach_rejects_an_invariant_ball_of_infinite_radius(tmp_path, capsys, grid):
    # |eta| mu / lam is about 1.5e310 at lam = 1e-160 and |eta| = 1e150.  With
    # a grid, reach once wrote "radius": Infinity, which is not JSON; without
    # one, it named a --resolution the user never gave.  (With |eta| = 1 the
    # radius is finite, and reach runs: see the scaling tests.)
    spec = dict(OPEN, xi=[0.3, -0.7], A={"lambda": 1e-160, "mu": 1.5}, eta1=[1e150, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["reach", write_spec(tmp_path, spec)] + grid)
    assert (rc, out) == (2, "")
    assert err == "error: the invariant ball's radius overflows\n"


@pytest.mark.parametrize("time_step", ["1e308", "3e306"])
def test_reach_rejects_a_time_step_whose_arcs_overflow(tmp_path, capsys, time_step):
    # 24 steps of 1e308 overflow the arc times s; at 3e306 only the angles
    # s (mu - u) overflow.  Both once wrote numpy RuntimeWarnings and exited
    # 0 with a report built from NaN flow columns.
    spec = dict(OPEN, xi=[0.3, -0.7], eta1=[1.0, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["reach", write_spec(tmp_path, spec), "--time-step", time_step])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: time_step {float(time_step)!r} is out of range: ")
    assert err.count("\n") == 1


def _time_scaled(spec, k):
    """The spec time-scaled by 2**k: (alpha, xi, A, eta1) times 2**k."""
    c = 2.0**k
    return {"alpha": c * spec["alpha"], "xi": [c * x for x in spec["xi"]],
            "A": {"lambda": c * spec["A"]["lambda"], "mu": c * spec["A"]["mu"]},
            "eta1": [c * x for x in spec["eta1"]], "omega": spec["omega"]}


def _rates_scaled_back(report, k):
    """A reach report of a spec time-scaled by 2**k with its rates and times
    scaled back to the spec's: exact, as each is a power-of-two multiple."""
    cls, reduced, grid = report["classification"], report["classification"]["reduced"], report["grid"]
    for d, key, power in ((cls, "lambda", -k), (cls, "mu", -k), (cls, "trace", -k), (cls, "det", -2 * k),
                          (reduced, "lambda", -k), (reduced, "mu", -k), (report, "seed_control", -k),
                          (grid, "time_step", k)):
        d[key] = math.ldexp(d[key], power)
    for d, key in ((reduced, "omega"), (grid, "controls")):
        d[key] = [math.ldexp(u, -k) for u in d[key]]
    return report


@pytest.mark.parametrize("k", [-30, -4, 10])
def test_reach_defaults_are_covariant_under_time_scaling(tmp_path, capsys, k):
    # The default time step is 0.05 / max(|lam|, |mu - u-|, |mu - u+|) and
    # the seed control's distance from mu is relative to the same rate, so a
    # power-of-two time scaling leaves every cell and representative as it
    # is.  The time step once floored at an absolute 1: at k = -30 the
    # report held 1 cell, and at k = -4 10,156 cells against 10,390.
    spec = dict(OPEN, xi=[0.3, -0.7], eta1=[1.0, 0.2])
    outputs = []
    for scale in (0, k):
        path = write_spec(tmp_path, _time_scaled(spec, scale), f"spec{scale}.json")
        out, cells = tmp_path / f"reach{scale}.json", tmp_path / f"cells{scale}.csv"
        argv = ["reach", path, "--control-grid", "5", "--out", str(out), "--cells-csv", str(cells)]
        assert run_main(capsys, argv) == (0, "", "")
        outputs.append((json.loads(out.read_text()), cells.read_bytes()))
    (want, want_cells), (got, got_cells) = outputs
    assert got_cells == want_cells
    assert want["cells"] == 10390
    assert json.dumps(_rates_scaled_back(got, k), sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("c", [1e-170, 1e-160, 1e154, 1e160, 1e200])
def test_open_spec_at_any_translation_scale_reaches_and_verifies_its_ball(tmp_path, capsys, c):
    # |eta|^2 once vanished at 1e-170 (1 cell, the ball suite skipped as
    # "eta = 0"), lost its digits at 1e-160 (the suite failed) and overflowed
    # from 1e160 (exit 2).  |eta| and the ball radius are formed on scaled values now.
    path = write_spec(tmp_path, dict(OPEN, xi=[0.3 * c, -0.7 * c], eta1=[c, 0.2 * c]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["reach", path, "--control-grid", "5"])
        assert (rc, err, json.loads(out)["cells"]) == (0, "", 10390)
        rc, out, err = run_main(capsys, ["verify", path, "--suite", "ball_invariance"])
    assert (rc, err, json.loads(out)["suites"][0]["status"]) == (0, "", "passed")


def test_trace_zero_spec_time_scaled_by_2_to_the_minus_997_covers_its_disk(tmp_path, capsys):
    # det A(u) = lam^2 + (mu - u)^2 underflowed to 0 at every control, each
    # counted as singular: 401 cells and coverage 0.012.
    spec = dict(OPEN, xi=[0.3, -0.7], A={"lambda": 0.0, "mu": 1.0}, eta1=[1.0, 0.2])
    path = write_spec(tmp_path, _time_scaled(spec, -997))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["reach", path, "--control-grid", "5"])
    report = json.loads(out)
    assert (rc, err, report["cells"], report["coverage"]["fraction"]) == (0, "", 23391, 1.0)


def test_a_reach_job_computes_its_invariant_ball_once(tmp_path, capsys, monkeypatch):
    # The default grid and the containment check both read plant.rs.ball.
    calls = []

    def counted(rs):
        calls.append(rs)
        return body(rs)

    body = ReducedSpec.ball.func
    ball = functools.cached_property(counted)
    ball.__set_name__(ReducedSpec, "ball")
    monkeypatch.setattr(ReducedSpec, "ball", ball)
    rc, out, _ = run_main(capsys, ["reach", write_spec(tmp_path, OPEN), "--control-grid", "5"])
    assert rc == 0 and "ball_check" in json.loads(out)
    assert len(calls) == 1


def test_classify_rejects_a_saddle_whose_entries_are_small(tmp_path, capsys):
    # Trace 0 and det < 0: an absolute commuting tolerance of 1e-12 once
    # passed this A and reported OpenControlSet.
    path = write_spec(tmp_path, dict(OPEN, A=[[1e-13, 0.0], [0.0, -1e-13]]))
    rc, out, err = run_main(capsys, ["classify", path])
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: A must commute with the rotation generator\n"


HUGE_GRID = ["--bounds=-1e300,1e300,-1e300,1e300", "--resolution", "1e299"]


@pytest.mark.parametrize(
    "lam, grid",
    [
        (1.0, HUGE_GRID),
        (-1.0, HUGE_GRID),
        (0.0, HUGE_GRID),
        # A time step of 100: the backward flows' factors e^(-100 k) underflow.
        (1.0, ["--bounds=-1e100,1e100,-1e100,1e100", "--resolution", "1e99", "--time-step", "100"]),
    ],
)
def test_reach_on_a_grid_near_the_float_range_writes_no_warning(tmp_path, capsys, lam, grid):
    # Squared distances of cell centres overflow there: the distances fall
    # back to hypot.
    spec = dict(OPEN, A={"lambda": lam, "mu": 2.0 if lam else 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(capsys, ["reach", write_spec(tmp_path, spec)] + grid)
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    if lam:
        assert payload["ball_check"]["violations"] == 0
        assert math.isfinite(payload["ball_check"]["max_center_distance"])
    if lam > 0:
        assert "boundary_growth" not in payload["diagnostics"]


def test_reach_rejects_degenerate_case(tmp_path, capsys):
    rc, _, err = run_main(capsys, ["reach", write_spec(tmp_path, DEGENERATE)])
    assert rc == 3
    assert "DegenerateDetZero" in err


def test_plan_success_payload(tmp_path, capsys):
    spec = write_spec(tmp_path, TRACE_ZERO)
    out, traj = tmp_path / "plan.json", tmp_path / "traj.csv"
    rc = cli.main(
        ["plan", spec, "--v0", "3,0", "--rho", "0.5",
         "--out", str(out), "--traj-csv", str(traj)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["closure_error"] < 1e-8
    assert payload["origin_error"] < 1e-6
    radii = payload["radii"]
    assert all(b < a for a, b in zip(radii, radii[1:]))
    assert abs(payload["u_final"]) <= 2.0
    assert traj.read_text().splitlines()[0] == "s,t,v_x,v_y,u"


def test_plan_rejects_non_rotation_case(tmp_path, capsys):
    rc, _, err = run_main(capsys, ["plan", write_spec(tmp_path, OPEN), "--v0", "1,0"])
    assert rc == 3
    assert "OpenControlSet" in err


def test_plan_negative_v0(tmp_path, capsys):
    out = tmp_path / "plan.json"
    for option in ("--v0", "--v"):  # in full and abbreviated
        rc = cli.main(
            ["plan", write_spec(tmp_path, TRACE_ZERO), option, "-3,0", "--rho", "0.5",
             "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["waypoints"][0] == [-3.0, 0.0]
        assert payload["closure_error"] < 1e-8


def test_plan_bad_v0_is_invalid_input(tmp_path, capsys):
    rc, _, err = run_main(
        capsys, ["plan", write_spec(tmp_path, TRACE_ZERO), "--v0", "1"]
    )
    assert rc == 2
    assert "--v0" in err


def test_verify_passes_and_reports_suites(tmp_path, capsys):
    rc, out, _ = run_main(
        capsys,
        ["verify", write_spec(tmp_path, DEGENERATE), "--samples", "200"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    status = {s["name"]: s["status"] for s in payload["suites"]}
    assert status["monotone_functional"] == "passed"
    assert status["bound_sweep"] == "skipped"


def test_verify_monotone_finds_mutual_pairs_after_long_dwells(tmp_path, capsys):
    # A dwell of duration about a/eps at angle eps once lost about 1e-16 per
    # unit of time to cancellation, so every on-line steering residual here
    # stayed near 1e-8 and no pair counted as mutual (exit 4).
    spec = {
        "alpha": -1.1404607595593477,
        "xi": [0.3560681962926982, 0.5218296584265653],
        "A": {"lambda": 0.0, "mu": 0.0},
        "eta1": [0.3093106294967789, -0.050392099349775066],
        "omega": [-0.9703596606289779, 0.9703596606289779],
    }
    rc, out, _ = run_main(
        capsys,
        ["verify", write_spec(tmp_path, spec), "--seed", "675064715", "--suite", "monotone_functional"],
    )
    (suite,) = json.loads(out)["suites"]
    assert rc == 0, suite
    assert suite["metrics"]["mutual_pairs"] > 0


def test_verify_suite_selection(tmp_path, capsys):
    rc, out, _ = run_main(
        capsys,
        ["verify", write_spec(tmp_path, OPEN),
         "--suite", "conjugacy", "--suite", "semigroup", "--samples", "100"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert [s["name"] for s in payload["suites"]] == ["conjugacy", "semigroup"]


def test_verify_all_suites_skipped_exits_zero(tmp_path, capsys):
    rc, out, _ = run_main(
        capsys,
        ["verify", write_spec(tmp_path, OPEN), "--suite", "monotone_functional"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [(s["name"], s["status"]) for s in payload["suites"]] == [
        ("monotone_functional", "skipped")
    ]


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    class FailingReport:
        passed = False

        def to_dict(self):
            return {"passed": False, "suites": []}

    monkeypatch.setattr(cli, "run_verification", lambda *a, **k: FailingReport())
    rc, _, _ = run_main(capsys, ["verify", write_spec(tmp_path, OPEN)])
    assert rc == 4


@pytest.mark.parametrize(
    "argv_tail, option",
    [
        (["simulate", "--u", "0.5", "--horizon", "1", "--samples-per-segment", "10000000000000"],
         "--samples-per-segment"),
        (["verify", "--samples", "10000000000000"], "--samples"),
        (["reach", "--control-grid", "100000000000"], "--control-grid"),
    ],
)
def test_oversized_count_options_are_rejected_before_allocating(tmp_path, capsys, argv_tail, option):
    argv = argv_tail[:1] + [write_spec(tmp_path, OPEN)] + argv_tail[1:]
    rc, out, err = run_main(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1
    assert "bytes, over the 536870912-byte budget" in err


@pytest.mark.parametrize("option", sorted(cli.BYTES_PER_UNIT))
def test_count_budget_holds_just_below_and_rejects_just_above(option):
    largest = cli.MAX_GRID_BYTES // cli.BYTES_PER_UNIT[option]
    cli._check_count_budget(option, largest)  # nothing is allocated either way
    with pytest.raises(ValueError, match=f"{option} {largest + 1} needs about"):
        cli._check_count_budget(option, largest + 1)


@pytest.mark.parametrize("extra", [0, 1])
def test_verify_checks_its_sample_cap_before_any_work(tmp_path, capsys, monkeypatch, extra):
    # The cross-check's peak memory does not grow with --samples, so the
    # entry caps the work: the cap passes the check and goes on to prepare
    # the spec, one more sample exits 2 before that.
    class Reached(Exception):
        pass

    def reached(spec):
        raise Reached

    cap = cli.MAX_GRID_BYTES // cli.BYTES_PER_UNIT["--samples"]
    monkeypatch.setattr(cli, "prepare", reached)
    argv = ["verify", write_spec(tmp_path, OPEN), "--samples", str(cap + extra)]
    if not extra:
        with pytest.raises(Reached):
            cli.main(argv)
        return
    rc, out, err = run_main(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == (f"error: --samples {cap + 1} needs about {(cap + 1) * 140} bytes, "
                   "over the 536870912-byte budget\n")


def test_verify_ball_suite_on_a_time_scaled_spec_equals_the_unscaled_report(tmp_path, capsys):
    # OPEN with time scaled by 2^23: the suite once flowed at absolute times
    # and exited 2 with "flow is not finite at s = 0.013347480739772054".
    scaled = {"alpha": 2.0**23, "xi": [0.0, 0.0], "A": {"lambda": 2.0**23, "mu": 2.0**24},
              "eta1": [2.0**23, 0.0], "omega": [-1.0, 1.0]}
    outs = []
    for name, data in (("open.json", OPEN), ("scaled.json", scaled)):
        argv = ["verify", write_spec(tmp_path, data, name), "--suite", "ball_invariance", "--samples", "200"]
        rc, out, err = run_main(capsys, argv)
        assert (rc, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["suites"][0]["status"] == "passed"


@pytest.mark.parametrize(
    "samples_args",
    [["--samples", "0", "--suite", "ball_invariance"], ["--samples", "-5"]],
)
def test_verify_rejects_fewer_than_one_sample(tmp_path, capsys, samples_args):
    rc, out, err = run_main(capsys, ["verify", write_spec(tmp_path, OPEN)] + samples_args)
    assert rc == 2
    assert out == ""
    assert err == "error: samples must be >= 1\n"


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_reused_parser_gives_identical_runs(tmp_path, capsys):
    open_spec = write_spec(tmp_path, OPEN)
    tz_spec = write_spec(tmp_path, TRACE_ZERO, "tz.json")
    jobs = {
        "classify": ["classify", open_spec, "--out", "@/c.json"],
        "simulate": ["simulate", open_spec, "--u", "0.25", "--horizon", "1.0", "--verify",
                     "--out", "@/s.csv"],
        "reach": ["reach", open_spec, "--out", "@/r.json", "--cells-csv", "@/cells.csv"]
                 + REACH_ARGS,
        "plan": ["plan", tz_spec, "--v0", "-3,0", "--rho", "0.5", "--out", "@/p.json",
                 "--traj-csv", "@/p.csv"],
        "verify": ["verify", open_spec, "--samples", "100", "--out", "@/v.json"],
    }
    for name, argv in jobs.items():
        runs = []
        for k in range(2):
            out_dir = tmp_path / f"{name}{k}"
            out_dir.mkdir()
            rc = cli.main([a.replace("@", str(out_dir)) for a in argv])
            captured = capsys.readouterr()
            files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
            runs.append((rc, captured.out, captured.err, files))
            if k == 0:
                # A usage error and a help exit between the two calls.
                assert "invalid choice: 'nosuch'" in _usage_error(capsys, ["nosuch"])
                with pytest.raises(SystemExit) as exc:
                    cli.main([name, "--help"])
                assert exc.value.code == 0
                assert capsys.readouterr().out.startswith(f"usage: se2control {name} ")
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][3]


def test_verify_without_suite_after_suite_runs_all(tmp_path, capsys):
    spec = write_spec(tmp_path, OPEN)
    rc, out, _ = run_main(capsys, ["verify", spec, "--suite", "conjugacy", "--samples", "100"])
    assert rc == 0
    assert [s["name"] for s in json.loads(out)["suites"]] == ["conjugacy"]
    rc, out, _ = run_main(capsys, ["verify", spec, "--samples", "100"])
    assert rc == 0
    assert [s["name"] for s in json.loads(out)["suites"]] == list(cli.SUITE_NAMES)
    assert len(cli.SUITE_NAMES) == 5


def test_later_usage_error_goes_to_current_stderr(tmp_path, capsys):
    argv = ["simulate", write_spec(tmp_path, OPEN), "--horizon", "one"]
    first = _usage_error(capsys, argv)
    assert first.startswith("usage: se2control simulate ")
    assert "argument --horizon: invalid float value: 'one'" in first
    for _ in range(2):
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream), pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert stream.getvalue() == first
        assert capsys.readouterr().err == ""


def test_parser_is_built_once_per_process_and_not_at_import(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = f"""
import argparse, sys
sys.path.insert(0, {src!r})
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from se2control import cli
print(len(built))
for _ in range(20):
    assert cli.main(["classify", {write_spec(tmp_path, OPEN)!r}, "--out", {str(tmp_path / "c.json")!r}]) == 0
print(len(built))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # The top parser and its five subparsers, built on the first call only.
    assert proc.stdout.split() == ["0", "6"]


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        ["se2control", "classify", write_spec(tmp_path, OPEN)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case"] == "OpenControlSet"


def test_python_m_entry_point(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "se2control", "classify", write_spec(tmp_path, OPEN)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["case"] == "OpenControlSet"


def test_closed_stdout_exits_quietly(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "se2control", "simulate", write_spec(tmp_path, OPEN),
            "--u", "0.5", "--horizon", "1", "--samples-per-segment", "200000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"s,t,v_x,v_y,u\n"
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
