"""Command-line interface.

Subcommands: classify, simulate, reach, plan, verify.  All reports are
deterministic JSON (sorted keys, each float as its shortest round-trip
repr); trajectories and reach sets are CSV.  Exit codes: 0 success,
2 invalid input, 3 case mismatch (command does not apply to the system's
classification case), 4 verification failure.  A reader that closes stdout early (``| head``) ends
the command quietly with exit code 0.

Input is normalised here and only here: argparse reads the argv once,
option values included that start with "-" (``--v0 -3,0``, ``--u -inf``),
and a job that needs the system prepares its spec once into the one
:class:`~se2control.system.Plant` that the library entry points take.

:func:`main` can be called many times in one process.  The argument parser is
built on the first call and reused by every later one; callers must not
mutate it.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from .flow import BYTES_PER_SAMPLE, SAMPLES_PER_SEGMENT, PiecewiseControl, flow_concat, rk4_oracle
from .group import angle_dist, wrap_angle
from .planner import plan_periodic
from .reachability import MAX_GRID_BYTES, default_grid_config, estimate_control_set
from .specfile import (
    SpecFileError,
    dump_json,
    format_float,
    load_control,
    load_system_spec,
    write_cells_csv,
    write_trajectory_csv,
)
from .system import (
    CASE_CLOSED,
    CASE_OPEN,
    CASE_TRACE_ZERO,
    classify,
    prepare,
)
from .verification import DEFAULT_SAMPLES, SUITE_NAMES, run_verification

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CASE_MISMATCH = 3
EXIT_VERIFICATION_FAILED = 4

# Peak bytes that one unit of a count option costs, measured with tracemalloc
# (numpy 2.4) and rounded up: one simulate sample (flow.BYTES_PER_SAMPLE) and
# one reach control (24 arc-step columns of flow constants and kernel buffers
# at about 100 bytes each).  Requests over the grid budget are rejected before
# anything is allocated.  The ball_invariance cross-check runs in blocks, so
# its peak stays near 530 kB at any --samples; its entry caps the work
# instead: 140 bytes a sample admits 3,834,792 samples.
BYTES_PER_UNIT = {"--samples-per-segment": BYTES_PER_SAMPLE, "--samples": 140, "--control-grid": 2400}


# A value that float() reads as a negative number, infinity or nan.
_NEGATIVE_VALUE = re.compile(r"-([0-9.]|inf|nan)", re.IGNORECASE)


class CaseMismatch(Exception):
    """Command applied to a system outside its classification case."""


def _parse_floats(text: str, what: str, *counts: int) -> list:
    """The numbers of a comma-separated option value; their count must be one of `counts`."""
    parts = text.split(",")
    if len(parts) not in counts:
        expected = " or ".join(map(str, counts))
        raise SpecFileError(f"{what}: expected {expected} comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise SpecFileError(f"{what}: {exc}") from exc


def _check_count_budget(option: str, count: int) -> None:
    """Raise ValueError when count units of option would need over MAX_GRID_BYTES."""
    n_bytes = count * BYTES_PER_UNIT[option]
    if n_bytes > MAX_GRID_BYTES:
        raise ValueError(
            f"{option} {count} needs about {n_bytes} bytes, over the "
            f"{MAX_GRID_BYTES}-byte budget"
        )


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _emit_json(payload: dict, path) -> None:
    stream, close = _open_out(path)
    try:
        dump_json(payload, stream)
    finally:
        if close:
            stream.close()


def cmd_classify(args) -> int:
    report = classify(prepare(load_system_spec(args.spec)))
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = load_system_spec(args.spec)
    if args.control is not None:
        control = load_control(args.control)
    elif args.horizon is not None:
        control = PiecewiseControl([(float(args.horizon), float(args.u))])
    else:
        raise SpecFileError("simulate needs --control FILE or --horizon (with --u)")
    if not control.within(spec.omega):
        raise SpecFileError(
            f"control values must lie within omega = [{spec.omega[0]}, {spec.omega[1]}]"
        )
    vals = _parse_floats(args.x0, "--x0", 2, 3)
    if len(vals) == 2:
        vals = [0.0] + vals
    if not np.all(np.isfinite(vals)):
        raise SpecFileError(f"--x0: coordinates must be finite, got {args.x0}")
    g0 = np.array([wrap_angle(vals[0]), vals[1], vals[2]])
    _check_count_budget(
        "--samples-per-segment", len(control.segments) * args.samples_per_segment
    )
    m = args.samples_per_segment
    traj = flow_concat(prepare(spec), control, g0, samples_per_segment=m)
    # The check runs before the output opens, so a failing one leaves none.
    dev = _simulate_rk4_deviation(spec, control, traj.states[::m]) if args.verify else None

    stream, close = _open_out(args.out)
    try:
        write_trajectory_csv(traj, stream)
        if dev is not None:
            stream.write(f"# rk4_max_deviation,{format_float(dev)}\n")
    finally:
        if close:
            stream.close()
    return EXIT_OK


def _simulate_rk4_deviation(spec, control: PiecewiseControl, ends: np.ndarray) -> float:
    """Max deviation of RK4 from `ends`: the trajectory's start row, then each segment's last row."""
    approx = ends[0]
    dev = 0.0
    for (dur, u), exact in zip(control.segments, ends[1:]):
        approx = rk4_oracle(spec, dur, approx, u)
        dev = max(
            dev,
            angle_dist(exact[0], approx[0]) + float(np.linalg.norm(exact[1:] - approx[1:])),
        )
    return dev


def _grid_from_args(rs, args):
    if args.control_grid is not None:
        _check_count_budget("--control-grid", args.control_grid)
    bounds = None if args.bounds is None else tuple(_parse_floats(args.bounds, "--bounds", 4))
    return default_grid_config(rs, resolution=args.resolution, n_controls=args.control_grid,
                               time_step=args.time_step, bounds=bounds, max_cells=args.max_cells)


def cmd_reach(args) -> int:
    plant = prepare(load_system_spec(args.spec))
    report = classify(plant)
    if report.case not in (CASE_TRACE_ZERO, CASE_CLOSED, CASE_OPEN):
        raise CaseMismatch(
            f"reach applies to the planar reduced cases; this system is {report.case}"
        )
    rs = plant.rs
    cfg = _grid_from_args(rs, args)
    est = estimate_control_set(rs, cfg, seed_control=args.seed_control)
    payload = est.to_dict()
    payload["classification"] = report.to_dict()
    _emit_json(payload, args.out)
    if args.cells_csv is not None:
        with open(args.cells_csv, "w") as fh:
            write_cells_csv(est.region, fh)
    return EXIT_OK


def cmd_plan(args) -> int:
    plant = prepare(load_system_spec(args.spec))
    report = classify(plant)
    if report.case != CASE_TRACE_ZERO:
        raise CaseMismatch(
            "plan requires the rotation-only case (trace A = 0, det A != 0); "
            f"this system is {report.case}"
        )
    rs = plant.rs
    if rs.mu == 0.0:
        raise CaseMismatch("plan requires mu != 0 (nonvanishing rotation rate)")
    v0 = np.array(_parse_floats(args.v0, "--v0", 2))
    plan = plan_periodic(rs, v0, rho=args.rho)
    _emit_json(plan.to_dict(), args.out)
    if args.traj_csv is not None:
        with open(args.traj_csv, "w") as fh:
            write_trajectory_csv(plan.trajectory, fh)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_system_spec(args.spec)
    _check_count_budget("--samples", args.samples)
    report = run_verification(
        prepare(spec),
        seed=args.seed,
        suites=args.suite or None,
        n_samples=args.samples,
    )
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and reused afterwards.

    Reuse is safe because parse_args does not mutate the parser; the one
    list-valued option, --suite (action="append", default None), gets a fresh
    list on each parse; and argparse looks up sys.stdout and sys.stderr when
    it prints, so help and usage errors go to the streams current at that
    call.  Callers must not mutate the parser.
    """
    p = argparse.ArgumentParser(
        prog="se2control",
        description="Analysis of linear control systems on the planar motion group.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="classification report for a system spec")
    pc.add_argument("spec", help="path to a system spec JSON file")
    pc.add_argument("--out", default=None, help="output path (default stdout)")
    pc.set_defaults(func=cmd_classify)

    ps = sub.add_parser("simulate", help="closed-form trajectory CSV")
    ps.add_argument("spec")
    ps.add_argument("--control", default=None, help="piecewise control JSON file")
    ps.add_argument("--u", type=float, default=0.0, help="constant control value")
    ps.add_argument("--horizon", type=float, default=None, help="duration for --u")
    ps.add_argument("--x0", default="0,0,0", help="initial state t,vx,vy (or vx,vy)")
    ps.add_argument("--samples-per-segment", type=int, default=SAMPLES_PER_SEGMENT)
    ps.add_argument(
        "--verify",
        action="store_true",
        help="append closed-form vs RK4 max deviation as a trailing comment row",
    )
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("reach", help="grid reach set and control-set estimate")
    pr.add_argument("spec")
    pr.add_argument("--resolution", type=float, default=None)
    pr.add_argument("--bounds", default=None, help="xmin,xmax,ymin,ymax")
    pr.add_argument("--control-grid", type=int, default=None, help="number of controls")
    pr.add_argument("--time-step", type=float, default=None)
    pr.add_argument("--max-cells", type=int, default=None)
    pr.add_argument("--seed-control", type=float, default=None)
    pr.add_argument("--cells-csv", default=None, help="write occupied cell centers CSV")
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_reach)

    pp = sub.add_parser("plan", help="periodic plan through v0 and the origin")
    pp.add_argument("spec")
    pp.add_argument("--v0", required=True, help="start point vx,vy in the reduced plane")
    pp.add_argument("--rho", type=float, default=None)
    pp.add_argument("--traj-csv", default=None)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=cmd_plan)

    pv = sub.add_parser("verify", help="run numerical verification suites")
    pv.add_argument("spec")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                    help="sphere points, and as many outside, in the ball_invariance cross-check")
    pv.add_argument(
        "--suite",
        action="append",
        choices=SUITE_NAMES,
        help="run only this suite (repeatable)",
    )
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    # argparse reads an argument that starts with "-" as an option unless its
    # negative-number pattern matches, and that pattern takes only plain
    # numbers such as -3 or -.5.  Widened to every value that float() reads
    # as negative, infinite or nan, it lets "--v0 -3,0", "--u -inf" and
    # "--b -2,2,-2,2" give the option its value; no option of this CLI
    # looks like such a value.
    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE_VALUE
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except CaseMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CASE_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
