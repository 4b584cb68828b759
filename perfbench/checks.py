"""Checks of each job's output against the benchmark's own algebra.

No check compares against a stored copy of earlier output.  Each one either
recomputes a value apart from the program (case labels, reduction, invariant
ball, equilibria, closed-form and RK4 flows, the bound sweep in mpmath) or
tests a property the method must have (cells inside the ball, equilibria in
occupied cells, disk coverage, loop closure).  Each check function returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import algebra

SUITES = ("bound_sweep", "ball_invariance", "conjugacy", "semigroup", "monotone_functional")
ESTIMATE_CASE = {
    algebra.CASE_OPEN: "open",
    algebra.CASE_CLOSED: "closed_bounded",
    algebra.CASE_TRACE_ZERO: "all_plane",
}
# Fixed sample counts of the suites that take no --samples argument.
CONJUGACY_SAMPLES = 50
SEMIGROUP_SAMPLES = 50
MONOTONE_TRAJECTORIES = 30
BOUND_SWEEP_CONTROLS = 21
COVERAGE_REQUIRED = 0.99
NEAR_MU = 0.05  # equilibria of controls this close to mu (relative) are not checked


def _close(a: float, b: float, rel: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(scale, abs(a), abs(b))


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_classify(job, sysd, out_dir) -> list:
    d = _load_json(os.path.join(out_dir, job["id"] + ".json"))
    errs = []
    case = sysd.case()
    if d["case"] != case:
        errs.append(f"case {d['case']!r}, expected {case!r}")
    if d["larc"] != sysd.rank_condition():
        errs.append(f"larc {d['larc']}, expected {sysd.rank_condition()}")
    if case in ESTIMATE_CASE:
        red = algebra.reduce(sysd)
        eta = d["reduced"]["eta"]
        scale = max(1.0, red.eta_norm())
        if not all(_close(a, b, 1e-12, scale) for a, b in zip(eta, red.eta)):
            errs.append(f"reduced eta {eta}, expected {list(red.eta)}")
        if [float(x) for x in d["reduced"]["omega"]] != list(red.omega):
            errs.append(f"reduced omega {d['reduced']['omega']}, expected {list(red.omega)}")
    return errs


def read_cells(path: str) -> list:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["i", "j", "x", "y"]:
        raise ValueError(f"bad cells header {rows[0]}")
    return [(int(i), int(j), float(x), float(y)) for i, j, x, y in rows[1:]]


def check_reach(job, sysd, out_dir) -> list:
    d = _load_json(os.path.join(out_dir, job["id"] + ".json"))
    p = job["params"]
    errs = []
    case = sysd.case()
    if d["classification"]["case"] != case:
        errs.append(f"case {d['classification']['case']!r}, expected {case!r}")
    if d["case"] != ESTIMATE_CASE.get(case):
        errs.append(f"estimate case {d['case']!r}, expected {ESTIMATE_CASE.get(case)!r}")
    if d["truncated"]:
        errs.append("reach set truncated")
    red = algebra.reduce(sysd)
    grid = d["grid"]
    res = float(grid["resolution"])
    xmin, xmax, ymin, ymax = (float(b) for b in grid["bounds"])
    nx = int(math.ceil((xmax - xmin) / res - 1e-9))
    ny = int(math.ceil((ymax - ymin) / res - 1e-9))
    controls = algebra.control_grid(*red.omega, p["n_controls"])
    if len(grid["controls"]) != len(controls) or not all(
        _close(a, b, 1e-12) for a, b in zip(grid["controls"], controls)
    ):
        errs.append(f"control grid {grid['controls']}, expected {controls}")
    if p["resolution"] is not None and res != p["resolution"]:
        errs.append(f"resolution {res}, expected {p['resolution']}")
    if p["resolution"] is None and red.lam != 0.0 and not _close(res, red.ball_radius() / 200.0, 1e-9):
        errs.append(f"default resolution {res}, expected radius/200 = {red.ball_radius() / 200.0}")

    if red.lam != 0.0:
        center, radius = red.ball_center(), red.ball_radius()
        ball = d["ball_check"]["ball"]
        if not (
            _close(ball["radius"], radius, 1e-9)
            and all(_close(a, b, 1e-9, radius) for a, b in zip(ball["center"], center))
        ):
            errs.append(f"invariant ball {ball}, expected center {center} radius {radius}")
        if d["ball_check"]["violations"] != 0:
            errs.append(f"{d['ball_check']['violations']} ball violations reported")

    if p["csv"] is None:
        return errs
    cells = read_cells(os.path.join(out_dir, p["csv"]))
    if len(cells) != d["cells"]:
        errs.append(f"{len(cells)} cells in CSV, report says {d['cells']}")
    occupied = set()
    for i, j, x, y in cells:
        occupied.add((i, j))
        if not (0 <= i < nx and 0 <= j < ny):
            errs.append(f"cell ({i},{j}) outside the {nx}x{ny} grid")
        elif not (
            _close(x, xmin + (i + 0.5) * res, 1e-9, res)
            and _close(y, ymin + (j + 0.5) * res, 1e-9, res)
        ):
            errs.append(f"cell ({i},{j}) listed at ({x},{y}), not at its centre")
    if len(occupied) != len(cells):
        errs.append("cells CSV lists a cell twice")

    if red.lam != 0.0:
        allowed = radius + res * math.sqrt(2.0)
        worst = max(math.hypot(x - center[0], y - center[1]) for _, _, x, y in cells)
        if worst > allowed:
            errs.append(f"cell centre {worst} from the ball centre, allowed {allowed}")

    # Equilibria of interior grid controls lie in the control set.  Two kinds
    # are left out: near u = mu, v(u) approaches v(mu), a one-point control
    # set on the boundary when mu is in the range; for trace zero, only the
    # test disk is certified, since arcs leave the grid near its edge.
    r_disk = max(red.eta_norm(), 0.25)
    for u in controls[1:-1]:
        v = red.equilibrium(u)
        if v is None or abs(u - red.mu) <= NEAR_MU * max(1.0, abs(red.mu)):
            continue
        if red.lam == 0.0 and math.hypot(*v) > r_disk:
            continue
        i = math.floor((v[0] - xmin) / res)
        j = math.floor((v[1] - ymin) / res)
        if (i, j) not in occupied:
            errs.append(f"equilibrium v({u}) = {v} in unoccupied cell ({i},{j})")

    if red.lam == 0.0:
        if not _close(d["coverage"]["disk_radius"], r_disk, 1e-12):
            errs.append(f"coverage disk radius {d['coverage']['disk_radius']}, expected {r_disk}")
        inside = sum(
            1
            for i in range(nx)
            for j in range(ny)
            if math.hypot(xmin + (i + 0.5) * res, ymin + (j + 0.5) * res) <= r_disk
        )
        covered = sum(1 for _, _, x, y in cells if math.hypot(x, y) <= r_disk)
        frac = covered / inside
        if abs(frac - d["coverage"]["fraction"]) > 1.5 / inside:
            errs.append(f"coverage {d['coverage']['fraction']}, recounted {frac}")
        if frac < COVERAGE_REQUIRED:
            errs.append(f"coverage {frac} below {COVERAGE_REQUIRED}")
    return errs


def suite_routing(sysd) -> dict:
    """Status each suite must report for this system."""
    det = sysd.lam * sysd.lam + sysd.mu * sysd.mu
    out = {}
    if sysd.lam == 0.0:
        out["bound_sweep"] = "skipped"
    else:
        nus = bound_sweep_nus(sysd)
        out["bound_sweep"] = "passed" if nus else "skipped"
    if sysd.lam == 0.0 or det == 0.0 or sysd.alpha == 0.0:
        out["ball_invariance"] = "skipped"
    else:
        out["ball_invariance"] = "passed" if algebra.reduce(sysd).eta_norm() > 0.0 else "skipped"
    out["conjugacy"] = "skipped" if sysd.alpha == 0.0 else "passed"
    out["semigroup"] = "skipped" if sysd.alpha == 0.0 else "passed"
    out["monotone_functional"] = "passed" if det == 0.0 and sysd.rank_condition() else "skipped"
    return out


def bound_sweep_nus(sysd) -> list:
    grid = algebra.control_grid(sysd.omega[0], sysd.omega[1], BOUND_SWEEP_CONTROLS)
    return [nu for nu in (sysd.mu - sysd.alpha * u for u in grid) if nu != 0.0]


def check_verify(job, sysd, out_dir) -> list:
    d = _load_json(os.path.join(out_dir, job["id"] + ".json"))
    p = job["params"]
    errs = []
    case = sysd.case()
    if d["case"] != case:
        errs.append(f"case {d['case']!r}, expected {case!r}")
    if d["passed"] is not True:
        errs.append("report not passed")
    requested = [s for s in SUITES if p["suites"] is None or s in p["suites"]]
    names = [s["name"] for s in d["suites"]]
    if names != requested:
        errs.append(f"suites {names}, expected {requested}")
        return errs
    routing = suite_routing(sysd)
    for s in d["suites"]:
        name, m = s["name"], s["metrics"]
        if s["status"] != routing[name]:
            errs.append(f"{name} {s['status']}, expected {routing[name]}")
            continue
        if s["status"] != "passed":
            continue
        if name == "bound_sweep":
            nus = bound_sweep_nus(sysd)
            svals = algebra.sweep_s_values()
            if m["evaluations"] != len(nus) * len(svals):
                errs.append(f"bound_sweep evaluations {m['evaluations']}, expected {len(nus) * len(svals)}")
            exact = algebra.min_bound_margin(abs(sysd.lam), nus, svals)
            if not (exact > 0.0 and abs(m["min_margin"] - exact) <= 1e-6 * abs(exact) + 1e-13):
                errs.append(f"bound_sweep min_margin {m['min_margin']}, mpmath gives {exact}")
        elif name == "ball_invariance":
            if m["samples"] != p["samples"]:
                errs.append(f"ball_invariance samples {m['samples']}, expected {p['samples']}")
            if m["violations_inward"] or m["violations_outward"]:
                errs.append("ball_invariance reports violations")
        elif name in ("conjugacy", "semigroup"):
            want = CONJUGACY_SAMPLES if name == "conjugacy" else SEMIGROUP_SAMPLES
            if m["samples"] != want:
                errs.append(f"{name} samples {m['samples']}, expected {want}")
            if not m["max_deviation"] < m["tolerance"]:
                errs.append(f"{name} deviation {m['max_deviation']} over {m['tolerance']}")
        elif name == "monotone_functional":
            if m["trajectories"] != MONOTONE_TRAJECTORIES:
                errs.append(f"monotone trajectories {m['trajectories']}, expected {MONOTONE_TRAJECTORIES}")
            if m["counterexamples"] != 0 or not m["min_increment"] > 0.0:
                errs.append("monotone functional not strictly increasing")
    return errs


def read_trajectory(path: str):
    """Rows (s, t or None, v_x, v_y, u) and the comment rows."""
    rows, comments = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "s,t,v_x,v_y,u":
            raise ValueError(f"bad trajectory header {header!r}")
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            s, t, vx, vy, u = line.strip().split(",")
            rows.append((float(s), float(t) if t else None, float(vx), float(vy), float(u)))
    return rows, comments


def check_plan(job, sysd, out_dir) -> list:
    d = _load_json(os.path.join(out_dir, job["id"] + ".json"))
    p = job["params"]
    errs = []
    red = algebra.reduce(sysd)
    lo, hi = red.omega
    segs = [(float(s["duration"]), float(s["u"])) for s in d["control"]["segments"]]
    for dur, u in segs:
        if not (lo <= u <= hi):
            errs.append(f"control {u} outside the reduced range [{lo}, {hi}]")
        if not (dur >= 0.0 and math.isfinite(dur)):
            errs.append(f"segment duration {dur}")
    v0 = tuple(p["v0"])
    scale = max(1.0, math.hypot(*v0))
    tol = 1e-8 * scale
    v = v0
    nearest = math.hypot(*v)
    for dur, u in segs:
        v = red.flow(dur, v, u)
        nearest = min(nearest, math.hypot(*v))
    if nearest > tol:
        errs.append(f"plan passes the origin at distance {nearest}, tolerance {tol}")
    back = math.hypot(v[0] - v0[0], v[1] - v0[1])
    if back > tol:
        errs.append(f"plan ends {back} from v0, tolerance {tol}")

    rows, _ = read_trajectory(os.path.join(out_dir, p["traj"]))
    if len(rows) != 64 * len(segs) + 1:
        errs.append(f"{len(rows)} trajectory rows for {len(segs)} segments")
    elif segs:
        total = sum(dur for dur, _ in segs)
        s_end, _, vx, vy, _ = rows[-1]
        if not _close(s_end, total, 1e-12):
            errs.append(f"trajectory ends at s = {s_end}, plan lasts {total}")
        if math.hypot(vx - v0[0], vy - v0[1]) > tol:
            errs.append(f"trajectory ends at ({vx}, {vy}), not at v0 = {v0}")
    return errs


def check_simulate(job, sysd, in_dir, out_dir) -> list:
    p = job["params"]
    errs = []
    if "segments" in p:
        segs = [tuple(s) for s in p["segments"]]
    else:
        ctrl = _load_json(os.path.join(in_dir, p["control"]))
        segs = [(s["duration"], s["u"]) for s in ctrl["segments"]]
    per = p["per"]
    rows, comments = read_trajectory(os.path.join(out_dir, job["id"] + ".csv"))
    if len(rows) != per * len(segs) + 1:
        return [f"{len(rows)} rows for {len(segs)} segments of {per} samples"]
    x = tuple(p["x0"])
    elapsed = 0.0
    for k, (dur, u) in enumerate(segs):
        x = algebra.rk4_group(sysd, dur, x, u)
        elapsed += dur
        s, t, vx, vy, uu = rows[(k + 1) * per]
        dev = algebra.angle_gap(t, x[0]) + math.hypot(vx - x[1], vy - x[2])
        tol = 1e-6 * max(1.0, math.hypot(x[1], x[2]))
        if dev > tol:
            errs.append(f"segment {k} ends {dev} from RK4, tolerance {tol}")
        if not _close(s, elapsed, 1e-12) or uu != u:
            errs.append(f"segment {k} row has s={s} u={uu}, expected s={elapsed} u={u}")
    if p["verify"]:
        devs = [float(c.split(",")[1]) for c in comments if c.startswith("rk4_max_deviation,")]
        if len(devs) != 1 or not devs[0] < 1e-6:
            errs.append(f"rk4_max_deviation row {comments}")
    return errs


def check_job(job, in_dir, out_dir) -> list:
    """Errors in one successful job's outputs; malformed output is an error too."""
    sysd = algebra.load_spec(os.path.join(in_dir, job["spec"]))
    kind = job["kind"]
    try:
        if kind == "classify":
            return check_classify(job, sysd, out_dir)
        if kind == "reach":
            return check_reach(job, sysd, out_dir)
        if kind == "verify":
            return check_verify(job, sysd, out_dir)
        if kind == "plan":
            return check_plan(job, sysd, out_dir)
        if kind == "simulate":
            return check_simulate(job, sysd, in_dir, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return []


def job_succeeded(job, rc, stderr: str, exc) -> bool:
    """Exit 0, or for the known-fault job exit 2 with a one-line message."""
    if exc is not None:
        return False
    if job["kind"] == "fault":
        lines = stderr.strip().splitlines()
        return rc == 2 and len(lines) == 1
    return rc == 0
