"""Seeded input generator for the three workloads.

Every workload is a fixed list of job templates (one *round*).  The seed
draws the concrete systems, start points and control files; the template
fixes what the job does (case, grid size, suites, segment count), so every
seed puts the same kind of work in a round.  Costs of the reach and flow code
are invariant under scaling and rotating the reduced drift vector, so the
seed varies those freely and jitters lambda and mu by at most 3 %.

Argument lists use two placeholders that the worker fills in: ``@IN@/`` for
the input directory and ``@OUT@/`` for the directory of the current round.
"""

from __future__ import annotations

import json
import math
import os
import random

import algebra

WORKLOADS = ("reach_mix", "verify_mix", "trajectory_mix")
# The speed.py probe that does the same kind of work as each workload's jobs:
# reach streams large numpy arrays, the others make small numpy calls.
PROBE = {"reach_mix": "array", "verify_mix": "mixed", "trajectory_mix": "mixed"}

# The README spec of an expanding system; simulating it with u = 0.5 for a
# horizon of 1000 overflows e^{lambda s}.  Fixed, so it fails on every seed.
FAULT_SPEC = {
    "alpha": 1.0,
    "xi": [0.0, 0.0],
    "A": {"lambda": 1.0, "mu": 2.0},
    "eta1": [1.0, 0.0],
    "omega": [-1.0, 1.0],
}


class _Inputs:
    """Writes spec and control files into one directory, naming them in order."""

    def __init__(self, rng: random.Random, in_dir: str):
        self.rng = rng
        self.in_dir = in_dir
        self.count = 0

    def write(self, stem: str, payload: dict) -> str:
        self.count += 1
        name = f"{stem}{self.count:02d}.json"
        with open(os.path.join(self.in_dir, name), "w") as fh:
            json.dump(payload, fh, indent=1)
        return name

    def jitter(self, x: float, share: float = 0.03) -> float:
        return x * self.rng.uniform(1.0 - share, 1.0 + share)

    def reducible(self, lam: float, mu: float, lo: float, hi: float) -> str:
        """Spec whose reduced system has (lam, mu) and reduced range [lo, hi].

        alpha, xi and the reduced drift eta~ are drawn; eta1 is solved so the
        reduction gives eta~, and omega is set so alpha * omega = [lo, hi].
        """
        rng = self.rng
        alpha = rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.25)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        mag = rng.uniform(0.5, 2.0)
        eta_t = (mag * math.cos(phi), mag * math.sin(phi))
        xi = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        ax = algebra.solve_a(lam, mu, xi)
        eta1 = [alpha * (eta_t[0] - ax[0]), alpha * (eta_t[1] - ax[1])]
        omega = sorted((lo / alpha, hi / alpha))
        return self.write("sys", {
            "alpha": alpha,
            "xi": list(xi),
            "A": {"lambda": lam, "mu": mu},
            "eta1": eta1,
            "omega": omega,
        })

    def degenerate(self) -> str:
        """A = 0 with the rank condition alpha xi != 0."""
        rng = self.rng
        alpha = rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.25)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        mag = rng.uniform(0.5, 2.0)
        w = rng.uniform(0.8, 1.25)
        return self.write("deg", {
            "alpha": alpha,
            "xi": [mag * math.cos(phi), mag * math.sin(phi)],
            "A": {"lambda": 0.0, "mu": 0.0},
            "eta1": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
            "omega": [-w, w],
        })

    def open_system(self) -> str:
        return self.reducible(self.jitter(1.0), self.jitter(2.0), -1.0, 1.0)

    def closed_system(self) -> str:
        return self.reducible(self.jitter(-1.0), self.jitter(2.0), -1.0, 1.0)

    def trace_zero(self) -> str:
        return self.reducible(0.0, self.jitter(1.0), -2.0, 2.0)

    def unclassified(self) -> str:
        """alpha = 0: the rank condition fails and no case is predicted."""
        rng = self.rng
        lam, mu = self.jitter(1.0), self.jitter(2.0)
        return self.write("nc", {
            "alpha": 0.0,
            "xi": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
            "A": {"lambda": lam, "mu": mu},
            "eta1": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
            "omega": [-1.0, 1.0],
        })

    def control(self, omega, n_segments: int) -> str:
        """Piecewise-constant control inside 0.9 * omega."""
        rng = self.rng
        lo, hi = omega
        segs = [
            {"duration": rng.uniform(0.1, 0.6), "u": rng.uniform(0.9 * lo, 0.9 * hi)}
            for _ in range(n_segments)
        ]
        return self.write("ctrl", {"segments": segs})


def _job(jid: str, kind: str, spec: str, argv: list, **params) -> dict:
    return {"id": jid, "kind": kind, "spec": spec, "argv": argv, "params": params}


def _reach_jobs(inp: _Inputs) -> list:
    # (name, lam, mu, reduced omega, grid cells per ball radius or per |eta~|,
    #  control-grid size, write the cells CSV).  An odd number of jobs puts
    # one job's times, not the gap between two, at the median.
    templates = [
        ("open_default", 1.0, 2.0, (-1.0, 1.0), None, None, True),
        ("open_coarse", 1.0, 2.0, (-1.0, 1.0), 120, 11, False),
        ("open_mu_inside", 0.5, 0.6, (-1.0, 1.0), 100, 31, True),
        ("closed_default", -1.0, 2.0, (-1.0, 1.0), None, None, True),
        ("closed_mu_inside", -0.8, 0.5, (-1.0, 1.0), 160, 15, False),
        ("tz_fine", 0.0, 1.0, (-2.0, 2.0), 20, None, True),
        ("tz_coarse", 0.0, 1.0, (-2.0, 2.0), 14, 11, False),
        ("tz_mid", 0.0, 1.0, (-2.0, 2.0), 17, 15, True),
        ("closed_coarse", -1.0, 2.0, (-1.0, 1.0), 120, 11, False),
    ]
    jobs = []
    for k, (name, lam, mu, om, per, n_ctrl, csv) in enumerate(templates):
        lam_j = inp.jitter(lam)
        mu_j = inp.jitter(mu)
        spec = inp.reducible(lam_j, mu_j, *om)
        jid = f"reach{k:02d}_{name}"
        argv = ["reach", "@IN@/" + spec, "--out", f"@OUT@/{jid}.json"]
        params = {"n_controls": n_ctrl or 21, "resolution": None, "csv": None}
        if per is not None:
            sysd = algebra.load_spec(os.path.join(inp.in_dir, spec))
            red = algebra.reduce(sysd)
            unit = red.ball_radius() if lam != 0.0 else red.eta_norm()
            params["resolution"] = unit / per
            argv += ["--resolution", repr(params["resolution"])]
        if n_ctrl is not None:
            argv += ["--control-grid", str(n_ctrl)]
        if csv:
            params["csv"] = f"{jid}_cells.csv"
            argv += ["--cells-csv", f"@OUT@/{params['csv']}"]
        jobs.append(_job(jid, "reach", spec, argv, **params))
    return jobs


def _verify_jobs(inp: _Inputs) -> list:
    # (name, system kind, suites or None for all, samples or None for default)
    open_, closed, tz = inp.open_system, inp.closed_system, inp.trace_zero
    templates = [
        ("open_all", open_, None, None),
        ("closed_ball", closed, ["ball_invariance", "semigroup"], 8000),
        ("tz_all", tz, None, None),
        ("deg_all", inp.degenerate, None, None),
        ("deg_monotone", inp.degenerate, ["monotone_functional", "semigroup"], None),
        ("open_sweep_ball", open_, ["bound_sweep", "ball_invariance"], 6000),
        ("unclassified_all", inp.unclassified, None, None),
        ("closed_all", closed, None, 1000),
        ("deg_monotone2", inp.degenerate, ["monotone_functional"], None),
        ("tz_conj", tz, ["conjugacy", "semigroup"], None),
        ("open_ball", open_, ["ball_invariance", "semigroup"], 12000),
        ("deg_monotone3", inp.degenerate, ["bound_sweep", "monotone_functional"], None),
        ("closed_sweep", closed, ["bound_sweep", "semigroup"], None),
    ]
    jobs = []
    for k, (name, make, suites, samples) in enumerate(templates):
        spec = make()
        jid = f"verify{k:02d}_{name}"
        vseed = inp.rng.randrange(2**31)
        argv = ["verify", "@IN@/" + spec, "--seed", str(vseed), "--out", f"@OUT@/{jid}.json"]
        if samples is not None:
            argv += ["--samples", str(samples)]
        for s in suites or ():
            argv += ["--suite", s]
        jobs.append(_job(jid, "verify", spec, argv, suites=suites, samples=samples or 2000))
    return jobs


def _trajectory_jobs(inp: _Inputs) -> list:
    jobs = []
    # Plans: start points at these distances, in units of the centre gap.
    for k, dist in enumerate((0.4, 1.5, 4.0, 9.0, 24.0)):
        spec = inp.reducible(0.0, inp.jitter(1.0), -0.5, 0.5)
        red = algebra.reduce(algebra.load_spec(os.path.join(inp.in_dir, spec)))
        phi = inp.rng.uniform(0.0, 2.0 * math.pi)
        r = dist * red.plan_center_gap()
        v0 = (r * math.cos(phi), r * math.sin(phi))
        jid = f"plan{k:02d}_d{dist:g}"
        traj = f"{jid}_traj.csv"
        argv = [
            "plan", "@IN@/" + spec, f"--v0={v0[0]!r},{v0[1]!r}",
            "--out", f"@OUT@/{jid}.json", "--traj-csv", f"@OUT@/{traj}",
        ]
        jobs.append(_job(jid, "plan", spec, argv, v0=list(v0), traj=traj))

    # Simulations on the group: (system kind, segments, samples per segment, --verify)
    kinds = {
        "open": inp.open_system,
        "closed": inp.closed_system,
        "tz": inp.trace_zero,
        "deg": inp.degenerate,
    }
    sims = [
        ("open", 2, 64, False), ("closed", 4, 64, False), ("tz", 8, 64, False),
        ("deg", 4, 64, False), ("open", 8, 16, False), ("closed", 2, 64, True),
        ("tz", 4, 32, False), ("deg", 8, 64, False), ("tz", 2, 64, True),
        ("deg", 2, 64, True),
    ]
    for k, (kind, nseg, per, verify) in enumerate(sims):
        spec = kinds[kind]()
        sysd = algebra.load_spec(os.path.join(inp.in_dir, spec))
        ctrl = inp.control(sysd.omega, nseg)
        rng = inp.rng
        x0 = [rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
        jid = f"sim{k:02d}_{kind}_{nseg}x{per}"
        argv = [
            "simulate", "@IN@/" + spec, "--control", "@IN@/" + ctrl,
            "--x0=" + ",".join(repr(x) for x in x0),
            "--samples-per-segment", str(per), "--out", f"@OUT@/{jid}.csv",
        ]
        if verify:
            argv.append("--verify")
        jobs.append(_job(jid, "simulate", spec, argv, control=ctrl, x0=x0, per=per, verify=verify))

    # Constant-control simulation through --u/--horizon.
    spec = kinds["closed"]()
    sysd = algebra.load_spec(os.path.join(inp.in_dir, spec))
    u = inp.rng.uniform(0.5 * sysd.omega[0], 0.5 * sysd.omega[1])
    horizon = inp.rng.uniform(1.0, 3.0)
    jid = "sim10_closed_const"
    argv = [
        "simulate", "@IN@/" + spec, "--u", repr(u), "--horizon", repr(horizon),
        "--out", f"@OUT@/{jid}.csv",
    ]
    jobs.append(_job(jid, "simulate", spec, argv, segments=[[horizon, u]], x0=[0.0, 0.0, 0.0], per=64, verify=False))

    # Classification of every case.
    makers = [
        ("open", kinds["open"]), ("closed", kinds["closed"]), ("tz", kinds["tz"]),
        ("deg", inp.degenerate),
        ("unclassified", inp.unclassified),
        ("closed_mu_inside", lambda: inp.reducible(inp.jitter(-0.8), inp.jitter(0.5), -1.0, 1.0)),
    ]
    for k, (kind, make) in enumerate(makers):
        spec = make()
        jid = f"classify{k:02d}_{kind}"
        jobs.append(_job(jid, "classify", spec, ["classify", "@IN@/" + spec, "--out", f"@OUT@/{jid}.json"]))

    # Known fault: e^{lambda s} overflows in the closed-form flow.
    spec = inp.write("fault", FAULT_SPEC)
    jobs.append(_job(
        "fault00_overflow", "fault", spec,
        ["simulate", "@IN@/" + spec, "--u", "0.5", "--horizon", "1000",
         "--out", "@OUT@/fault00_overflow.csv"],
    ))
    return jobs


def generate(workload: str, seed: int, in_dir: str) -> list:
    """Write the inputs of one round into `in_dir` and return its job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(in_dir, exist_ok=True)
    inp = _Inputs(random.Random(f"{workload}:{seed}"), in_dir)
    make = {"reach_mix": _reach_jobs, "verify_mix": _verify_jobs, "trajectory_mix": _trajectory_jobs}
    return make[workload](inp)
