"""Numerical verification suites for a given system.

Each suite re-checks one structural fact on the concrete system with seeded
random sampling: the strict spectral-bound inequality behind the invariant
ball, ball invariance itself, conjugacy of the closed-form flow against an
independent RK4 integration, the semigroup property of the flow, and strict
growth of the monotone functional in the degenerate case.  Suites that do not
apply to the system's case are reported as skipped with the reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import flow_detA0, flow_r2, flow_se2, rk4_oracle_batch
from .geometry import check_invariance, chord_excess
from .group import TWO_PI, angle_dist, to_complex
from .reachability import control_grid, degenerate_structure_check
from .system import Plant, classify, larc, reduced_range

# Samples drawn by the conjugacy and semigroup suites.
FLOW_SAMPLES = 50


@dataclass
class SuiteResult:
    name: str
    status: str  # "passed" | "failed" | "skipped"
    reason: str = ""
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "metrics": self.metrics}
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class VerificationReport:
    case: str
    seed: int
    suites: list

    @property
    def passed(self) -> bool:
        """No suite failed; suites skipped for the system's case do not count."""
        return all(s.status != "failed" for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "seed": self.seed,
            "passed": self.passed,
            "suites": [s.to_dict() for s in self.suites],
        }


def _suite_bound_sweep(plant: Plant, seed: int, n_samples: int) -> SuiteResult:
    """Strict inequality of the spectral bound on its whole (nu, s) sweep."""
    spec = plant.spec
    if spec.lam == 0.0:
        return SuiteResult("bound_sweep", "skipped", "requires trace A != 0")
    sigma = abs(spec.lam)
    nus = spec.mu - spec.alpha * control_grid(spec.omega, 21)
    nus = nus[nus != 0.0]
    if nus.size == 0:
        return SuiteResult(
            "bound_sweep", "skipped", "every control hits the rotation-free axis"
        )
    svals = np.concatenate([np.geomspace(1e-3, 10.0, 41), -np.geomspace(1e-3, 10.0, 41)])
    # (nu/sigma)^2 - (f - 1) rather than (1 + (nu/sigma)^2) - f: both of those
    # round at 1 once sigma/|nu| passes about 1e8, and a true bound would fail.
    with np.errstate(over="ignore"):
        ratios = (nus / sigma) ** 2
    if not np.all(np.isfinite(ratios)):
        raise ValueError("(mu - alpha u)^2 / lambda^2 overflows for u in omega")
    # One call on the whole (nu, s) grid; np.min keeps a NaN margin, which
    # then fails the suite.
    min_margin = float(np.min(ratios[:, None] - chord_excess(sigma, nus[:, None], svals)))
    count = nus.size * svals.size
    status = "passed" if min_margin > 0.0 else "failed"
    return SuiteResult(
        "bound_sweep",
        status,
        metrics={"evaluations": count, "min_margin": min_margin},
    )


def _suite_ball_invariance(plant: Plant, seed: int, n_samples: int) -> SuiteResult:
    if plant.spec.lam == 0.0:
        return SuiteResult("ball_invariance", "skipped", "requires trace A != 0")
    if plant.chart != "psi":
        return SuiteResult("ball_invariance", "skipped", "no planar reduction")
    rs = plant.rs
    with np.errstate(over="ignore"):
        length = float(np.linalg.norm(rs.eta))
    if length == 0.0:
        return SuiteResult(
            "ball_invariance", "skipped", "eta = 0: equilibria collapse to the origin"
        )
    rep = check_invariance(rs, n_samples=n_samples, seed=seed)
    status = "passed" if rep.passed else "failed"
    return SuiteResult(
        "ball_invariance",
        status,
        metrics={
            "samples": rep.n_samples,
            "violations_inward": rep.violations_inward,
            "violations_outward": rep.violations_outward,
            "min_margin_inward": rep.min_margin_inward,
            "min_margin_outward": rep.min_margin_outward,
        },
    )


def _draw(rng, n: int, *ranges) -> np.ndarray:
    """n rows of uniform draws, one column per (low, high) range.

    The values and their order are those of n rounds of rng.uniform(low,
    high) calls, one per column: both compute low + (high - low) * d from
    the same stream of doubles d.
    """
    low, high = np.array(ranges, dtype=float).T
    return low + (high - low) * rng.random((n, len(ranges)))


def _suite_conjugacy(plant: Plant, seed: int, n_samples: int) -> SuiteResult:
    """Closed-form flow (through the conjugation charts) vs direct RK4, to 1e-6."""
    spec = plant.spec
    if spec.alpha == 0.0:
        return SuiteResult("conjugacy", "skipped", "alpha = 0: no reduction chart")
    tol = 1e-6
    rng = np.random.default_rng(seed)
    draws = _draw(rng, FLOW_SAMPLES, (0.0, TWO_PI), (-2.0, 2.0), (-2.0, 2.0), spec.omega, (0.1, 2.0))
    x, u, s = draws[:, :3], draws[:, 3], draws[:, 4]
    exact = flow_se2(plant, s, x, u)
    approx = rk4_oracle_batch(spec, s, x, u)
    dev = angle_dist(exact[:, 0], approx[:, 0]) + np.abs(to_complex(exact[:, 1:] - approx[:, 1:]))
    max_dev = float(np.max(dev, initial=0.0))
    status = "passed" if max_dev < tol else "failed"
    return SuiteResult(
        "conjugacy",
        status,
        metrics={"samples": FLOW_SAMPLES, "max_deviation": max_dev, "tolerance": tol},
    )


def _suite_semigroup(plant: Plant, seed: int, n_samples: int) -> SuiteResult:
    """phi(s + t) = phi(s) after phi(t) for the closed-form flows, to 1e-9."""
    spec = plant.spec
    if spec.alpha == 0.0:
        return SuiteResult("semigroup", "skipped", "alpha = 0: no reduction chart")
    tol = 1e-9
    rng = np.random.default_rng(seed + 1)
    if spec.a_is_zero:
        ranges = ((0.0, TWO_PI), (-2.0, 2.0), (-2.0, 2.0), reduced_range(spec), (0.0, 3.0), (0.0, 3.0))
        draws = _draw(rng, FLOW_SAMPLES, *ranges)
        g, u, s, t = draws[:, :3], draws[:, 3], draws[:, 4], draws[:, 5]
        whole = flow_detA0(spec, s + t, g, u)
        parts = flow_detA0(spec, s, flow_detA0(spec, t, g, u), u)
        turn = angle_dist(whole[:, 0], parts[:, 0])
        whole, parts = to_complex(whole[:, 1:]), to_complex(parts[:, 1:])
    else:
        rs = plant.rs
        draws = _draw(rng, FLOW_SAMPLES, (-3.0, 3.0), (-3.0, 3.0), rs.omega, (-2.0, 2.0), (-2.0, 2.0))
        v, u, s, t = to_complex(draws[:, :2]), draws[:, 2], draws[:, 3], draws[:, 4]
        whole = flow_r2(rs, s + t, v, u)
        parts = flow_r2(rs, s, flow_r2(rs, t, v, u), u)
        turn = 0.0
    dev = turn + np.abs(whole - parts)
    scale = np.maximum(1.0, np.abs(whole))
    max_dev = float(np.max(dev / scale, initial=0.0))
    status = "passed" if max_dev < tol else "failed"
    return SuiteResult(
        "semigroup",
        status,
        metrics={"samples": FLOW_SAMPLES, "max_deviation": max_dev, "tolerance": tol},
    )


def _suite_monotone(plant: Plant, seed: int, n_samples: int) -> SuiteResult:
    spec = plant.spec
    if not spec.a_is_zero:
        return SuiteResult("monotone_functional", "skipped", "requires A = 0")
    if not larc(spec):
        return SuiteResult(
            "monotone_functional", "skipped", "rank condition fails (alpha xi = 0)"
        )
    rep = degenerate_structure_check(spec, n_samples=30, n_pairs=6, seed=seed)
    status = "passed" if rep.passed else "failed"
    return SuiteResult(
        "monotone_functional",
        status,
        metrics={
            "trajectories": rep.n_trajectories,
            "min_increment": rep.min_functional_increment,
            "mutual_pairs": rep.n_mutual,
            "counterexamples": rep.counterexamples,
            "irreversible_confirmed": rep.irreversible_confirmed,
        },
    )


# Each suite takes (plant, seed, n_samples) and runs in this order; only
# ball_invariance draws n_samples, the others a fixed count of their own.
_SUITES = {
    "bound_sweep": _suite_bound_sweep,
    "ball_invariance": _suite_ball_invariance,
    "conjugacy": _suite_conjugacy,
    "semigroup": _suite_semigroup,
    "monotone_functional": _suite_monotone,
}
SUITE_NAMES = tuple(_SUITES)


def run_verification(
    plant: Plant,
    seed: int = 0,
    suites=None,
    n_samples: int = 2000,
) -> VerificationReport:
    """Run the requested suites (default: all) with case-aware routing."""
    if n_samples < 1:
        raise ValueError("samples must be >= 1")
    report = classify(plant)
    requested = tuple(suites) if suites else SUITE_NAMES
    unknown = set(requested) - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    results = [_SUITES[name](plant, seed, n_samples) for name in SUITE_NAMES if name in requested]
    return VerificationReport(case=report.case, seed=seed, suites=results)
