"""Periodic-trajectory planner for the rotation-only planar case.

With trace A = 0 (lam = 0, mu != 0) every constant-control solution moves on
a circle centered at the equilibrium v(u), since the flow preserves
|v - v(u)|.  All equilibria lie on the line R * theta eta, so a plan is built
from half-circle arcs that alternate the controls +-rho: each arc swaps the
active center and shrinks the circle radius by the fixed center distance
until a waypoint lands between the two centers.  One last root-found control
u_N places v_N and the origin on a common circle, and the complementary arcs
(same controls, remaining sweep of each circle) close the loop back to v0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flow import SAMPLES_PER_SEGMENT, PiecewiseControl, Trajectory, equilibrium, flow_concat
from .geometry import Circle
from .group import TWO_PI, norms, perp
from .system import ReducedSpec

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


def circle_line_intersect(c: Circle, direction) -> list:
    """Intersections of a circle with the line through the origin.

    Returns 0, 1, or 2 points sorted by signed parameter along `direction`.
    A vanishing discriminant yields the single tangency point.
    """
    direction = np.asarray(direction, dtype=float).reshape(2)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    d = direction / norm
    center = np.asarray(c.center, dtype=float)
    proj = float(d @ center)
    disc = proj * proj - float(center @ center) + float(c.radius) ** 2
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [proj * d]
    root = math.sqrt(disc)
    return [(proj - root) * d, (proj + root) * d]


def arc_duration(u: float, mu: float, angle: float) -> float:
    """Smallest nonnegative time sweeping `angle` at angular rate mu - u.

    The constant-control solution rotates about its center at rate mu - u;
    the sweep is taken modulo a full turn in the rotation's own direction.
    """
    rate = mu - u
    if rate == 0.0:
        raise ValueError("angular rate vanishes at u = mu")
    if rate > 0.0:
        return (angle % TWO_PI) / rate
    return ((-angle) % TWO_PI) / (-rate)


def select_rho(rs: ReducedSpec) -> float:
    """Largest symmetric control bound keeping mu safely outside.

    Picks rho with [-rho, rho] inside Omega and distance(mu, [-rho, rho])
    at least 0.1 |mu|, capped at 0.9 min(|u-|, u+).
    """
    if rs.lam != 0.0 or rs.mu == 0.0:
        raise ValueError("rho selection requires lam = 0 and mu != 0")
    lo, hi = rs.omega
    rho = min(0.9 * min(-lo, hi), 0.9 * abs(rs.mu))
    if not (rho > 0.0):
        raise ValueError("cannot select rho: control range too thin around 0")
    return rho


@dataclass
class PlanResult:
    """A closed plan visiting v0 and the origin."""

    control: PiecewiseControl
    trajectory: Trajectory
    waypoints: list  # v0, v1, ..., vN, origin
    rho: float
    closure_error: float
    radii: list = field(default_factory=list)  # radii of the arced circles
    final_radius: float = 0.0
    u_final: float | None = None
    center_gap: float = 0.0  # distance between the two alternating centers
    origin_error: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "control": self.control.to_dict(),
            "waypoints": [[float(w[0]), float(w[1])] for w in self.waypoints],
            "rho": self.rho,
            "closure_error": self.closure_error,
            "radii": [float(r) for r in self.radii],
            "final_radius": self.final_radius,
            "u_final": self.u_final,
            "center_gap": self.center_gap,
            "origin_error": self.origin_error,
            "diagnostics": self.diagnostics,
        }


def _bisect(f, lo: float, hi: float):
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if flo * fhi > 0.0:
        raise ValueError("bisection bracket does not change sign")
    it = 0
    while hi - lo > BISECT_TOL and it < BISECT_MAX_ITER:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, it
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        it += 1
    return 0.5 * (lo + hi), it


def _final_control(rs: ReducedSpec, v_n) -> tuple:
    """Control whose solution circle passes through both v_n and the origin.

    Root of g(u) = |v(u)| - |v_n - v(u)| on the bracket between 0 and the
    control whose equilibrium is v_n; the scan starts at 0 so the root of
    smallest magnitude wins, and the number of sign changes is reported.
    """
    v_n = np.asarray(v_n, dtype=float)
    teta = perp(rs.eta)
    x_n = float(v_n @ teta) / float(teta @ teta)
    u_eq = rs.mu * x_n / (1.0 + x_n)

    def g(u):
        vu = equilibrium(rs, u)
        return float(np.linalg.norm(vu)) - float(np.linalg.norm(v_n - vu))

    scan = np.linspace(0.0, u_eq, 257)
    vu = equilibrium(rs, scan)
    vals = norms(vu) - norms(v_n - vu)
    flips = [
        k
        for k in range(len(scan) - 1)
        if vals[k] * vals[k + 1] < 0.0 or vals[k + 1] == 0.0
    ]
    if not flips:
        raise RuntimeError("final-control root finding failed: no sign change")
    k = flips[0]  # scan starts at 0, so the first flip is the smallest-|u| root
    u_star, iters = _bisect(g, min(scan[k], scan[k + 1]), max(scan[k], scan[k + 1]))
    return float(u_star), {"roots_scanned": len(flips), "bisection_iterations": iters}


def plan_periodic(
    rs: ReducedSpec,
    v0,
    rho: float | None = None,
    max_arcs: int = 100_000,
) -> PlanResult:
    """Closed piecewise-constant plan through v0 and the origin (lam = 0).

    Forward half: half-circle arcs alternating +-rho walk the waypoint onto
    the segment of equilibria between v(-rho) and v(rho); a final root-found
    control sweeps it into the origin.  Return half: the complementary arc of
    each forward circle, in reverse order, restores v0 exactly.
    """
    if rs.lam != 0.0:
        raise ValueError("planner requires lam = 0")
    if rs.mu == 0.0:
        raise ValueError("planner requires mu != 0")
    v0 = np.asarray(v0, dtype=float).reshape(2).copy()
    if not np.all(np.isfinite(v0)):
        raise ValueError("v0 must be finite")
    if rho is None:
        rho = select_rho(rs)
    else:
        rho = float(rho)
        lo, hi = rs.omega
        if not (0.0 < rho <= min(-lo, hi)) or abs(rs.mu) <= rho:
            raise ValueError("rho must satisfy [-rho, rho] within Omega, mu outside")

    teta = perp(rs.eta)
    line_dir = teta / float(np.linalg.norm(teta))
    centers = {+1.0: equilibrium(rs, rho), -1.0: equilibrium(rs, -rho)}
    xs = {s: float(c @ line_dir) for s, c in centers.items()}
    x_lo, x_hi = min(xs.values()), max(xs.values())
    gap = abs(xs[+1.0] - xs[-1.0])
    scale = max(1.0, float(np.linalg.norm(v0)))

    if float(np.linalg.norm(v0)) <= 1e-15 * scale:
        control = PiecewiseControl([])
        return PlanResult(
            control=control,
            trajectory=flow_concat(rs, control, v0),
            waypoints=[v0.copy(), np.zeros(2)],
            rho=rho,
            closure_error=0.0,
            center_gap=gap,
            diagnostics={"arcs": 0},
        )

    def on_segment(v):
        off = abs(float(v[0] * line_dir[1] - v[1] * line_dir[0]))
        x = float(v @ line_dir)
        return off <= 1e-9 * scale and x_lo - 1e-12 * scale <= x <= x_hi + 1e-12 * scale

    # Forward half: alternating arcs until a waypoint lies between the centers.
    waypoints = [v0.copy()]
    segments = []
    radii = []
    w = v0.copy()
    sign = +1.0
    n_arcs = 0
    while not on_segment(w):
        if n_arcs >= max_arcs:
            raise RuntimeError("planner failed to reach the equilibrium segment")
        u = sign * rho
        c = centers[sign]
        radius = float(np.linalg.norm(w - c))
        c_next = centers[-sign]
        hits = circle_line_intersect(Circle(center=c, radius=radius), line_dir)
        if not hits:
            raise RuntimeError("arc circle missed the equilibrium line")
        w_next = min(hits, key=lambda p: float(np.linalg.norm(p - c_next)))
        rel0 = w - c
        rel1 = w_next - c
        ang = math.atan2(
            float(rel0[0] * rel1[1] - rel0[1] * rel1[0]), float(rel0 @ rel1)
        )
        dur = arc_duration(u, rs.mu, ang)
        if dur > 0.0:
            segments.append((dur, u))
            radii.append(radius)
        waypoints.append(np.asarray(w_next, dtype=float))
        w = np.asarray(w_next, dtype=float)
        sign = -sign
        n_arcs += 1

    # Final arc: one control whose circle carries w into the origin.
    u_final = None
    final_radius = 0.0
    root_diag = {}
    if float(np.linalg.norm(w)) > 1e-15 * scale:
        u_final, root_diag = _final_control(rs, w)
        c_fin = equilibrium(rs, u_final)
        final_radius = float(np.linalg.norm(c_fin))
        rel0 = w - c_fin
        rel1 = -c_fin
        ang = math.atan2(
            float(rel0[0] * rel1[1] - rel0[1] * rel1[0]), float(rel0 @ rel1)
        )
        dur = arc_duration(u_final, rs.mu, ang)
        if dur > 0.0:
            segments.append((dur, u_final))
    waypoints.append(np.zeros(2))

    # Return half: complementary sweep of each circle, reverse order.
    back = [
        (TWO_PI / abs(rs.mu - u) - dur, u)
        for dur, u in reversed(segments)
        if TWO_PI / abs(rs.mu - u) - dur > 0.0
    ]
    control = PiecewiseControl(segments + back)

    # Exact origin visit and closure: each segment's last sample is its end
    # state, flowed in closed form from the segment's start (tau = dur).
    traj = flow_concat(rs, control, v0)
    origin_error = float(np.linalg.norm(traj.states[len(segments) * SAMPLES_PER_SEGMENT]))
    closure_error = float(np.linalg.norm(traj.states[-1] - v0))
    diagnostics = {"arcs": n_arcs, "origin_error": origin_error}
    diagnostics.update(root_diag)
    return PlanResult(
        control=control,
        trajectory=traj,
        waypoints=waypoints,
        rho=rho,
        closure_error=closure_error,
        radii=radii,
        final_radius=final_radius,
        u_final=u_final,
        center_gap=gap,
        origin_error=origin_error,
        diagnostics=diagnostics,
    )
