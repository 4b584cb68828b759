"""Periodic-trajectory planner for the rotation-only planar case.

With trace A = 0 (lam = 0, mu != 0) every constant-control solution moves on
a circle centered at the equilibrium v(u), since the flow preserves
|v - v(u)|.  All equilibria lie on the line R * theta eta, so a plan is built
from half-circle arcs that alternate the controls +-rho: each arc swaps the
active center and shrinks the circle radius by the fixed center distance
until a waypoint lands between the two centers.  One last control u_N, in
closed form, places v_N and the origin on a common circle, and the
complementary arcs (same controls, remaining sweep of each circle) close the
loop back to v0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .flow import SAMPLES_PER_SEGMENT, PiecewiseControl, Trajectory, equilibrium, flow_concat
from .group import TWO_PI, to_pairs
from .system import ReducedSpec

# Forward arcs a plan may take before it gives up on reaching the segment.
MAX_ARCS = 100_000
# Bound on |v0|, |theta eta| and |v(+-rho)|, and 1 / MAX_LENGTH on |theta eta|:
# the plan squares lengths of up to a few times these, and each square then
# stays finite and nonzero.
MAX_LENGTH = 1e150


def _circle_line_hits(center: complex, radius: float, d: complex) -> list:
    """Points where the circle meets the line through the origin along d != 0.

    Returns 0, 1, or 2 complex points, sorted by signed parameter along d.
    A vanishing discriminant yields the single tangency point.
    """
    d /= abs(d)
    # The centre in the line's frame: q.real along the line, q.imag across it.
    q = center * d.conjugate()
    disc = (radius - abs(q.imag)) * (radius + abs(q.imag))
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [q.real * d]
    root = math.sqrt(disc)
    return [(q.real - root) * d, (q.real + root) * d]


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


def _final_control(rs: ReducedSpec, v_n: complex) -> float:
    """Control whose solution circle passes through both v_n and the origin.

    For lam = 0 the equilibria are v(u) = x i eta with x = u / (mu - u), so
    |v(u)| = |v_n - v(u)| is the linear equation 2 x <v_n, i eta> = |v_n|^2,
    and u = mu x / (1 + x).  v_n lies on the segment between v(-rho) and
    v(rho), so x lies between their halves and 1 + x > 1/2; the length bounds
    of plan_periodic keep every term finite and nonzero.
    """
    # <a, b> is the real part of a conj(b).
    x = abs(v_n) ** 2 / (2.0 * (v_n * (1j * complex(*rs.eta)).conjugate()).real)
    return float(rs.mu * x / (1.0 + x))


def plan_periodic(
    rs: ReducedSpec,
    v0,
    rho: float | None = None,
) -> PlanResult:
    """Closed piecewise-constant plan through v0 and the origin (lam = 0).

    Forward half: half-circle arcs alternating +-rho walk the waypoint onto
    the segment of equilibria between v(-rho) and v(rho); a final control, in
    closed form, sweeps it into the origin.  Return half: the complementary
    arc of each forward circle, in reverse order, restores v0 exactly.
    """
    if rs.lam != 0.0:
        raise ValueError("planner requires lam = 0")
    if rs.mu == 0.0:
        raise ValueError("planner requires mu != 0")
    v0 = np.asarray(v0, dtype=float).reshape(2).copy()
    with np.errstate(over="ignore"):
        length = float(np.linalg.norm(v0))
    if not math.isfinite(length):
        # An overflowing length too: inf <= 1e-15 * inf would pass v0 off as the origin.
        raise ValueError("v0 must be finite, and short enough that its length is finite")
    if rho is None:
        rho = select_rho(rs)
    else:
        rho = float(rho)
        lo, hi = rs.omega
        if not (0.0 < rho <= min(-lo, hi)) or abs(rs.mu) <= rho:
            raise ValueError("rho must satisfy [-rho, rho] within Omega, mu outside")

    eta_length = rs.length
    with np.errstate(over="ignore", invalid="ignore"):
        centers = {sign: complex(*equilibrium(rs, sign * rho)) for sign in (+1.0, -1.0)}
        lengths = [float(np.abs(p)) for p in centers.values()]
    if not (1.0 / MAX_LENGTH <= eta_length and max(length, eta_length, *lengths) <= MAX_LENGTH):
        raise ValueError(
            f"plan needs |theta eta| >= {1.0 / MAX_LENGTH:g}, and v0, theta eta and "
            f"the centers v(+-rho) within {MAX_LENGTH:g} of the origin"
        )
    line_dir = 1j * complex(*rs.eta) / eta_length
    # A point z on the line of equilibria is (z conj(line_dir)).real line_dir.
    xs = {s: (c * line_dir.conjugate()).real for s, c in centers.items()}
    x_lo, x_hi = min(xs.values()), max(xs.values())
    gap = abs(xs[+1.0] - xs[-1.0])
    scale = max(1.0, length)

    if length <= 1e-15 * scale:
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
        q = v * line_dir.conjugate()  # along the line, and across it
        # Relative to |v|: an absolute floor would put every tiny v on the line.
        on_line = abs(q.imag) <= 1e-9 * abs(v)
        return on_line and x_lo - 1e-12 * scale <= q.real <= x_hi + 1e-12 * scale

    # Forward half: alternating arcs until a waypoint lies between the centers.
    w = complex(*v0)
    waypoints = [w]
    segments = []
    radii = []
    sign = +1.0
    n_arcs = 0
    while not on_segment(w):
        if n_arcs >= MAX_ARCS:
            raise RuntimeError("planner failed to reach the equilibrium segment")
        u = sign * rho
        c = centers[sign]
        radius = abs(w - c)
        c_next = centers[-sign]
        hits = _circle_line_hits(c, radius, line_dir)
        if not hits:
            raise RuntimeError("arc circle missed the equilibrium line")
        w_next = min(hits, key=lambda p: abs(p - c_next))
        # The angle swept about c from w to w_next.
        dur = arc_duration(u, rs.mu, cmath.phase((w_next - c) / (w - c)))
        if dur > 0.0:
            segments.append((dur, u))
            radii.append(radius)
        waypoints.append(w_next)
        w = w_next
        sign = -sign
        n_arcs += 1

    # Final arc: one control whose circle carries w into the origin.
    u_final = None
    final_radius = 0.0
    if abs(w) > 1e-15 * scale:
        u_final = _final_control(rs, w)
        c_fin = complex(*equilibrium(rs, u_final))
        final_radius = abs(c_fin)
        dur = arc_duration(u_final, rs.mu, cmath.phase(-c_fin / (w - c_fin)))
        if dur > 0.0:
            segments.append((dur, u_final))
    waypoints.append(0j)

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
    return PlanResult(
        control=control,
        trajectory=traj,
        waypoints=[to_pairs(p) for p in waypoints],
        rho=rho,
        closure_error=closure_error,
        radii=radii,
        final_radius=final_radius,
        u_final=u_final,
        center_gap=gap,
        origin_error=origin_error,
        diagnostics={"arcs": n_arcs},
    )
