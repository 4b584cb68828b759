"""Periodic-trajectory planner for the rotation-only planar case.

With trace A = 0 (lam = 0, mu != 0) every constant-control solution moves on
a circle centered at the equilibrium v(u), since the flow preserves
|v - v(u)|.  All equilibria lie on the line R * theta eta, so a plan is built
from arcs that alternate the controls +-rho: the first carries v0 onto that
line, and each later one is a half turn about the other center, shrinking
the radius by the fixed center distance, until a waypoint lands between the
two centers.  So the arc count is known before any flow.  One last control
u_N, in closed form, places v_N and the origin on a common circle, and the
complementary arcs (same controls, remaining sweep of each circle) close the
loop back to v0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .flow import BYTES_PER_SAMPLE, SAMPLES_PER_SEGMENT, PiecewiseControl, Trajectory, equilibrium, flow_concat
from .group import TWO_PI, to_pairs
from .reachability import MAX_GRID_BYTES
from .system import ReducedSpec

# Bound on |v0|, |theta eta| and |v(+-rho)|, and 1 / MAX_LENGTH on |theta eta|:
# the plan squares lengths of up to a few times these, and each square then
# stays finite and nonzero.
MAX_LENGTH = 1e150


def _arc_count(r0: float, gap: float, limit: float) -> float:
    """1 + the first k >= 0 with r0 - k gap <= limit, inf if there is none.

    The quotient (r0 - limit) / gap may round to a neighbour of that k, which
    the radii settle; past 2**53, beyond any budget, the quotient is the count.
    """
    if r0 <= limit:
        return 1.0
    q = (r0 - limit) / gap if gap > 0.0 else math.inf
    if not q < 2.0**53:
        return q + 1.0
    k = max(0, math.ceil(q) - 2)
    while r0 - k * gap > limit:
        k += 1
    return k + 1.0


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

    Forward half: arcs alternating +-rho, all but the first half turns, walk
    the waypoint onto the segment of equilibria between v(-rho) and v(rho); a
    final control, in closed form, sweeps it into the origin.  Return half:
    the complementary arc of each forward circle, in reverse order, restores
    v0 exactly.  A plan whose trajectory would need over MAX_GRID_BYTES
    raises ValueError before any flow.
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
    gap = abs(xs[+1.0] - xs[-1.0])
    scale = max(1.0, length)

    # Forward half: arc k (from 0) runs about v((-1)^k rho) with radius
    # r0 - k gap, to the point of the line past that center, toward the
    # other one.  A v0 at the origin or between the centers takes no arc.
    w0 = complex(*v0)
    q0 = w0 * line_dir.conjugate()  # along the line, and across it
    tol = 1e-12 * scale
    # Relative to |v0|: an absolute floor would put every tiny v0 on the line.
    between = abs(q0.imag) <= 1e-9 * abs(w0) and min(xs.values()) - tol <= q0.real <= max(xs.values()) + tol
    r0 = abs(w0 - centers[+1.0])
    n = _arc_count(r0, gap, gap + tol) if abs(w0) > 1e-15 * scale and not between else 0.0
    # Each arc and the final one give at most two segments: the arc itself
    # and its complement on the way back.
    n_bytes = ((2.0 * n + 2.0) * SAMPLES_PER_SEGMENT + 1.0) * BYTES_PER_SAMPLE
    if n_bytes > MAX_GRID_BYTES:
        raise ValueError(
            f"plan from v0 = ({w0.real!r}, {w0.imag!r}) takes {n:g} arcs, whose trajectory "
            f"needs about {n_bytes:.3g} bytes, over the {MAX_GRID_BYTES}-byte budget"
        )
    n = int(n)
    radii = [r0 - k * gap for k in range(n)]
    sigma = math.copysign(1.0, xs[-1.0] - xs[+1.0])  # from v(rho) toward v(-rho)
    ends = [(xs[+1.0] + sigma * r if k % 2 == 0 else xs[-1.0] - sigma * r) * line_dir
            for k, r in enumerate(radii)]
    w = ends[-1] if n else w0
    half_turns = [(arc_duration(u, rs.mu, math.pi), u) for u in (-rho, rho)]
    segments = (half_turns * n)[: n - 1]
    if n:
        # The angle swept about v(rho) from v0 to the first arc's end; a v0
        # on the line beyond v(-rho) is that end up to rounding, and sweeps
        # none (a phase of +-1e-16 would cost a full turn there or back).
        c = centers[+1.0]
        dur = 0.0
        if abs(ends[0] - w0) > tol:
            dur = arc_duration(rho, rs.mu, cmath.phase((ends[0] - c) / (w0 - c)))
        if dur > 0.0:
            segments.insert(0, (dur, rho))
        else:
            del radii[0]  # a first arc of no sweep is left out

    # Final arc: one control whose circle carries w into the origin.  w
    # carries the rounding of the lengths it is formed from (the first arc
    # ends at x+ + sigma r0, a cancellation of lengths about |v(rho)|), so
    # within 64 roundings of the largest of them it is the origin: an arc
    # there would sweep rounding noise, and its complement almost a period.
    u_final = None
    final_radius = 0.0
    if abs(w) > 2.0**-47 * max(length, *lengths):
        u_final = _final_control(rs, w)
        c_fin = complex(*equilibrium(rs, u_final))
        final_radius = abs(c_fin)
        dur = arc_duration(u_final, rs.mu, cmath.phase(-c_fin / (w - c_fin)))
        if dur > 0.0:
            segments.append((dur, u_final))

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
        waypoints=list(to_pairs([w0, *ends, 0j])),
        rho=rho,
        closure_error=closure_error,
        radii=radii,
        final_radius=final_radius,
        u_final=u_final,
        center_gap=gap,
        origin_error=origin_error,
        diagnostics={"arcs": n},
    )
