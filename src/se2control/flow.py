"""Closed-form flows, piecewise-constant controls, and the RK4 oracle.

For the planar reduced system vdot = (A - u theta) v + u eta with constant
control u, the closed-loop matrix A(u) = [[lam, -(mu-u)], [mu-u, lam]] is a
scaled rotation, so the flow is the logarithmic spiral

    phi(s, v, u) = e^{s lam} R(s (mu - u)) (v - v(u)) + v(u),

about the equilibrium v(u) = -u A(u)^{-1} eta whenever det A(u) != 0.  The
single singular constant control (lam = 0, u = mu) has A(u) = 0 and flows
along the straight line v + s u eta.

Every flow broadcasts: times s and controls u of shape (...) and states of
shape (..., 2) (planar) or (..., 3) (packed group states [t, v_x, v_y])
evaluate row by row in one call, and each row equals the one-row call bit
for bit.  The group flows also take a single GroupElement and return one.

The RK4 oracle takes classical fixed-step RK4 steps of the raw group field,
for a batch of samples at once.  The field is linear in v and its forcing
turns at a constant rate, so in complex form each step is an affine map
v <- p v + q_k and N steps sum in a few array expressions per chunk of
steps.  It never calls the closed-form code; it exists so every closed form
can be cross-validated independently.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .group import (
    GroupElement,
    as_packed,
    conj_psi1,
    conj_psi1_inv,
    conj_psi2,
    conj_psi2_inv,
    conj_psi_zero,
    conj_psi_zero_inv,
    group_result,
    perp,
    rotate,
)
from .system import ReducedSpec, SystemSpec, degenerate_chart, reduce_system

DEFAULT_RK4_STEP = 1e-3
SAMPLES_PER_SEGMENT = 64
# RK4 steps whose weights and angles the oracle evaluates together.  Fixed,
# so the summation order of a row does not depend on the other rows.
RK4_CHUNK = 256
# Largest x with a finite e^x.
_EXP_MAX_ARG = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------


def _equilibrium(rs: ReducedSpec, u, nu, d) -> np.ndarray:
    # -u A(u)^{-1} eta = -u/(lam^2 + (mu-u)^2) * (lam eta - (mu-u) theta eta)
    return (-u / d)[..., None] * (rs.lam * rs.eta - nu[..., None] * perp(rs.eta))


def equilibrium(rs: ReducedSpec, u) -> np.ndarray:
    """Equilibrium v(u) = -u A(u)^{-1} eta of the constant-control loop.

    `u` is a float or an array of shape (...); the result has shape
    (..., 2).  Undefined at the singular control (lam = 0 and u = mu), where
    A(u) = 0 and the drift u eta has no rest point: a ValueError is raised
    if any u is singular.
    """
    u = np.asarray(u, dtype=float)
    nu = rs.mu - u
    d = rs.lam**2 + nu * nu
    if np.any(d == 0.0):
        raise ValueError("no equilibrium at the singular control u = mu (lam = 0)")
    return _equilibrium(rs, u, nu, d)


def equilibrium_derivative(rs: ReducedSpec, u: float) -> np.ndarray:
    """Derivative v'(u) = -A(u)^{-1} (eta - theta v(u)); nonzero when eta != 0."""
    u = float(u)
    d = rs.det_a_of_u(u)
    if d == 0.0:
        raise ValueError("derivative undefined at the singular control")
    w = rs.eta - perp(equilibrium(rs, u))
    nu = rs.mu - u
    # A(u)^{-1} = [[lam, nu], [-nu, lam]] / d
    return -np.array([rs.lam * w[0] + nu * w[1], -nu * w[0] + rs.lam * w[1]]) / d


# ---------------------------------------------------------------------------
# Closed-form flows
# ---------------------------------------------------------------------------


def _not_finite(s, bad) -> ValueError:
    """Error naming the first time s whose row is flagged in `bad`."""
    s_bad = np.broadcast_to(s, bad.shape)[bad].flat[0]
    return ValueError(f"flow is not finite at s = {float(s_bad)}")


def _exp(x, s) -> np.ndarray:
    """e^x elementwise, by math.exp.

    numpy's vectorised exp differs from libm's in the last bit for some
    arguments; math.exp keeps every flow value equal to a scalar
    evaluation, and with them every report built on flows.
    """
    try:
        return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    except OverflowError:
        raise _not_finite(s, x > _EXP_MAX_ARG) from None


def flow_r2(rs: ReducedSpec, s, v, u) -> np.ndarray:
    """Planar closed-form flow for constant control, any real time s.

    Shapes: s and u are floats or arrays of shape (...), v has shape
    (..., 2); the leading shapes broadcast and the result has shape
    (..., 2).  Raises ValueError naming s when e^{lam s} or the flowed point
    is not finite.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = rs.mu - u
    d = rs.lam**2 + nu * nu
    singular = d == 0.0
    vu = _equilibrium(rs, u, nu, np.where(singular, 1.0, d))
    grow = _exp(s * rs.lam, s)
    with np.errstate(over="ignore", invalid="ignore"):
        out = grow[..., None] * rotate(s * nu, v - vu) + vu
        # Singular control: A(u) = 0, vdot = u eta.
        out = np.where(singular[..., None], v + (s * u)[..., None] * rs.eta, out)
    out = np.where((s == 0.0)[..., None], v, out)
    finite = np.isfinite(out).all(axis=-1)
    if not finite.all():
        raise _not_finite(s, ~finite)
    return out


def flow_product(rs: ReducedSpec, s, g, u):
    """Lifted flow on S^1 x R^2: the angle advances linearly, t + s u.

    `g` is a GroupElement or packed states of shape (..., 3); s and u are
    floats or arrays of shape (...).  The result is a GroupElement when g is
    one and s and u are floats, else packed states of the broadcast shape
    (..., 3).
    """
    x, element = as_packed(g)
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    return group_result(x[..., 0] + s * u, flow_r2(rs, s, x[..., 1:], u), element)


def dwell_rate(t, xi) -> np.ndarray:
    """Lambda_t xi = (I - rho(t)) theta xi, formed as 2 sin(t/2) rho(t/2) xi.

    The velocity of the A = 0 chart at rest at angle t (control 0).  This
    form has no difference of nearly equal vectors, so it keeps its
    relative accuracy for small t.  Shapes as for :func:`group.lambda_map`.
    """
    half = 0.5 * np.asarray(t, dtype=float)
    return (2.0 * np.sin(half))[..., None] * rotate(half, xi)


def flow_detA0(spec: SystemSpec, s, g, u):
    """Degenerate flow for A = 0, in coordinates where the invariant field is (1, 0).

    The normalized dynamics are tdot = u, vdot = Lambda_t xi.  For u != 0

        phi(s, (t, v), u) = (t + s u,
                             v + s theta xi + theta (rho(t+su) - rho(t)) theta xi / u),

    and for u = 0 the translation drifts along the frozen direction
    Lambda_t xi.  Since rho(t+su) - rho(t) = 2 sin(su/2) rho(t + su/2) theta,
    both read v + (s - k) theta xi + k Lambda_m xi with m = t + su/2 and
    k = 2 sin(su/2) / u (k = s for u = 0), Lambda_m xi formed by
    :func:`dwell_rate`.  This form divides no difference of nearly equal
    rotations by a small u, and a long dwell at a small angle keeps its
    relative accuracy.  Callers working with the raw system must first move
    to the normalized chart (conj_psi_zero) and rescale the control by alpha.
    Shapes as for :func:`flow_product`.
    """
    if spec.A.any():
        raise ValueError("flow_detA0 requires A = 0")
    x, element = as_packed(g)
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    t, v = x[..., 0], x[..., 1:]
    moving = u != 0.0
    half = 0.5 * s * u
    k = np.where(moving, 2.0 * np.sin(half) / np.where(moving, u, 1.0), s)
    turn = (s - k)[..., None] * perp(spec.xi) + k[..., None] * dwell_rate(t + half, spec.xi)
    return group_result(np.where(moving, t + s * u, t), v + turn, element)


def flow_se2(spec: SystemSpec, s, g, u):
    """Exact flow of the full system on the group, any classification case.

    det A != 0: conjugate to the reduced system (control rescaled to
    alpha u), flow there, conjugate back.  A = 0: same scheme through the
    degenerate chart.  Shapes as for :func:`flow_product`; the reduction is
    computed once per call, not once per row.
    """
    if spec.alpha == 0.0:
        raise ValueError("exact flow requires alpha != 0")
    ut = spec.alpha * np.asarray(u, dtype=float)
    if spec.det() == 0.0:
        h = conj_psi_zero(spec.alpha, spec.eta1, g)
        return conj_psi_zero_inv(spec.alpha, spec.eta1, flow_detA0(degenerate_chart(spec), s, h, ut))
    rs = reduce_system(spec)
    h = conj_psi2(conj_psi1(spec.A, spec.xi, g))
    return conj_psi1_inv(spec.A, spec.xi, conj_psi2_inv(flow_product(rs, s, h, ut)))


# ---------------------------------------------------------------------------
# Piecewise controls and trajectories
# ---------------------------------------------------------------------------


@dataclass
class PiecewiseControl:
    """Piecewise-constant control: a list of (duration, value) segments."""

    segments: list

    def __post_init__(self):
        segs = []
        for dur, u in self.segments:
            dur = float(dur)
            u = float(u)
            if not (np.isfinite(dur) and dur >= 0.0):
                raise ValueError("segment durations must be finite and >= 0")
            if not np.isfinite(u):
                raise ValueError("segment controls must be finite")
            segs.append((dur, u))
        self.segments = segs

    @property
    def total_duration(self) -> float:
        return float(sum(d for d, _ in self.segments))

    def within(self, omega) -> bool:
        lo, hi = omega
        return all(lo <= u <= hi for _, u in self.segments)

    def to_dict(self) -> dict:
        return {"segments": [{"duration": d, "u": u} for d, u in self.segments]}


@dataclass
class Trajectory:
    """Sampled trajectory.

    `states` has shape (n, 2) for planar runs and (n, 3) (angle, v_x, v_y)
    for runs on the group.  `controls[i]` is the control active at
    `times[i]` (the first segment's value at s = 0).
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    kind: str  # "planar" or "group"


def flow_concat(
    sys_obj,
    control: PiecewiseControl,
    x0,
    samples_per_segment: int = SAMPLES_PER_SEGMENT,
) -> Trajectory:
    """Concatenate closed-form segment flows along a piecewise control.

    Every sample, including each segment endpoint, is evaluated in closed
    form from the segment's start state, one flow call per segment; nothing
    is interpolated.  A ReducedSpec flows planar states (shape (2,)) with
    :func:`flow_r2`, or a GroupElement with :func:`flow_product`; a
    SystemSpec flows group states (a GroupElement or [t, v_x, v_y]) with
    :func:`flow_se2`.
    """
    if isinstance(sys_obj, SystemSpec):
        flow, kind = flow_se2, "group"
    elif not isinstance(sys_obj, ReducedSpec):
        raise TypeError("expected ReducedSpec or SystemSpec")
    elif isinstance(x0, GroupElement):
        flow, kind = flow_product, "group"
    else:
        flow, kind = flow_r2, "planar"
    if isinstance(x0, GroupElement):
        state = x0.as_array()
    else:
        state = np.asarray(x0, dtype=float).reshape(-1).copy()

    m = int(samples_per_segment)
    if m < 1:
        raise ValueError("samples_per_segment must be >= 1")

    steps = np.arange(1, m + 1)
    times = [np.zeros(1)]
    states = [state[None, :]]
    controls = [np.array([control.segments[0][1] if control.segments else 0.0])]
    elapsed = 0.0
    for dur, u in control.segments:
        tau = dur * steps / m
        times.append(elapsed + tau)
        states.append(flow(sys_obj, tau, state, u))
        controls.append(np.full(m, u))
        state = states[-1][-1]
        elapsed += dur
    return Trajectory(
        times=np.concatenate(times),
        states=np.concatenate(states),
        controls=np.concatenate(controls),
        kind=kind,
    )


# ---------------------------------------------------------------------------
# RK4 oracle
# ---------------------------------------------------------------------------


def rk4_oracle_batch(spec: SystemSpec, s, x0, u, step: float = DEFAULT_RK4_STEP) -> np.ndarray:
    """Classical fixed-step RK4 endpoints of the raw group field, one sample per row.

    The field is tdot = u alpha, vdot = A v + Lambda_t xi + u rho(t) eta1
    with constant control u.  Shapes: s and u are floats or arrays of shape
    (n,), x0 = [t, v_x, v_y] has shape (n, 3) or (3,); the result has shape
    (n, 3).  Sample i takes its own N = ceil(|s_i| / step) steps of size
    h = s_i / N (none for s_i = 0; negative s_i integrates backward).

    In complex form A is the number a = A[0,0] + i A[1,0], and the forcing is
    F(t) = c0 + c1 e^{it} with c0 = theta xi and c1 = u eta1 - theta xi,
    along angles t_k = t_0 + k dt, dt = h u alpha.  One RK4 step is then
    exactly the affine map v <- p v + q0 + q1 e^{i t_k}, with z = h a,

        p  = 1 + z + z^2/2 + z^3/6 + z^4/24,
        q0 = (h/6) (b0 + bm + 1) c0,
        q1 = (h/6) (b0 + bm e^{i dt/2} + e^{i dt}) c1,

    where b0 = 1 + z + z^2/2 + z^3/4 and bm = 4 + 2z + z^2/2 collect the
    stage weights of F at t_k and t_k + dt/2.  So the endpoint is
    p^N v_0 + sum_k p^(N-1-k) (q0 + q1 e^{i t_k}), summed over chunks of
    RK4_CHUNK steps with p^e = e^{e ln|p|} e^{i e arg p}, which keeps memory
    bounded for any N; the angle is t_0 + N dt.  Each row's constants are
    formed in Python complex arithmetic, and the chunk sums run elementwise
    on (real, imaginary) pairs of float64 arrays and along a fixed-length
    axis, so a row's bits do not depend on the other rows.  Uses only A,
    xi, eta1, alpha and the RK4 tableau: independent of the closed-form
    flow code by construction.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x0 = np.asarray(x0, dtype=float)
    shape = np.broadcast_shapes(s.shape, u.shape, x0.shape[:-1])
    if len(shape) != 1 or x0.shape[-1] != 3:
        raise ValueError("rk4_oracle_batch takes s, u of shape (n,) and x0 of shape (n, 3)")
    x0 = np.broadcast_to(x0, shape + (3,))

    a = complex(spec.A[0, 0], spec.A[1, 0])
    c0 = complex(-spec.xi[1], spec.xi[0])
    e1 = complex(*spec.eta1)
    # Each row's step map: N, dt, ln|p|, arg p, and q0, q1 as pairs.
    rows = []
    for s_i, u_i in zip(np.broadcast_to(s, shape).tolist(), np.broadcast_to(u, shape).tolist()):
        n = 0 if s_i == 0.0 else max(1, math.ceil(abs(s_i) / step - 1e-12))
        h = s_i / max(n, 1)
        dt = h * (u_i * spec.alpha)
        z = h * a
        p = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
        b0 = 1 + z * (1 + z / 2 * (1 + z / 2))
        bm = 4 + z * (2 + z / 2)
        q0 = h / 6 * (b0 + bm + 1) * c0
        q1 = h / 6 * (b0 + bm * cmath.rect(1.0, 0.5 * dt) + cmath.rect(1.0, dt)) * (u_i * e1 - c0)
        rows.append((n, dt, math.log(abs(p)), cmath.phase(p), q0.real, q0.imag, q1.real, q1.imag))
    n_steps, dt, ln_p, arg_p, q0r, q0i, q1r, q1i = np.array(rows).reshape(-1, 8).T

    t0, vr, vi = x0.T
    j = np.arange(RK4_CHUNK, dtype=float)
    for k0 in range(0, int(n_steps.max(initial=0)), RK4_CHUNK):
        r = np.maximum(np.minimum(n_steps - k0, RK4_CHUNK), 0.0)
        # Step k0 + j is weighted by p^e, e = r - 1 - j; steps past the row's end by 0.
        e = (r - 1.0)[:, None] - j
        mag = np.exp(e * ln_p[:, None], out=np.zeros(e.shape), where=e >= 0.0)
        turn = e * arg_p[:, None]
        angle = turn + (t0[:, None] + (k0 + j) * dt[:, None])
        # v <- p^r v + q0 sum_j p^e + q1 sum_j p^e e^{i t_(k0+j)}
        s0r, s0i = np.add.reduce(mag * np.cos(turn), 1), np.add.reduce(mag * np.sin(turn), 1)
        s1r, s1i = np.add.reduce(mag * np.cos(angle), 1), np.add.reduce(mag * np.sin(angle), 1)
        grow = np.exp(r * ln_p)
        pr, pi = grow * np.cos(r * arg_p), grow * np.sin(r * arg_p)
        vr, vi = (
            pr * vr - pi * vi + q0r * s0r - q0i * s0i + q1r * s1r - q1i * s1i,
            pr * vi + pi * vr + q0r * s0i + q0i * s0r + q1r * s1i + q1i * s1r,
        )
    return np.column_stack([t0 + n_steps * dt, vr, vi])


def rk4_oracle(spec: SystemSpec, s: float, x0, u: float, step: float = DEFAULT_RK4_STEP) -> np.ndarray:
    """RK4 endpoint of the raw group field for one sample, x0 = [t, v_x, v_y].

    The one-row call of :func:`rk4_oracle_batch`: s and u are floats, and
    the result, of shape (3,), equals that sample's row in any batch bit for
    bit.
    """
    if not isinstance(spec, SystemSpec):
        raise TypeError("rk4_oracle integrates the field of a SystemSpec")
    return rk4_oracle_batch(spec, float(s), np.reshape(x0, 3), float(u), step)[0]
