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

The RK4 oracle integrates the raw group field with classical fixed-step RK4,
for a batch of samples at once, and never calls the closed-form code; it
exists so every closed form can be cross-validated independently.
"""

from __future__ import annotations

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
# RK4 steps whose angles (and their cos/sin) the oracle evaluates together.
RK4_BLOCK = 32
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
    d = rs.lam**2 + nu**2
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
    d = rs.lam**2 + nu**2
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


def _rk4_forcing(angles, u, txi, eta1):
    """State-independent terms of vdot = A v + theta xi - rho(t) theta xi + u rho(t) eta1.

    `angles` has shape (steps, n) and `u` shape (n,); returns
    (rho(t) theta xi, u rho(t) eta1), each of shape (steps, 2, n).
    """
    c, s = np.cos(angles), np.sin(angles)
    txx, txy = txi
    e1x, e1y = eta1
    turned = np.stack([c * txx - s * txy, s * txx + c * txy], axis=-2)
    pushed = np.stack([u * (c * e1x - s * e1y), u * (s * e1x + c * e1y)], axis=-2)
    return turned, pushed


def rk4_oracle_batch(spec: SystemSpec, s, x0, u, step: float = DEFAULT_RK4_STEP) -> np.ndarray:
    """Classical fixed-step RK4 endpoints of the raw group field, one sample per row.

    The field is tdot = u alpha, vdot = A v + Lambda_t xi + u rho(t) eta1
    with constant control u.  Shapes: s and u are floats or arrays of shape
    (n,), x0 = [t, v_x, v_y] has shape (n, 3) or (3,); the result has shape
    (n, 3).  Sample i takes its own n_i = ceil(|s_i| / step) steps of size
    s_i / n_i (none for s_i = 0; negative s_i integrates backward), so a
    row's endpoint does not depend on the other rows.  Samples that have
    taken all their steps are left alone while the others go on, and the
    angles of up to RK4_BLOCK steps are evaluated together.  Independent of
    the closed-form flow code by construction.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x0 = np.asarray(x0, dtype=float)
    shape = np.broadcast_shapes(s.shape, u.shape, x0.shape[:-1])
    if len(shape) != 1 or x0.shape[-1] != 3:
        raise ValueError("rk4_oracle_batch takes s, u of shape (n,) and x0 of shape (n, 3)")
    s, u = np.broadcast_to(s, shape), np.broadcast_to(u, shape)
    x0 = np.broadcast_to(x0, shape + (3,))

    n_steps = np.where(s == 0.0, 0, np.maximum(1, np.ceil(np.abs(s) / step - 1e-12))).astype(np.int64)
    # Longest first, so the samples still stepping are always a prefix.
    order = np.argsort(-n_steps, kind="stable")
    n_steps = n_steps[order]
    h = s[order] / np.maximum(n_steps, 1)
    u = u[order]
    t_end = x0[order, 0].copy()
    v_end = x0[order, 1:].T.copy()  # row 0 holds v_x, row 1 v_y

    # (A v)_x = a00 v_x + a01 v_y and (A v)_y = a11 v_y + a10 v_x (the same
    # sums, added in either order), so A v = diag * v + off * v[::-1].
    A = spec.A
    diag, off = np.array([[A[0, 0]], [A[1, 1]]]), np.array([[A[0, 1]], [A[1, 0]]])
    txi = perp(spec.xi)
    half = 0.5 * h
    sixth = h / 6.0
    dt = h * (u * spec.alpha)
    dt_half = half * (u * spec.alpha)

    # Step the m active samples in blocks that end before any of them is
    # done.  Constants are laid out like the state, shape (2, m), since
    # numpy operates faster on equal shapes than on broadcast ones.
    m = int(np.count_nonzero(n_steps))
    t, v = t_end[:m], v_end[:, :m].copy()
    done = 0
    while m:
        block = min(RK4_BLOCK, int(n_steps[m - 1]) - done)
        # Angles at the block's steps: t_{k+1} = t_k + h td, summed in order.
        path = np.empty((block + 1, m))
        path[0] = t
        path[1:] = dt[:m]
        path = np.add.accumulate(path, axis=0)
        turned, pushed = _rk4_forcing(path, u[:m], txi, spec.eta1)
        turned_mid, pushed_mid = _rk4_forcing(path[:-1] + dt_half[:m], u[:m], txi, spec.eta1)
        diag_m, off_m, txi_m, h_m, half_m, sixth_m = (
            np.broadcast_to(x, (2, m)).copy()
            for x in (diag, off, txi[:, None], h[:m], half[:m], sixth[:m])
        )
        for j in range(block):
            k1 = diag_m * v + off_m * v[::-1] + txi_m - turned[j] + pushed[j]
            y = v + half_m * k1
            k2 = diag_m * y + off_m * y[::-1] + txi_m - turned_mid[j] + pushed_mid[j]
            y = v + half_m * k2
            k3 = diag_m * y + off_m * y[::-1] + txi_m - turned_mid[j] + pushed_mid[j]
            y = v + h_m * k3
            k4 = diag_m * y + off_m * y[::-1] + txi_m - turned[j + 1] + pushed[j + 1]
            v = v + sixth_m * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        done += block
        t = path[block]
        active = int(np.count_nonzero(n_steps[:m] > done))
        t_end[active:m] = t[active:]
        v_end[:, active:m] = v[:, active:]
        m = active
        t, v = t[:m], v[:, :m]

    out = np.empty(shape + (3,))
    out[order, 0] = t_end
    out[order, 1:] = v_end.T
    return out


def rk4_oracle(spec: SystemSpec, s: float, x0, u: float, step: float = DEFAULT_RK4_STEP) -> np.ndarray:
    """RK4 endpoint of the raw group field for one sample, x0 = [t, v_x, v_y].

    Takes the steps of :func:`rk4_oracle_batch` in scalar arithmetic, which
    costs a few microseconds per step where the array kernel pays about 30
    numpy calls; each value equals the batch kernel's row bit for bit.
    Returns shape (3,).
    """
    if not isinstance(spec, SystemSpec):
        raise TypeError("rk4_oracle integrates the field of a SystemSpec")
    s, u = float(s), float(u)
    t, vx, vy = np.asarray(x0, dtype=float).reshape(3).tolist()
    if s == 0.0:
        return np.array([t, vx, vy])
    n = max(1, math.ceil(abs(s) / step - 1e-12))
    h = s / n
    half, sixth = 0.5 * h, h / 6.0
    (a00, a01), (a10, a11) = spec.A.tolist()
    txx, txy = perp(spec.xi).tolist()  # theta xi
    e1x, e1y = spec.eta1.tolist()
    dt, dt_half = h * (u * spec.alpha), half * (u * spec.alpha)

    def forcing(t):
        # rho(t) theta xi and u rho(t) eta1, added as the batch kernel adds them
        c, s_ = math.cos(t), math.sin(t)
        return c * txx - s_ * txy, s_ * txx + c * txy, u * (c * e1x - s_ * e1y), u * (s_ * e1x + c * e1y)

    rx, ry, px, py = forcing(t)
    for _ in range(n):
        t_next = t + dt
        mrx, mry, mpx, mpy = forcing(t + dt_half)
        nrx, nry, npx, npy = forcing(t_next)
        k1x = a00 * vx + a01 * vy + txx - rx + px
        k1y = a11 * vy + a10 * vx + txy - ry + py
        ax, ay = vx + half * k1x, vy + half * k1y
        k2x = a00 * ax + a01 * ay + txx - mrx + mpx
        k2y = a11 * ay + a10 * ax + txy - mry + mpy
        ax, ay = vx + half * k2x, vy + half * k2y
        k3x = a00 * ax + a01 * ay + txx - mrx + mpx
        k3y = a11 * ay + a10 * ax + txy - mry + mpy
        ax, ay = vx + h * k3x, vy + h * k3y
        k4x = a00 * ax + a01 * ay + txx - nrx + npx
        k4y = a11 * ay + a10 * ax + txy - nry + npy
        vx = vx + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        vy = vy + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        t, rx, ry, px, py = t_next, nrx, nry, npx, npy
    return np.array([t, vx, vy])
