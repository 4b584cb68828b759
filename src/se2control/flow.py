"""Closed-form flows, piecewise-constant controls, and the RK4 oracle.

A planar point is a complex number inside this module.  The closed-loop
matrix of the reduced system vdot = (A - u theta) v + u eta with constant
control u commutes with theta, so it acts as multiplication by
lam + i (mu - u), and the flow is the logarithmic spiral

    phi(s, v, u) = e^{s lam} e^{i s (mu - u)} (v - v(u)) + v(u),

about the equilibrium v(u) = -u eta / (lam + i (mu - u)) whenever
det A(u) = lam^2 + (mu - u)^2 != 0.  The single singular constant control
(lam = 0, u = mu) flows along the straight line v + s u eta.

Every flow broadcasts: times s and controls u of shape (...) and states
(planar points, or packed group states [t, v_x, v_y] of shape (..., 3))
evaluate row by row in one call, and each row equals the one-row call bit
for bit.  flow_r2 takes its points as complex numbers of shape (...) or as
real pairs of shape (..., 2) and answers in the same form; one group state
is a row of shape (3,).  flow_se2 runs on a Plant, which system.prepare
builds once per system: its decoupling charts rotate and shift complex
translations, and packed rows are unpacked and rebuilt only at the edge of
the call.

The RK4 oracle gives the endpoint of classical fixed-step RK4 on the raw
group field, for a batch of samples at once.  The field is linear in v and
its forcing turns at a constant rate, so in complex form each step is an
affine map v <- p v + q0 + q1 e^{i t_k}, and N steps sum as two geometric
series in closed form: a row costs the same whatever its step count.  It
never calls the closed-form code; it exists so every closed form can be
cross-validated independently.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .group import as_packed, cis, group_result, to_complex, to_pairs, wrap_angle
from .system import Plant, ReducedSpec, SystemSpec

DEFAULT_RK4_STEP = 1e-3
SAMPLES_PER_SEGMENT = 64
# Peak bytes of one trajectory sample (closed-form flow plus CSV row), measured
# with tracemalloc (numpy 2.4) and rounded up: what simulate and plan budget.
BYTES_PER_SAMPLE = 170
# Largest x with a finite e^x.
_EXP_MAX_ARG = math.log(sys.float_info.max)
# Largest x whose e^x numpy's complex exp forms as libm's exp (see _exp).
_CEXP_MAX_ARG = 709.0


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------


def _equilibrium(rs: ReducedSpec, u) -> tuple:
    """(v(u) as complex numbers, singular mask) for controls u of shape (...); v(u) = +-0 where singular.

    With (d, c) of rs.det_a_of_u, v(u) = -(c u)/d (c lam - i c (mu - u)) eta, the real
    factor times each part: a complex product adds 0 * the other part."""
    u = np.asarray(u, dtype=float)[()]
    d, c = rs.det_a_of_u(u)
    singular = d == 0.0
    eta = complex(*rs.eta)
    r = -(c * u) / (d + singular)  # d + 1 = 1 at the singular control
    w = (c * rs.lam) * eta - (c * (rs.mu - u)) * (1j * eta)
    out = np.empty(np.broadcast(r, w).shape, dtype=complex)
    out.real, out.imag = r * w.real, r * w.imag
    return out, singular


def equilibrium(rs: ReducedSpec, u) -> np.ndarray:
    """Equilibrium v(u) = -u A(u)^{-1} eta of the constant-control loop.

    `u` is a float or an array of shape (...); the result holds real pairs
    and has shape (..., 2).  Undefined at the singular control (lam = 0 and
    u = mu exactly), where A(u) = 0 and the drift u eta has no rest point: a
    ValueError is raised if any u is singular.  Formed on det_a_of_u's scaled
    values, it is finite elsewhere wherever v(u) is."""
    vu, singular = _equilibrium(rs, u)
    if singular.any():
        raise ValueError("no equilibrium at the singular control u = mu (lam = 0)")
    return to_pairs(vu)


# ---------------------------------------------------------------------------
# Closed-form flows
# ---------------------------------------------------------------------------


def _not_finite(s, bad) -> ValueError:
    """Error naming the first time s whose row is flagged in `bad`."""
    s_bad = np.broadcast_to(s, bad.shape)[bad].flat[0]
    return ValueError(f"flow is not finite at s = {float(s_bad)}")


def _exp(x, s) -> np.ndarray:
    """e^x elementwise, equal to math.exp bit for bit.

    numpy's real exp differs from libm's in the last bit for about 4.6 % of
    arguments, so it would move flow values and every report built on them.
    numpy's complex exp calls libm's cexp, which for a zero imaginary part
    returns libm's exp of the real part up to x = 709 (glibc's
    (int)(1023 ln 2)); above that it rescales by e^709 and the last bit
    differs, so those rows take math.exp.  tests/test_flow_batch.py checks
    the agreement bit for bit.  Raises ValueError naming s where e^x
    overflows.
    """
    z = np.array(np.minimum(x, _CEXP_MAX_ARG), dtype=complex)
    out = np.exp(z, out=z).real
    big = x > _CEXP_MAX_ARG
    if big.any():
        try:
            out[big] = [math.exp(v) for v in x[big].tolist()]
        except OverflowError:
            raise _not_finite(s, x > _EXP_MAX_ARG) from None
    return out


def flow_r2(rs: ReducedSpec, s, v, u) -> np.ndarray:
    """Planar closed-form flow for constant control, any real time s.

    Shapes: s and u are floats or arrays of shape (...); v holds complex
    points of shape (...), or real pairs of shape (..., 2).  The leading
    shapes broadcast, and the result holds the flowed points in the form of
    v.  Raises ValueError naming s when e^{lam s} or the flowed point is not
    finite.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)[()]  # a float as a numpy scalar, cheaper than a 0-d array
    pairs = not np.iscomplexobj(v)
    z = to_complex(v) if pairs else np.asarray(v)
    with np.errstate(over="ignore", invalid="ignore"):
        vu, singular = _equilibrium(rs, u)
        grow = _exp(s * rs.lam, s)
        # The point stays the first factor: where numpy's complex product
        # fuses a multiply into each term, this order rounds as the real
        # 2x2 rotation did.
        out = grow * ((z - vu) * cis(s * (rs.mu - u))) + vu
        if singular.any():  # A(u) = 0, vdot = u eta
            out = np.where(singular, z + (s * u) * complex(*rs.eta), out)
    at_zero = s == 0.0
    if at_zero.any():
        out = np.where(at_zero, z, out)
    bad = ~np.isfinite(out)
    if bad.any():
        raise _not_finite(s, bad)
    return to_pairs(out) if pairs else out


def dwell_rate(t, xi) -> np.ndarray:
    """Lambda_t xi = (1 - e^{it}) i xi, formed as 2 sin(t/2) e^{it/2} xi.

    The velocity of the A = 0 chart at rest at angle t (control 0), for
    angles t of shape (...) and a complex xi.  This form has no difference
    of nearly equal numbers, so it keeps its relative accuracy for small t.
    """
    half = 0.5 * np.asarray(t, dtype=float)
    return 2.0 * np.sin(half) * (xi * cis(half))


def _detA0_angle(s, t, u) -> np.ndarray:
    """Wrapped end angles of :func:`flow_detA0` from angles t; s and u are arrays."""
    return wrap_angle(np.where(u != 0.0, t + s * u, t))


def _detA0_increments(xi, s, t, u) -> tuple:
    """Wrapped end angles and translation increments of :func:`flow_detA0` from angles t; s and u are arrays.

    The increment does not depend on the start translation: a row (t, z)
    flows to (angle, z + increment).  So a flow from fixed angles, such as
    a steering arc, is formed once and its increment added to any number
    of translations.
    """
    moving = u != 0.0
    half = 0.5 * s * u
    k = np.where(moving, 2.0 * np.sin(half) / np.where(moving, u, 1.0), s)
    turn = (s - k) * (1j * xi) + k * dwell_rate(t + half, xi)
    return _detA0_angle(s, t, u), turn


def flow_detA0(spec: SystemSpec, s, g, u):
    """Degenerate flow for A = 0, in coordinates where the invariant field is (1, 0).

    The normalized dynamics are tdot = u, vdot = Lambda_t xi, with
    Lambda_t xi = (1 - e^{it}) i xi.  For u != 0

        phi(s, (t, v), u) = (t + s u, v + s i xi - (e^{i(t+su)} - e^{it}) xi / u),

    and for u = 0 the translation drifts along the frozen direction
    Lambda_t xi.  Since e^{i(t+su)} - e^{it} = 2i sin(su/2) e^{i(t + su/2)},
    both read v + (s - k) i xi + k Lambda_m xi with m = t + su/2 and
    k = 2 sin(su/2) / u (k = s for u = 0), Lambda_m xi formed by
    :func:`dwell_rate`.  This form divides no difference of nearly equal
    rotations by a small u, and a long dwell at a small angle keeps its
    relative accuracy.  Of `spec` it reads only A and xi.  Callers working
    with the raw system must first move to the normalized chart (see
    :func:`flow_se2`) and rescale the control by alpha.  Shapes as for
    :func:`flow_se2`.
    """
    if spec.A.any():
        raise ValueError("flow_detA0 requires A = 0")
    x = as_packed(g)
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    t, turn = _detA0_increments(complex(*spec.xi), s, x[..., 0], u)
    return group_result(t, to_complex(x[..., 1:]) + turn)


def flow_se2(plant: Plant, s, g, u):
    """Exact flow of the full system on the group, any classification case.

    The charts act on complex translations z, with w the plant's offset:

    det A != 0: psi1 then psi2 take (t, z) to (t, e^{-it} (z + w) - w); the
    reduced system flows there with control alpha u while the angle
    advances to t' = t + s alpha u, and the inverse charts return
    (t', e^{it'} (z' + w) - w).
    A = 0: (t, z - (1 - e^{it}) w / alpha), the flow of :func:`flow_detA0`
    with control alpha u, then (t', z' + (1 - e^{it'}) w / alpha).

    Angles are wrapped on entry and after the flow.  `g` holds packed
    states of shape (..., 3); s and u are floats or arrays of shape (...).
    The result holds packed states of the broadcast shape (..., 3).  Raises
    ValueError naming s where the flow or a chart value is not finite.
    """
    if plant.chart == "none":
        raise ValueError("exact flow requires alpha != 0")
    x = as_packed(g)
    s = np.asarray(s, dtype=float)
    ut = plant.spec.alpha * np.asarray(u, dtype=float)
    t, z, w = x[..., 0], to_complex(x[..., 1:]), plant.offset
    # Translations near the float limit overflow in the chart products; a
    # value that is not finite stays so and raises below, so numpy's
    # warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        if plant.chart == "zero":
            w = w / plant.spec.alpha
            z = z - (w - w * cis(t))
            t, turn = _detA0_increments(complex(*plant.spec.xi), s, t, ut)
            z = (z + turn) + (w - w * cis(t))
        else:
            z = flow_r2(plant.rs, s, (z + w) * cis(-t) - w, ut)
            t = wrap_angle(t + s * ut)
            z = (z + w) * cis(t) - w
    bad = ~(np.isfinite(t) & np.isfinite(z))
    if bad.any():
        raise _not_finite(s, bad)
    return group_result(t, z)


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
    system: ReducedSpec | Plant,
    control: PiecewiseControl,
    x0,
    samples_per_segment: int = SAMPLES_PER_SEGMENT,
) -> Trajectory:
    """Concatenate closed-form segment flows along a piecewise control.

    Every sample, including each segment endpoint, is evaluated in closed
    form from the segment's start state, one flow call per segment; nothing
    is interpolated.  A ReducedSpec flows planar states (shape (2,)) with
    :func:`flow_r2`; a Plant flows group states [t, v_x, v_y] with
    :func:`flow_se2`.
    """
    if isinstance(system, ReducedSpec):
        flow, kind = flow_r2, "planar"
    elif isinstance(system, Plant):
        flow, kind = flow_se2, "group"
    else:
        raise TypeError("expected ReducedSpec or Plant")
    state = np.array(x0, dtype=float).reshape(-1)

    m = int(samples_per_segment)
    if m < 1:
        raise ValueError("samples_per_segment must be >= 1")

    steps = np.arange(1, m + 1)
    times = [np.zeros(1)]
    states = [state[None, :]]
    controls = [np.array([control.segments[0][1] if control.segments else 0.0])]
    elapsed = 0.0
    for dur, u in control.segments:
        if math.isfinite(dur * m):
            tau = dur * steps / m
        else:
            # dur * k overflows where dur * k / m need not.  Scaling by a
            # power of two above m is exact here, so each time rounds as the
            # formula above would in a wider exponent range.
            e = m.bit_length()
            with np.errstate(over="ignore"):
                tau = np.ldexp(math.ldexp(dur, -e) * steps / m, e)
        # The last time is the largest, so the others are finite with it.
        if not math.isfinite(elapsed + float(tau[-1])):
            raise ValueError("sample times overflow: the control lasts past the float range")
        times.append(elapsed + tau)
        states.append(flow(system, tau, state, u))
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


def _expm1(w: complex) -> complex:
    """e^w - 1 for complex w, without cancellation when w is small."""
    x, y = w.real, w.imag
    re = math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2
    return complex(re, math.exp(x) * math.sin(y))


def _geometric_sum(log_r: complex, n: int) -> complex:
    """sum_{k<n} r^k for r = e^log_r: expm1(n log_r) / expm1(log_r), or n for log_r = 0."""
    if log_r == 0.0:
        return complex(n)
    return _expm1(n * log_r) / _expm1(log_r)


def rk4_oracle_batch(spec: SystemSpec, s, x0, u) -> np.ndarray:
    """Classical fixed-step RK4 endpoints of the raw group field, one sample per row.

    The field is tdot = u alpha, vdot = A v + Lambda_t xi + u rho(t) eta1
    with constant control u.  Shapes: s and u are floats or arrays of shape
    (n,), x0 = [t, v_x, v_y] has shape (n, 3) or (3,); the result has shape
    (n, 3).  Sample i takes its own N = ceil(|s_i| / DEFAULT_RK4_STEP) steps
    of size h = s_i / N (none for s_i = 0; negative s_i integrates backward).
    Raises ValueError naming s when N or an endpoint is not finite.

    In complex form A is the number a = A[0,0] + i A[1,0], and the forcing is
    F(t) = c0 + c1 e^{it} with c0 = theta xi and c1 = u eta1 - theta xi,
    along angles t_k = t_0 + k dt, dt = h u alpha.  One RK4 step is then
    exactly the affine map v <- p v + q0 + q1 e^{i t_k}, with z = h a,

        p  = 1 + z + z^2/2 + z^3/6 + z^4/24,
        q0 = (h/6) (b0 + bm + 1) c0,
        q1 = (h/6) (b0 + bm e^{i dt/2} + e^{i dt}) c1,

    where b0 = 1 + z + z^2/2 + z^3/4 and bm = 4 + 2z + z^2/2 collect the
    stage weights of F at t_k and t_k + dt/2.  With w = e^{i dt}, N steps
    give

        p^N v_0 + q0 sum_{k<N} p^k + q1 e^{i t_0} sum_{k<N} p^(N-1-k) w^k,

    and the angle t_0 + N dt.  Both sums are geometric and are summed in
    closed form, so a row costs the same for any N: sum_{k<N} r^k =
    expm1(N L) / expm1(L) with L = log r (N for L = 0).  log |p| is formed
    from m = p - 1 by log1p, or by log where |p|^2 < 1/2.  The second sum
    factors out p^(N-1) when |p| >= 1 and w^(N-1) otherwise, so its ratio
    has modulus at most 1 and nothing overflows while the endpoint is
    finite.  Each row is formed in Python complex arithmetic, so its bits
    do not depend on the other rows.  Uses only A, xi, eta1, alpha and the
    RK4 tableau: independent of the closed-form flow code by construction.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x0 = np.asarray(x0, dtype=float)
    shape = np.broadcast_shapes(s.shape, u.shape, x0.shape[:-1])
    if len(shape) != 1 or x0.shape[-1] != 3:
        raise ValueError("rk4_oracle_batch takes s, u of shape (n,) and x0 of shape (n, 3)")
    s = np.broadcast_to(s, shape)
    x0 = np.broadcast_to(x0, shape + (3,))

    a = complex(spec.A[0, 0], spec.A[1, 0])
    c0 = complex(-spec.xi[1], spec.xi[0])
    e1 = complex(*spec.eta1)
    rows = []
    for s_i, u_i, (t0, vx, vy) in zip(s.tolist(), np.broadcast_to(u, shape).tolist(), x0.tolist()):
        try:
            n = 0 if s_i == 0.0 else max(1, math.ceil(abs(s_i) / DEFAULT_RK4_STEP - 1e-12))
        except OverflowError:  # |s| / step is inf
            raise ValueError(f"the RK4 step count |s| / step overflows at s = {s_i}") from None
        h = s_i / max(n, 1)
        dt = h * (u_i * spec.alpha)
        z = h * a
        m = z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))  # p - 1
        b0 = 1 + z * (1 + z / 2 * (1 + z / 2))
        bm = 4 + z * (2 + z / 2)
        q0 = h / 6 * (b0 + bm + 1) * c0
        q1 = h / 6 * (b0 + bm * cmath.rect(1.0, 0.5 * dt) + cmath.rect(1.0, dt)) * (u_i * e1 - c0)
        try:
            d = m.real * (2.0 + m.real) + m.imag * m.imag  # |p|^2 - 1
            log_p = complex(
                0.5 * math.log1p(d) if d > -0.5 else math.log(abs(1 + m)),
                math.atan2(m.imag, 1.0 + m.real),
            )
            if log_p.real >= 0.0:  # factor out p^(N-1)
                lead, ratio = (n - 1) * log_p + 1j * t0, 1j * dt - log_p
            else:  # factor out w^(N-1)
                lead, ratio = 1j * (t0 + (n - 1) * dt), log_p - 1j * dt
            v = (
                cmath.exp(n * log_p) * complex(vx, vy)
                + q0 * _geometric_sum(log_p, n)
                + q1 * cmath.exp(lead) * _geometric_sum(ratio, n)
            )
        except (OverflowError, ValueError):  # math range or domain error
            v = complex(math.nan, math.nan)
        rows.append((t0 + n * dt, v.real, v.imag))
    out = np.array(rows, dtype=float).reshape(-1, 3)
    finite = np.isfinite(out).all(axis=-1)
    if not finite.all():
        raise _not_finite(s, ~finite)
    return out


def rk4_oracle(spec: SystemSpec, s: float, x0, u: float) -> np.ndarray:
    """RK4 endpoint of the raw group field for one sample, x0 = [t, v_x, v_y].

    The one-row call of :func:`rk4_oracle_batch`: s and u are floats, and
    the result, of shape (3,), equals that sample's row in any batch bit for
    bit.
    """
    if not isinstance(spec, SystemSpec):
        raise TypeError("rk4_oracle integrates the field of a SystemSpec")
    return rk4_oracle_batch(spec, float(s), np.reshape(x0, 3), float(u))[0]
