"""The A = 0 structure check and steering, flowed step by step in the spec's own units.

`reference_steer_batch` flows every pair's three rehearsal arcs, and then
its five segments one `detA0_rows` pass each.  `reference_check` draws its
trajectories with scalar `rng.uniform` calls, flows every sample of every
segment with `detA0_rows`, takes the growth of H(v) = <v, i xi> between
samples over |xi|^2, and steers each direction with a full
`reference_steer_batch` call.

The library works in units of xi: xi times the power of two that puts its
largest component in [1, 2) (`unit_spec`).  It forms the growth of H in
closed form, and forms the steering's pair-independent data once per check.
Run on `unit_spec(spec)`, the reference's pairs keep every expression and
operand order of the library's, so the tests hold the two equal bit for
bit; its growths differ from the closed form by rounding alone.

Both read the sizes `DEGENERATE_TRAJECTORIES` and `DEGENERATE_PAIRS` and
the tolerances from `reachability` at call time, so a test that patches
them sizes both sides alike.
"""
import dataclasses
import math

import numpy as np

from se2control import reachability as R
from se2control.flow import _detA0_increments, dwell_rate
from se2control.group import angle_dist, to_complex, to_pairs
from se2control.system import reduced_range


def unit_spec(spec) -> tuple:
    """(spec with xi times 2**k, k), for the k that puts xi's largest component
    in [1, 2); eta1, which the A = 0 check does not read, stays."""
    k = 1 - math.frexp(float(np.abs(spec.xi).max()))[1]
    return dataclasses.replace(spec, xi=np.ldexp(spec.xi, k)), k


def detA0_rows(xi, s, t, z, u) -> tuple:
    """Wrapped angles and complex translations of `flow.flow_detA0` for rows (t, z); s and u are arrays."""
    angle, turn = _detA0_increments(xi, s, t, u)
    return angle, z + turn


def _chart(spec) -> tuple:
    """xi as a complex number and min(-lo, hi) of the rescaled control range
    [lo, hi]; `reachability._prepare_steering` runs only to raise its errors."""
    R._prepare_steering(spec)
    lo, hi = reduced_range(spec)
    return complex(*spec.xi), min(-lo, hi)


def _endpoints(xi, segments, t, z):
    """End angles and translations of rows (t, z) under (..., 5, 2) rows of (duration, u) segments."""
    for dur, u in zip(np.moveaxis(segments[..., 0], -1, 0), np.moveaxis(segments[..., 1], -1, 0)):
        t_end, z_end = detA0_rows(xi, dur, t, z, u)
        moved = dur > 0.0
        t, z = np.where(moved, t_end, t), np.where(moved, z_end, z)
    return t, z


def reference_steer_batch(spec, v_from, v_to) -> tuple:
    """(segments, ends, residuals) of `reachability.steer_degenerate` on a spec whose
    xi is in its own units, every pair flowed in full."""
    xi, u_max = _chart(spec)
    n2 = float(spec.xi @ spec.xi)
    v_from, v_to = np.broadcast_arrays(np.asarray(v_from, dtype=float), np.asarray(v_to, dtype=float))
    v_from, v_to = v_from.reshape(-1, 2), v_to.reshape(-1, 2)
    step = to_complex(v_to) - to_complex(v_from)
    proj = xi.conjugate() * step
    a_t = (proj.real / n2)[:, None]
    b_t = (proj.imag / n2)[:, None]
    u_d = 0.9 * u_max

    arc1 = R.STEER_EPSILONS / u_d
    t0, z0 = np.zeros((len(v_from), 1)), to_complex(v_from)[:, None]
    t1, z1 = detA0_rows(xi, arc1, t0, z0, u_d)
    t2, z2 = detA0_rows(xi, 2.0 * arc1, t1, z1, -u_d)
    _, z3 = detA0_rows(xi, arc1, t2, z2, u_d)
    rates1 = xi.conjugate() * dwell_rate(t1[0], xi)
    rates2 = xi.conjugate() * dwell_rate(t2[0], xi)
    sin1 = rates1.real / n2
    sin2 = rates2.real / n2
    w1 = rates1.imag / n2
    w2 = rates2.imag / n2
    w1 = np.where(w1 < 0.0, 0.0, w1)
    w2 = np.where(w2 < 0.0, 0.0, w2)
    usable = ~((sin1 <= 0.0) | (sin2 >= 0.0))
    if not usable.any():
        raise ValueError("degenerate steering has no usable dwell angle for this xi")
    arc1, sin1, sin2, w1, w2 = arc1[usable], sin1[usable], sin2[usable], w1[usable], w2[usable]
    arc = xi.conjugate() * (z3[:, usable] - z0)
    a_rem = a_t - arc.real / n2
    b_rem = b_t - arc.imag / n2
    det = sin1 * w2 - sin2 * w1

    with np.errstate(divide="ignore", invalid="ignore"):
        along1 = a_rem / sin1
        along2 = a_rem / sin2
        tau1 = (a_rem * w2 - sin2 * b_rem) / det
        tau2 = (sin1 * b_rem - a_rem * w1) / det
    back1 = tau1 < 0.0
    back2 = ~back1 & (tau2 < 0.0)
    tau1 = np.where(back2, np.where(along1 > 0.0, along1, 0.0), np.where(back1, 0.0, tau1))
    tau2 = np.where(back1, np.where(along2 > 0.0, along2, 0.0), np.where(back2, 0.0, tau2))

    segments = np.empty(tau1.shape + (5, 2))
    segments[..., 0] = np.stack(np.broadcast_arrays(arc1, tau1, 2.0 * arc1, tau2, arc1), -1)
    segments[..., 1] = (u_d, 0.0, -u_d, 0.0, u_d)
    still = step == 0.0
    if not np.isfinite(segments[~still]).all():
        raise ValueError("segment durations must be finite and >= 0")
    t_end, z_end = _endpoints(xi, segments, t0, z0)
    residuals = np.abs(z_end - to_complex(v_to)[:, None]) + angle_dist(t_end, 0.0)
    best = np.array([min(range(len(r)), key=r.__getitem__) for r in residuals.tolist()], dtype=int)
    rows = np.arange(len(best))
    segments, residuals = segments[rows, best], residuals[rows, best]
    ends = np.empty((len(best), 3))
    ends[:, 0] = t_end[rows, best]
    ends[:, 1:] = to_pairs(z_end[rows, best])
    segments[still] = 0.0
    ends[still] = 0.0
    ends[still, 1:] = v_from[still]
    residuals[still] = 0.0
    return segments, ends, residuals


def reference_draws(rng, umin, umax) -> tuple:
    """(u, duration) of the check's trajectories, one scalar rng.uniform call at a time."""
    u = np.empty((R.DEGENERATE_TRAJECTORIES, 6))
    dur = np.empty_like(u)
    for row in range(len(u)):
        for k in range(6):
            u[row, k] = rng.uniform(umin, umax) * (1.0 if rng.uniform() < 0.5 else -1.0)
            dur[row, k] = rng.uniform(0.1, 1.5)
    return u, dur


def reference_check(spec, seed: int = 0) -> tuple:
    """(report, u, dur, growth) of `reachability.degenerate_structure_check`, step by step.

    growth[row, k, j] is the growth of H over |xi|^2 from sample j - 1 to j
    of segment k (sample -1 is the segment's start), each sample flowed
    from the segment's start with `detA0_rows`; the report's
    min_functional_increment is its least value.
    """
    xi, u_max = _chart(spec)
    n2 = float(spec.xi @ spec.xi)
    rng = np.random.default_rng(seed)
    u, dur = reference_draws(rng, 0.05 * u_max, u_max)
    fractions = np.linspace(1.0 / 8.0, 1.0, 8)
    t, z, h_prev = np.zeros(len(u)), np.zeros(len(u), dtype=complex), np.zeros(len(u))
    growth = np.empty(u.shape + (8,))
    for k in range(u.shape[1]):
        tq, zq = detA0_rows(xi, dur[:, k, None] * fractions, t[:, None], z[:, None], u[:, k, None])
        h = (xi.conjugate() * zq).imag
        growth[:, k] = np.diff(h, prepend=h_prev[:, None]) / n2
        h_prev, t, z = h[:, -1], tq[:, -1], zq[:, -1]

    xin = xi / abs(xi)
    offsets = []
    for k in range(R.DEGENERATE_PAIRS):
        c = rng.uniform(0.3, 1.5) * (1.0 if k % 2 == 0 else -1.0)
        off_line = k % 4 >= 2
        d = rng.uniform(0.05, 0.5) * (1.0 if rng.uniform() < 0.5 else -1.0) if off_line else 0.0
        offsets.append((c, d))
    c, d = np.array(offsets, dtype=float).reshape(-1, 2).T
    v0 = np.zeros(2)
    _, end_f, res_f = reference_steer_batch(spec, v0, to_pairs(c * xin + d * (1j * xin)))
    p = end_f[:, 1:]
    _, _, res_r = reference_steer_batch(spec, p, v0)
    if not (np.isfinite(end_f).all() and np.isfinite(res_f).all() and np.isfinite(res_r).all()):
        raise ValueError("degenerate check: steering values are not finite")
    mutual = (res_f < R.PAIR_TOL) & (res_r < R.PAIR_TOL)
    functional = np.abs((xi.conjugate() * to_complex(p)).imag)
    angle_dev = angle_dist(end_f[:, 0], 0.0)
    off_line = np.arange(len(c)) % 4 >= 2
    bad = (functional >= R.LINE_TOL) | (angle_dev >= 1e-9)
    keys = ("target_along", "target_offset", "forward_residual", "reverse_residual",
            "mutual", "functional", "angle_deviation")
    columns = (c, d, res_f, res_r, mutual, functional, angle_dev)
    pairs = [dict(zip(keys, row)) for row in zip(*(col.tolist() for col in columns))]

    report = R.DegenerateReport(
        n_trajectories=R.DEGENERATE_TRAJECTORIES,
        min_functional_increment=float(growth.min()),
        pairs=pairs,
        n_mutual=int(mutual.sum()),
        counterexamples=int((mutual & bad).sum()),
        irreversible_confirmed=int((~mutual & off_line).sum()),
        seed=int(seed),
    )
    return report, u, dur, growth
