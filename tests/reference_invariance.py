"""The ball's invariance by Monte Carlo, each sample flowed by its own call.

`invariance_by_sample` draws 2n constant-control samples and flows each one
with a one-row `flow_r2` call.  Inward samples start in the ball at radius
R sqrt(U) and flow in time direction sigma = -sign lam, where B must map into
its own interior: a sample's margin is R - |flow - c|.  Outward samples
start at R (1 + U(1e-6, 1)) and flow the other way, where the distance to c
must grow: a margin is |flow - c| - |start - c|.  Every equilibrium v(u)
lies in B, so no outward start is one.

Times are U(1e-3, horizon) in units of T = 1/max(|lam|, |mu - u-|, |mu - u+|),
so no flow overflows whatever the system's time scale.  A sample fails
when its margin is below margin_tol * R.  A positive margin_tol asks for
strict invariance resolved above rounding, as this check did when it ran in
`verify`; a negative one allows rounding, which strict growth of about
|lam| T R falls below where |lam| T is tiny.

This is the claim that `geometry.check_invariance` certifies in closed form
for every control; the tests run it as an oracle against the certificate.
"""
import math

import numpy as np

from se2control.flow import flow_r2


def _length(w):
    """|w| for a real pair w: np.abs of x + iy."""
    return float(np.abs(complex(*w)))


def invariance_by_sample(rs, n, seed, horizon=2.0, margin_tol=1e-12) -> tuple:
    """(inward failures, outward failures, least inward margin, least outward margin), margins over R."""
    rng = np.random.default_rng(seed)
    ball = rs.ball
    c, radius = ball.center, ball.radius
    lo, hi = rs.omega
    period = 1.0 / max(abs(rs.lam), abs(rs.mu - lo), abs(rs.mu - hi))
    sigma = -math.copysign(1.0, rs.lam)
    u = rng.uniform(lo, hi, size=2 * n)
    smag = period * rng.uniform(1e-3, horizon, size=2 * n)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
    rad_in = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    rad_out = radius * (1.0 + rng.uniform(1e-6, 1.0, size=n))
    inward, outward = [], []
    for i in range(n):
        w = c + rad_in[i] * np.array([np.cos(ang[i]), np.sin(ang[i])])
        d = _length(flow_r2(rs, sigma * smag[i], w, u[i]) - c)
        inward.append((radius - d) / radius)
        j = n + i
        w = c + rad_out[i] * np.array([np.cos(ang[j]), np.sin(ang[j])])
        d = _length(flow_r2(rs, -sigma * smag[j], w, u[j]) - c)
        outward.append((d - rad_out[i]) / radius)
    return (sum(m < margin_tol for m in inward), sum(m < margin_tol for m in outward),
            min(inward), min(outward))
