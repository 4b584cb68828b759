"""The strict spiral bound, and the certificate of the invariant ball.

The ball B = :attr:`system.ReducedSpec.ball` has centre c = -i eta and
radius R = |eta| sqrt(lam^2 + mu^2)/|lam|.  Its invariance follows from one
identity.  Write f(z, u) = (lam + i(mu - u)) z + u eta for the reduced
field, d = z - c for a point's offset from the centre, and
K = -i(lam + i mu) eta.  Since (lam + i(mu - u)) c + u eta = -i lam eta +
(mu - u) eta + u eta = K,

    f(z, u) = (lam + i(mu - u)) d + K,    |K| = |lam + i mu| |eta| = |lam| R,

and K does not depend on u.  The rotation i(mu - u) d is orthogonal to d, so

    Re(conj(d) f) = lam |d|^2 + Re(conj(d) K).

Let sigma = -sign lam, the direction of time in which lam s < 0.  At
|d| = r, Re(conj(d) K) lies within r |K| of 0, so the radial velocity in
that direction satisfies, for every u in R,

    sigma Re(conj(d) f) = -|lam| r^2 + sigma Re(conj(d) K) <= -|lam| r (r - R).

On the sphere (r = R) this is <= 0, with equality only at d = sigma R K/|K|,
that is at z = v(mu) = -(mu/lam) eta, where the circle of equilibria touches
the sphere.  By Nagumo's theorem B is then invariant, in time direction
sigma, under every measurable control.  Outside it (r > R) the radial
velocity in the other direction is at least |lam| r (r - R) > 0, so there
the distance to c grows strictly.  These are the two properties that a
Monte Carlo of constant-control flows samples.

:func:`check_invariance` reports the certificate and checks it.  Every
quantity is formed in units of R_u, the largest power of two not above R,
and of T_u = 1/2^k, where 2^k is the largest power of two not above
max(|lam|, |mu - u-|, |mu - u+|) = 1/T: points are z / R_u, times t / T_u,
and the rates lam, mu and the controls Omega are multiplied by T_u.  In
these units R and the largest rate lie in [1, 2), so |lam| R^2 neither
overflows nor underflows, and power-of-two translation and time scalings
of a system give the same numbers and the same report bit for bit.

Rounding bound.  In units, |lam|, |mu - u| < 2, R < 2, |eta| <= R, the
points have |d| < 2R < 4 and |z| < 6, and |u eta| <= R (|lam| + |mu - u|)
< 8.  A radial velocity dx fx + dy fy formed from f in real arithmetic
then carries under 2^-41 of rounding, the drawn point's own rounding
included.  A constant-control flow from the sphere over at most one unit
of time carries under 1e-13 * 4 * e^2 < 2^-37 (the flow's bound in
tests/test_flow_batch.py), as its start and every v(u) lie within 2R < 4
of the origin.  A value that breaks the certificate by more than 2^-36
counts as a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import flow_r2
from .group import TWO_PI, cis, unit_exponent
from .system import ReducedSpec

# Cross-check points per block in check_invariance: each block forms arrays
# of 2 * BLOCK values, whatever the number of samples.
BLOCK = 2048


# ---------------------------------------------------------------------------
# Strict spiral bound
# ---------------------------------------------------------------------------


def chord_excess(sigma, nu, s):
    """Excess g = f - 1 of the spiral chord ratio, without rounding at 1.

    The ratio is f(sigma, nu, s) = (1 - 2 e^{s sigma} cos(s nu) +
    e^{2 s sigma}) / (1 - e^{s sigma})^2, symmetric in nu -> -nu.

    Evaluated in the cancellation-free form 4 e^{s sigma} sin(s nu / 2)^2 /
    expm1(s sigma)^2, which is exact algebraically and keeps the strict bound
    g < (nu/sigma)^2 resolvable in float64 down to |s| ~ 1e-3 (the naive form
    loses it to roundoff), and for any sigma / |nu| (1 + g would round to 1
    once that ratio passes about 1e8).  Rows where that form is not finite
    (e^{s sigma} or its products overflow) take the equal
    (sin(s nu / 2) / sinh(s sigma / 2))^2.  Requires sigma != 0 and s != 0.
    """
    sigma = np.asarray(sigma, dtype=float)
    nu = np.asarray(nu, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(sigma == 0.0):
        raise ValueError("the chord ratio requires sigma != 0")
    if np.any(s == 0.0):
        raise ValueError("the chord ratio requires s != 0")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        em = np.expm1(s * sigma)
        out = 4.0 * np.exp(s * sigma) * np.sin(0.5 * s * nu) ** 2 / em**2
        bad = ~np.isfinite(out)
        if bad.any():
            alt = (np.sin(0.5 * s * nu) / np.sinh(0.5 * (s * sigma))) ** 2
            out = np.where(bad, alt, out)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Invariance certificate
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    """Result of :func:`check_invariance`; `touching_point` is (v(mu) - c)/R."""

    n_samples: int
    max_inward_velocity: float
    touching_point: tuple
    mu_in_omega: bool
    violations_inward: int
    violations_outward: int
    probe_violations: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.max_inward_velocity <= self.tolerance
            and self.violations_inward == 0
            and self.violations_outward == 0
            and self.probe_violations == 0
        )


def check_invariance(rs: ReducedSpec, n_samples: int, seed: int = 0) -> InvarianceReport:
    """The ball's invariance certificate, cross-checked and probed.

    (a) The certificate: the largest radial velocity on the sphere in time
    direction sigma, over every point and control, relative to |lam| R^2,
    which is |K|/(|lam| R) - 1 = 0 up to rounding; the touching point v(mu);
    and whether mu lies in Omega.  (b) The radial velocity in time direction
    sigma, formed from f, plus |lam| r (r - R), which the certificate holds
    at or below 0: at n_samples points of the sphere (violations_inward) and
    n_samples points at R <= r < 2R (violations_outward), each with a control
    drawn in Omega, BLOCK points of each kind at a time.  (c) Eight sphere
    points flowed with flow_r2 for 1/8 to 1 unit of T, once in each time
    direction: inward they stay in B, outward outside its interior.  Every
    count is against `tolerance`, in units of R and T.  Raises what reading
    ``rs.ball`` raises, lam = 0 included.
    """
    n = int(n_samples)
    radius = rs.ball.radius
    lo, hi = rs.omega
    k_len = unit_exponent(radius)
    k_time = unit_exponent(max(abs(rs.lam), abs(rs.mu - lo), abs(rs.mu - hi)))
    unit = ReducedSpec(math.ldexp(rs.lam, k_time), math.ldexp(rs.mu, k_time), np.ldexp(rs.eta, k_len),
                       (math.ldexp(lo, k_time), math.ldexp(hi, k_time)))
    radius = math.ldexp(radius, k_len)
    lam, mu, (lo, hi) = unit.lam, unit.mu, unit.omega
    ex, ey = unit.eta.tolist()
    cx, cy = ey, -ex  # c = -i eta
    sigma = -math.copysign(1.0, lam)
    tol = 2.0**-36  # the rounding bound of the module docstring

    # (a) The certificate: K = -i (lam + i mu) eta, and v(mu) = c + sigma R K/|K|.
    big_k = -1j * complex(lam, mu) * complex(ex, ey)
    touch = sigma * big_k / abs(big_k)

    # (b) The cross-check: rows [:m] on the sphere, rows [m:] outside it.
    # sigma f is formed as f with sigma lam, sigma mu, sigma u: a sign flip
    # is exact, so this is the product sigma * f bit for bit.
    s_lam, s_mu, s_lo, s_width = sigma * lam, sigma * mu, sigma * lo, sigma * (hi - lo)
    viol_in = viol_out = 0
    rng = np.random.default_rng(seed)
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        # Directions from the square [-1/2, 1/2]^2; controls drawn in Omega.
        x = rng.random(2 * m) - 0.5
        y = rng.random(2 * m) - 0.5
        su = s_lo + s_width * rng.random(2 * m)
        r = np.full(2 * m, radius)
        r[m:] *= 1.0 + rng.random(m)
        scale = r / np.sqrt(x * x + y * y)
        dx, dy = x * scale, y * scale
        sq = s_mu - su
        zx, zy = cx + dx, cy + dy
        fx = s_lam * zx - sq * zy + su * ex
        fy = s_lam * zy + sq * zx + su * ey
        # sigma Re(conj(d) f) + |lam| r (r - R) <= 0; a NaN (a direction of
        # length 0) counts as a violation.
        bad = ~(dx * fx + dy * fy + abs(lam) * r * (r - radius) <= tol)
        viol_in += int(np.count_nonzero(bad[:m]))
        viol_out += int(np.count_nonzero(bad[m:]))

    # (c) Flow probes, rows [:8] in time direction sigma, rows [8:] against it.
    idx = np.arange(8)
    c = complex(cx, cy)
    z = c + radius * touch * cis(idx * (TWO_PI / 8))
    tau = sigma * np.ldexp(1.0, -(idx % 4))
    u = lo + (hi - lo) * idx / 7
    ends = flow_r2(unit, np.concatenate([tau, -tau]), np.tile(z, 2), np.tile(u, 2))
    gap = np.abs(ends - c) - radius
    probe_violations = int(np.count_nonzero(gap[:8] > tol) + np.count_nonzero(gap[8:] < -tol))

    return InvarianceReport(
        n_samples=n,
        max_inward_velocity=abs(big_k) / (abs(lam) * radius) - 1.0,
        touching_point=(touch.real, touch.imag),
        mu_in_omega=lo <= mu <= hi,
        violations_inward=viol_in,
        violations_outward=viol_out,
        probe_violations=probe_violations,
        tolerance=tol,
    )
