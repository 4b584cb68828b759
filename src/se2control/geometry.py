"""The strict spiral bound, and the Monte Carlo check of the invariant ball.

The ball B = :attr:`system.ReducedSpec.ball`, centered at -theta eta with
radius |eta| sqrt(lam^2 + mu^2)/|lam|, is invariant: flows with lam s < 0
map B strictly into its interior, and flows with lam s > 0 strictly
increase the distance to the center outside B.
Both facts rest on the strict bound f(sigma, nu, s) < (sigma^2+nu^2)/sigma^2,
that is f - 1 < (nu/sigma)^2, implemented here in a cancellation-free form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import equilibrium, flow_r2
from .group import cis, to_complex
from .system import ReducedSpec

# Samples per flow call in check_invariance, the longest |s| it flows, and
# the margin, relative to max(radius, 1), below which a sample fails.
FLOW_CHUNK = 2048
INVARIANCE_HORIZON = 2.0
MARGIN_TOL = 1e-12


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
# Monte Carlo invariance check
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    """Result of :func:`check_invariance`; margins are distances to failure."""

    n_samples: int
    violations_inward: int
    violations_outward: int
    min_margin_inward: float
    min_margin_outward: float

    @property
    def passed(self) -> bool:
        return self.violations_inward == 0 and self.violations_outward == 0


def check_invariance(rs: ReducedSpec, n_samples: int, seed: int = 0) -> InvarianceReport:
    """Monte Carlo check of the two strict invariance properties of the ball.

    Inward: w in B, lam*s < 0  =>  flow stays in the interior of B.
    Outward: w outside B, lam*s > 0  =>  |flow - center| > |w - center|.

    All sample parameters are drawn up front from one seeded generator, and
    the samples are flowed in batches; every sample's margin is the one its
    own one-row flow gives.
    Margins approach zero near u = mu with w near the boundary tangency
    point; the strict bound still holds everywhere except at w = v(u) itself.
    Raises what reading ``rs.ball`` raises, lam = 0 included.
    """
    n = int(n_samples)
    rng = np.random.default_rng(seed)
    c, radius = complex(*rs.ball.center), rs.ball.radius
    lo, hi = rs.omega

    u = rng.uniform(lo, hi, size=2 * n)
    smag = rng.uniform(1e-3, INVARIANCE_HORIZON, size=2 * n)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
    rad_in = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    rad_out = radius * (1.0 + rng.uniform(1e-6, 1.0, size=n))

    tol = MARGIN_TOL * max(radius, 1.0)

    # Inward regime: lam * s < 0.  Outward regime: lam * s > 0, skipping
    # the measure-zero collision w = v(u).
    w_in = c + rad_in * cis(ang[:n])
    s_in = -np.sign(rs.lam) * smag[:n]
    w_out = c + rad_out * cis(ang[n:])
    s_out = np.sign(rs.lam) * smag[n:]
    u_in, u_out = u[:n], u[n:]
    # FLOW_CHUNK samples per flow call bound the temporary arrays; every row
    # flows as its own one-row call would, so the chunking changes no value.
    margin_in = np.empty(n)
    margin_out = np.empty(n)
    keep = np.ones(n, dtype=bool)
    for i in range(0, n, FLOW_CHUNK):
        part = slice(i, i + FLOW_CHUNK)
        margin_in[part] = radius - np.abs(flow_r2(rs, s_in[part], w_in[part], u_in[part]) - c)
        w, uu = w_out[part], u_out[part]
        regular = rs.det_a_of_u(uu) != 0.0
        keep[part][regular] = np.abs(w[regular] - to_complex(equilibrium(rs, uu[regular]))) > 1e-9 * radius
        margin_out[part] = np.abs(flow_r2(rs, s_out[part], w, uu) - c) - rad_out[part]
    margin_out = margin_out[keep]
    viol_in = int(np.sum(margin_in < tol))
    viol_out = int(np.sum(margin_out < tol))

    return InvarianceReport(
        n_samples=n,
        violations_inward=viol_in,
        violations_outward=viol_out,
        min_margin_inward=float(np.min(margin_in)) if n else np.inf,
        min_margin_outward=float(np.min(margin_out)) if np.any(keep) else np.inf,
    )
