"""Equilibria geometry, the invariant ball, and the strict spiral bound.

For lam != 0 the equilibria v(u) = -u A(u)^{-1} eta, u in R, sweep a circle
with center -((mu/lam) eta + theta eta)/2 and radius
|eta| sqrt(mu^2 + lam^2) / (2 |lam|); as u -> +-infinity they approach
-theta eta.  For lam = 0 they sweep the line R * theta eta with a pole at
u = mu.

The ball B centered at -theta eta with radius |eta| sqrt(lam^2 + mu^2)/|lam|
is invariant: flows with lam s < 0 map B strictly into its interior, and
flows with lam s > 0 strictly increase the distance to the center outside B.
Both facts rest on the strict bound f(sigma, nu, s) < (sigma^2+nu^2)/sigma^2,
that is f - 1 < (nu/sigma)^2, implemented here in a cancellation-free form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import equilibrium, flow_r2
from .group import cis, to_complex, to_pairs
from .system import ReducedSpec

# Samples per flow call in check_invariance.
FLOW_CHUNK = 2048


@dataclass
class Circle:
    """A centre and a radius: the circle of equilibria, or the invariant ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(2)
        self.radius = float(self.radius)

    def to_dict(self) -> dict:
        return {"center": [float(c) for c in self.center], "radius": float(self.radius)}


def circle_params(rs: ReducedSpec) -> Circle:
    """Circle swept by the equilibria v(u), u in R (requires lam != 0)."""
    if rs.lam == 0.0:
        raise ValueError("equilibria form a line when lam = 0, not a circle")
    eta = complex(*rs.eta)
    center = -0.5 * ((rs.mu / rs.lam) * eta + 1j * eta)
    radius = 0.5 * np.sqrt((rs.mu**2 + rs.lam**2) / rs.lam**2) * float(
        np.linalg.norm(rs.eta)
    )
    return Circle(to_pairs(center), radius)


def invariant_ball(rs: ReducedSpec) -> Circle:
    """Invariant ball: center -theta eta, radius |eta| sqrt(lam^2+mu^2)/|lam|.

    Raises ValueError when lam^2 underflows, |eta|^2 overflows or the
    radius is not finite.
    """
    if rs.lam == 0.0:
        raise ValueError("the invariant ball requires lam != 0")
    lam2 = rs.lam**2
    with np.errstate(over="ignore"):
        length = float(np.linalg.norm(rs.eta))
    # Python floats: a quotient or product that overflows is inf, without a warning.
    radius = math.sqrt((lam2 + rs.mu**2) / lam2) * length if lam2 else math.inf
    if not math.isfinite(radius):
        raise ValueError("the invariant ball is out of range: lambda^2 underflows or the radius overflows")
    return Circle(to_pairs(-1j * complex(*rs.eta)), radius)


# ---------------------------------------------------------------------------
# Strict spiral bound
# ---------------------------------------------------------------------------


def chord_ratio(sigma, nu, s):
    """Spiral chord ratio f(sigma, nu, s) = (1 - 2 e^{s sigma} cos(s nu) + e^{2 s sigma}) / (1 - e^{s sigma})^2.

    Evaluated as 1 + :func:`chord_excess`.  Requires sigma != 0 and s != 0.
    Symmetric in nu -> -nu.
    """
    return 1.0 + chord_excess(sigma, nu, s)


def chord_excess(sigma, nu, s):
    """Excess g = f - 1 of :func:`chord_ratio`, without rounding at 1.

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


def check_invariance(
    rs: ReducedSpec,
    n_samples: int = 10_000,
    seed: int = 0,
    horizon: float = 2.0,
    margin_tol: float = 1e-12,
) -> InvarianceReport:
    """Monte Carlo check of the two strict invariance properties of the ball.

    Inward: w in B, lam*s < 0  =>  flow stays in the interior of B.
    Outward: w outside B, lam*s > 0  =>  |flow - center| > |w - center|.

    All sample parameters are drawn up front from one seeded generator, and
    the samples are flowed in batches; every sample's margin is the one its
    own one-row flow gives.
    Margins approach zero near u = mu with w near the boundary tangency
    point; the strict bound still holds everywhere except at w = v(u) itself.
    """
    if rs.lam == 0.0:
        raise ValueError("check_invariance requires lam != 0")
    n = int(n_samples)
    rng = np.random.default_rng(seed)
    ball = invariant_ball(rs)
    c, radius = complex(*ball.center), ball.radius
    lo, hi = rs.omega

    u = rng.uniform(lo, hi, size=2 * n)
    smag = rng.uniform(1e-3, horizon, size=2 * n)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
    rad_in = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    rad_out = radius * (1.0 + rng.uniform(1e-6, 1.0, size=n))

    tol = margin_tol * max(radius, 1.0)

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
        regular = rs.lam**2 + (rs.mu - uu) ** 2 != 0.0
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
