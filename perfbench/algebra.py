"""The benchmark's own algebra for SE(2) control systems.

Nothing here imports the program.  Systems have drift (0, A v + Lambda_t xi)
with A = [[lam, -mu], [mu, lam]] and the controlled field (alpha, rho_t eta1).
When alpha != 0 and det A != 0 the translation part reduces to

    v' = (A - u theta) v + u eta~,   eta~ = A^{-1} xi + eta1 / alpha,

with the reduced control range alpha * omega.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

CASE_DEGENERATE = "DegenerateDetZero"
CASE_TRACE_ZERO = "ControllableTraceZero"
CASE_CLOSED = "ClosedBoundedControlSet"
CASE_OPEN = "OpenControlSet"
CASE_NOT_CLASSIFIED = "NotClassified"


def solve_a(lam: float, mu: float, w) -> tuple:
    """A^{-1} w for A = [[lam, -mu], [mu, lam]]."""
    det = lam * lam + mu * mu
    return ((lam * w[0] + mu * w[1]) / det, (-mu * w[0] + lam * w[1]) / det)


@dataclass
class System:
    alpha: float
    xi: tuple
    lam: float
    mu: float
    eta1: tuple
    omega: tuple

    def rank_condition(self) -> bool:
        """alpha != 0 and alpha xi + A eta1 != 0."""
        if self.alpha == 0.0:
            return False
        wx = self.alpha * self.xi[0] + self.lam * self.eta1[0] - self.mu * self.eta1[1]
        wy = self.alpha * self.xi[1] + self.mu * self.eta1[0] + self.lam * self.eta1[1]
        return wx != 0.0 or wy != 0.0

    def case(self) -> str:
        if not self.rank_condition():
            return CASE_NOT_CLASSIFIED
        if self.lam == 0.0 and self.mu == 0.0:
            return CASE_DEGENERATE
        if self.lam == 0.0:
            return CASE_TRACE_ZERO
        return CASE_CLOSED if self.lam < 0.0 else CASE_OPEN


def load_spec(path: str) -> System:
    with open(path) as fh:
        d = json.load(fh)
    return System(
        alpha=float(d["alpha"]),
        xi=tuple(float(x) for x in d["xi"]),
        lam=float(d["A"]["lambda"]),
        mu=float(d["A"]["mu"]),
        eta1=tuple(float(x) for x in d["eta1"]),
        omega=tuple(float(x) for x in d["omega"]),
    )


@dataclass
class Reduced:
    lam: float
    mu: float
    eta: tuple
    omega: tuple

    def eta_norm(self) -> float:
        return math.hypot(*self.eta)

    def ball_center(self) -> tuple:
        """-theta eta~."""
        return (self.eta[1], -self.eta[0])

    def ball_radius(self) -> float:
        return self.eta_norm() * math.sqrt(self.lam**2 + self.mu**2) / abs(self.lam)

    def equilibrium(self, u: float):
        """v(u) = -u A(u)^{-1} eta~, or None at the singular control."""
        nu = self.mu - u
        d = self.lam * self.lam + nu * nu
        if d == 0.0:
            return None
        ex, ey = self.eta
        # A(u)^{-1} = [[lam, nu], [-nu, lam]] / d
        return (-u * (self.lam * ex + nu * ey) / d, -u * (-nu * ex + self.lam * ey) / d)

    def flow(self, s: float, v, u: float) -> tuple:
        """Closed-form flow of v' = (A - u theta) v + u eta~ for time s."""
        vu = self.equilibrium(u)
        if vu is None:
            return (v[0] + s * u * self.eta[0], v[1] + s * u * self.eta[1])
        e = math.exp(s * self.lam)
        c, sn = math.cos(s * (self.mu - u)), math.sin(s * (self.mu - u))
        dx, dy = v[0] - vu[0], v[1] - vu[1]
        return (vu[0] + e * (c * dx - sn * dy), vu[1] + e * (sn * dx + c * dy))

    def plan_rho(self) -> float:
        """The planner's symmetric control bound, from its documented rule."""
        lo, hi = self.omega
        return min(0.9 * min(-lo, hi), 0.9 * abs(self.mu))

    def plan_center_gap(self) -> float:
        """Distance between the two alternating arc centres v(rho), v(-rho)."""
        rho = self.plan_rho()
        a, b = self.equilibrium(rho), self.equilibrium(-rho)
        return math.hypot(a[0] - b[0], a[1] - b[1])


def reduce(sysd: System) -> Reduced:
    ax = solve_a(sysd.lam, sysd.mu, sysd.xi)
    eta = (ax[0] + sysd.eta1[0] / sysd.alpha, ax[1] + sysd.eta1[1] / sysd.alpha)
    lo, hi = sorted((sysd.alpha * sysd.omega[0], sysd.alpha * sysd.omega[1]))
    return Reduced(sysd.lam, sysd.mu, eta, (lo, hi))


def control_grid(lo: float, hi: float, n: int) -> list:
    """n evenly spaced controls over [lo, hi] plus 0, sorted and distinct."""
    return sorted({float(u) for u in np.linspace(lo, hi, n)} | {0.0})


# ---------------------------------------------------------------------------
# RK4 of the raw group field
# ---------------------------------------------------------------------------


def group_field(sysd: System, x, u: float) -> tuple:
    """t' = alpha u,  v' = A v + (I - rho_t) theta xi + u rho_t eta1."""
    t, vx, vy = x
    c, s = math.cos(t), math.sin(t)
    txx, txy = -sysd.xi[1], sysd.xi[0]
    dx = sysd.lam * vx - sysd.mu * vy + txx - (c * txx - s * txy) + u * (c * sysd.eta1[0] - s * sysd.eta1[1])
    dy = sysd.mu * vx + sysd.lam * vy + txy - (s * txx + c * txy) + u * (s * sysd.eta1[0] + c * sysd.eta1[1])
    return (sysd.alpha * u, dx, dy)


def rk4_group(sysd: System, duration: float, x0, u: float, step: float = 1e-3) -> tuple:
    n = max(1, math.ceil(abs(duration) / step))
    h = duration / n
    x = tuple(x0)
    for _ in range(n):
        k1 = group_field(sysd, x, u)
        k2 = group_field(sysd, tuple(a + 0.5 * h * b for a, b in zip(x, k1)), u)
        k3 = group_field(sysd, tuple(a + 0.5 * h * b for a, b in zip(x, k2)), u)
        k4 = group_field(sysd, tuple(a + h * b for a, b in zip(x, k3)), u)
        x = tuple(a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + w) for a, p, q, r, w in zip(x, k1, k2, k3, k4))
    return x


def angle_gap(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


# ---------------------------------------------------------------------------
# Strict spiral bound, naive form at high precision
# ---------------------------------------------------------------------------


def sweep_s_values() -> list:
    """The bound sweep's s grid: 41 log-spaced values in [1e-3, 10] and their negatives."""
    s = np.geomspace(1e-3, 10.0, 41)
    return [float(x) for x in s] + [float(-x) for x in s]


def min_bound_margin(sigma: float, nus, s_values, dps: int = 50) -> float:
    """min over nu, s of (sigma^2+nu^2)/sigma^2 - f_naive(sigma, nu, s) in mpmath.

    f_naive = (1 - 2 e^{s sigma} cos(s nu) + e^{2 s sigma}) / (1 - e^{s sigma})^2.
    """
    with mpmath.workdps(dps):
        sg = mpmath.mpf(sigma)
        best = None
        for nu in nus:
            n = mpmath.mpf(nu)
            bound = 1 + (n / sg) ** 2
            for s in s_values:
                s = mpmath.mpf(s)
                e = mpmath.exp(s * sg)
                f = (1 - 2 * e * mpmath.cos(s * n) + e * e) / (1 - e) ** 2
                m = bound - f
                if best is None or m < best:
                    best = m
        return float(best)
