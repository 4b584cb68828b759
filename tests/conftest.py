"""Shared test fixtures and an independent fixed-step RK4 oracle.

The oracle integrates the raw right-hand sides directly (plain cos/sin
arithmetic, no calls into the package's flow or group code) so closed-form
results are checked against an implementation that shares nothing with them.
"""
import math

import numpy as np
import pytest


def reduced_field(lam, mu, eta, u):
    """The field v' = (A - u*theta) v + u*eta with A = ((lam,-mu),(mu,lam)),
    as a function of (v_x, v_y) on plain floats."""
    lam, nu = float(lam), float(mu - u)
    ex, ey = u * float(eta[0]), u * float(eta[1])
    return lambda x, y: (lam * x - nu * y + ex, nu * x + lam * y + ey)


def full_field(alpha, xi, lam, mu, eta1, u):
    """The field t' = alpha*u, v' = A v + (I - rho_t) theta xi + u rho_t eta1,
    as a function of (t, v_x, v_y) on plain floats."""
    alpha, lam, mu, u = float(alpha), float(lam), float(mu), float(u)
    tx, ty = -float(xi[1]), float(xi[0])
    ex, ey = float(eta1[0]), float(eta1[1])

    def field(t, x, y):
        c, s = math.cos(t), math.sin(t)
        return (
            alpha * u,
            (lam * x - mu * y) + (tx - (c * tx - s * ty)) + u * (c * ex - s * ey),
            (mu * x + lam * y) + (ty - (s * tx + c * ty)) + u * (s * ex + c * ey),
        )

    return field


def rk4(field, s, x0, step=1e-3):
    """Classical RK4 from 0 to s (s may be negative) with fixed step size.

    Runs on plain floats: field takes the coordinates as separate arguments
    and returns their rates.  Each coordinate is updated as
    x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4), with stage points x + (h/2) k,
    the sums numpy array arithmetic would form.  Two coordinates take an
    unrolled loop, as the planar checks run millions of steps.

    Three coordinates are a group state [t, v_x, v_y] whose angle turns at
    the constant rate field(...)[0]: step k starts at the angle
    t0 + k (h rate), as in the exact RK4 recurrence, rather than at a
    running sum, whose rounding drifts over long horizons.
    """
    x = [float(c) for c in x0]
    n = max(1, int(math.ceil(abs(s) / step)))
    h = s / n
    h2, h6 = 0.5 * h, h / 6.0
    if len(x) == 2:
        vx, vy = x
        for _ in range(n):
            k1x, k1y = field(vx, vy)
            k2x, k2y = field(vx + h2 * k1x, vy + h2 * k1y)
            k3x, k3y = field(vx + h2 * k2x, vy + h2 * k2y)
            k4x, k4y = field(vx + h * k3x, vy + h * k3y)
            vx = vx + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            vy = vy + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        return np.array([vx, vy])
    t0, dt = x[0], h * field(*x)[0]
    for k in range(n):
        x[0] = t0 + k * dt
        k1 = field(*x)
        k2 = field(*[a + h2 * b for a, b in zip(x, k1)])
        k3 = field(*[a + h2 * b for a, b in zip(x, k2)])
        k4 = field(*[a + h * b for a, b in zip(x, k3)])
        x = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    x[0] = t0 + n * dt
    return np.array(x)


def rk4_reduced(lam, mu, eta, s, v0, u, step=1e-3):
    return rk4(reduced_field(lam, mu, eta, u), s, v0, step)


def rk4_full(alpha, xi, lam, mu, eta1, s, state0, u, step=1e-3):
    return rk4(full_field(alpha, xi, lam, mu, eta1, u), s, state0, step)


def rk4_piecewise_reduced(lam, mu, eta, segments, v0, step=1e-3):
    v = np.asarray(v0, dtype=float)
    for dur, u in segments:
        v = rk4_reduced(lam, mu, eta, dur, v, u, step)
    return v


def angle_gap(a, b):
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
