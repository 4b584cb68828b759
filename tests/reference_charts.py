"""The decoupling charts as maps of packed group states on real 2x2 rotations, and flow_se2 composed from them.

The composition flows the reduced system lifted to S^1 x R^2
(`flow_product`) between the charts.

This is the composition that `flow.flow_se2` evaluated before it ran on a
prepared `system.Plant` and before its charts moved to complex numbers:
every call reduces the system, and each chart map packs its input, wraps
its angle and builds its result anew, rotating with real 2x2 matrices.  It
is the independent reference for the plant's complex charts, which reach
the same values by fewer operations; the tests hold the two within a
stated bound.

Each map takes packed states [t, v_x, v_y] of shape (..., 3), one state
being a row of shape (3,), and returns packed states of the same shape.
"""
import numpy as np

from se2control.flow import flow_detA0, flow_r2
from se2control.group import as_packed, group_result, to_complex
from se2control.system import ReducedSpec, reduce_system

# Rotation generator: THETA @ w rotates w by +90 degrees.
THETA = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation(t) -> np.ndarray:
    """Rotation matrices rho(t), shape (..., 2, 2); shape (2, 2) for a float."""
    c, s = np.cos(t), np.sin(t)
    out = np.empty(np.shape(c) + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def rotate(t, w) -> np.ndarray:
    """rho(t) w for angles t of shape (...) and vectors w of shape (..., 2), by matrix products."""
    return np.matmul(rotation(t), np.asarray(w, dtype=float)[..., None])[..., 0]


def perp(w) -> np.ndarray:
    """theta w: w, shape (..., 2), rotated by +90 degrees."""
    return np.asarray(w, dtype=float)[..., ::-1] * np.array([-1.0, 1.0])


def _pack(t, v):
    """group_result for translations v given as real pairs."""
    return group_result(t, to_complex(v))


def flow_product(rs: ReducedSpec, s, g, u):
    """Lifted flow on S^1 x R^2: the angle advances linearly, t + s u.

    `g` holds packed states of shape (..., 3); s and u are floats or arrays
    of shape (...).  The result holds packed states of the broadcast shape
    (..., 3).
    """
    x = as_packed(g)
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    return _pack(x[..., 0] + s * u, flow_r2(rs, s, x[..., 1:], u))


def lambda_map(t, w) -> np.ndarray:
    """Evaluate Lambda_t w = (I - rho(t)) theta w.

    This is the translation part of the linear drift generated by a pure
    rotation; it vanishes iff t = 0 (mod 2*pi).  Angles t of shape (...)
    and vectors w of shape (..., 2) broadcast.
    """
    tw = perp(w)
    return tw - rotate(t, tw)


def _require_commuting(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError("A must be a 2x2 matrix")
    if np.max(np.abs(A @ THETA - THETA @ A)) > 1e-12:
        raise ValueError("A must commute with the rotation generator")
    return A


def _offset_by(g, w, divisor: float):
    """(t, v + Lambda_t w / divisor) for packed states g."""
    x = as_packed(g)
    t = x[..., 0]
    return _pack(t, x[..., 1:] + lambda_map(t, w) / divisor)


def _rotated_by(g, sign: float):
    """(t, rho(sign * t) v) for packed states g."""
    x = as_packed(g)
    t = x[..., 0]
    return _pack(t, rotate(sign * t, x[..., 1:]))


def conj_psi1(A, xi, g):
    """First decoupling map psi1(t, v) = (t, v + Lambda_t A^{-1} xi); requires det A != 0."""
    A = _require_commuting(A)
    if not A.any():  # A = 0 is lam = mu = 0; det A can underflow for A != 0
        raise ValueError("conj_psi1 requires det A != 0")
    return _offset_by(g, np.linalg.solve(A, np.asarray(xi, float)), 1.0)


def conj_psi1_inv(A, xi, g):
    """Inverse of :func:`conj_psi1`."""
    A = _require_commuting(A)
    return _offset_by(g, np.linalg.solve(A, np.asarray(xi, float)), -1.0)


def conj_psi2(g):
    """Second decoupling map psi2(t, v) = (t, rho(-t) v)."""
    return _rotated_by(g, -1.0)


def conj_psi2_inv(g):
    """Inverse of :func:`conj_psi2`."""
    return _rotated_by(g, 1.0)


def conj_psi_zero(alpha: float, eta1, g):
    """Decoupling map for A = 0: (t, v - Lambda_t eta1 / alpha), so the invariant field becomes (alpha, 0)."""
    if alpha == 0.0:
        raise ValueError("conj_psi_zero requires alpha != 0")
    return _offset_by(g, np.asarray(eta1, float), -alpha)


def conj_psi_zero_inv(alpha: float, eta1, g):
    """Inverse of :func:`conj_psi_zero`."""
    if alpha == 0.0:
        raise ValueError("conj_psi_zero requires alpha != 0")
    return _offset_by(g, np.asarray(eta1, float), alpha)


def reference_flow_se2(spec, s, g, u):
    """flow_se2 as the chart composition, reducing the system on every call."""
    if spec.alpha == 0.0:
        raise ValueError("exact flow requires alpha != 0")
    ut = spec.alpha * np.asarray(u, dtype=float)
    if spec.a_is_zero:
        h = conj_psi_zero(spec.alpha, spec.eta1, g)
        return conj_psi_zero_inv(spec.alpha, spec.eta1, flow_detA0(spec, s, h, ut))
    rs = reduce_system(spec)
    h = conj_psi2(conj_psi1(spec.A, spec.xi, g))
    return conj_psi1_inv(spec.A, spec.xi, conj_psi2_inv(flow_product(rs, s, h, ut)))
