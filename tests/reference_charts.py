"""The decoupling charts as GroupElement-level maps, and flow_se2 composed from them.

The composition flows the reduced system lifted to S^1 x R^2
(`flow_product`) between the charts.

This is the composition that `flow.flow_se2` evaluated before it ran on a
prepared `system.Plant`: every call reduced the system, and each chart map
packed its input, wrapped its angle and built its result anew.  The plant
keeps this arithmetic op for op, so `reference_flow_se2` must equal
`flow_se2` bit for bit; the tests hold it to that.

Each map takes a GroupElement and returns one, or takes packed states of
shape (..., 3) and returns packed states of the same shape.
"""
import numpy as np

from se2control.flow import flow_detA0, flow_r2
from se2control.group import as_packed, commutes_with_theta, group_result, perp, rotate
from se2control.system import ReducedSpec, degenerate_chart, reduce_system


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
    if not commutes_with_theta(A):
        raise ValueError("A must commute with the rotation generator")
    return A


def _offset_by(g, w, divisor: float):
    """(t, v + Lambda_t w / divisor) for g a GroupElement or packed states."""
    x, element = as_packed(g)
    t = x[..., 0]
    return group_result(t, x[..., 1:] + lambda_map(t, w) / divisor, element)


def _rotated_by(g, sign: float):
    """(t, rho(sign * t) v) for g a GroupElement or packed states."""
    x, element = as_packed(g)
    t = x[..., 0]
    return group_result(t, rotate(sign * t, x[..., 1:]), element)


def conj_psi1(A, xi, g):
    """First decoupling map psi1(t, v) = (t, v + Lambda_t A^{-1} xi); requires det A != 0."""
    A = _require_commuting(A)
    if abs(np.linalg.det(A)) == 0.0:
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
    if spec.det() == 0.0:
        h = conj_psi_zero(spec.alpha, spec.eta1, g)
        return conj_psi_zero_inv(spec.alpha, spec.eta1, flow_detA0(degenerate_chart(spec), s, h, ut))
    rs = reduce_system(spec)
    h = conj_psi2(conj_psi1(spec.A, spec.xi, g))
    return conj_psi1_inv(spec.A, spec.xi, conj_psi2_inv(flow_product(rs, s, h, ut)))
