"""Core operations on the planar motion group S^1 x R^2.

The group element (t, v) acts on the plane by rotating with angle t and
translating by v; composition is the semidirect product

    (t1, v1) * (t2, v2) = (t1 + t2, v1 + rho(t1) v2),

where rho(t) is the rotation by t.  Angles are kept canonical in [0, 2*pi).

The module also evaluates the two vector fields that make up a linear
control system on this group -- a linear field (0, A v + Lambda_t xi) and a
left-invariant field (alpha, rho(t) eta1) -- together with the coordinate
changes that decouple them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Rotation generator: theta @ w rotates w by +90 degrees.
THETA = np.array([[0.0, -1.0], [1.0, 0.0]])

COMMUTE_TOL = 1e-12


def wrap_angle(t):
    """Reduce an angle to the canonical interval [0, 2*pi).

    A float gives a float; an array of any shape is reduced elementwise.
    """
    w = np.remainder(t, TWO_PI)
    # The remainder can round up to the modulus itself (e.g. for -1e-20).
    w = np.where(w >= TWO_PI, w - TWO_PI, w)
    return float(w) if w.ndim == 0 else w


def angle_dist(a, b):
    """Distance between two angles on the circle (elementwise for arrays)."""
    d = np.abs(wrap_angle(a) - wrap_angle(b))
    return np.minimum(d, TWO_PI - d)


def rotation(t) -> np.ndarray:
    """Rotation matrix rho(t).

    Parameters
    ----------
    t : float or ndarray, shape (...)
        Rotation angle(s) in radians.

    Returns
    -------
    ndarray, shape (..., 2, 2)
        One C-contiguous matrix per angle; shape (2, 2) for a float.
    """
    c, s = np.cos(t), np.sin(t)
    out = np.empty(np.shape(c) + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def matvec(m, w) -> np.ndarray:
    """Row-wise product m @ w for m of shape (..., 2, 2) and w of shape (..., 2).

    Leading dimensions broadcast.  Every row goes through the same
    matrix-vector product as ``m[i] @ w[i]``, so a batch agrees bit for bit
    with one-row calls.
    """
    return np.matmul(m, np.asarray(w, dtype=float)[..., None])[..., 0]


def rotate(t, w) -> np.ndarray:
    """rho(t) w for angles t of shape (...) and vectors w of shape (..., 2)."""
    return matvec(rotation(t), w)


def dots(a, b) -> np.ndarray:
    """Row-wise dot products of a and b, shape (..., 2) -> (...), broadcast.

    Each value equals ``a[i] @ b[i]`` bit for bit: both go through the same
    vector dot product.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def norms(w) -> np.ndarray:
    """Euclidean norms of the rows of w, shape (..., 2) -> (...).

    Each value equals ``np.linalg.norm(w[i])`` bit for bit: both take the
    square root of the same dot product.
    """
    return np.sqrt(dots(w, w))


_PERP_SIGNS = np.array([-1.0, 1.0])


def perp(w) -> np.ndarray:
    """Rotate `w` by +90 degrees (theta @ w); w has shape (..., 2)."""
    return np.asarray(w, dtype=float)[..., ::-1] * _PERP_SIGNS


def lambda_map(t, w) -> np.ndarray:
    """Evaluate Lambda_t w = (I - rho(t)) theta w.

    This is the translation part of the linear drift generated by a pure
    rotation; it vanishes iff t = 0 (mod 2*pi).  Angles t of shape (...)
    and vectors w of shape (..., 2) broadcast.

    Examples
    --------
    >>> lambda_map(np.pi, [1.0, 0.0])
    array([0., 2.])
    """
    tw = perp(w)
    return tw - rotate(t, tw)


@dataclass
class GroupElement:
    """Element (t, v) of the planar motion group.

    Attributes
    ----------
    t : float
        Angle, canonicalized to [0, 2*pi).
    v : ndarray, shape (2,)
        Translation part.
    """

    t: float
    v: np.ndarray

    def __post_init__(self):
        self.t = wrap_angle(self.t)
        self.v = np.asarray(self.v, dtype=float).reshape(2).copy()

    def as_array(self) -> np.ndarray:
        """Pack as [t, v_x, v_y]."""
        return np.array([self.t, self.v[0], self.v[1]])


def as_packed(g):
    """Packed states [t, v_x, v_y] with canonical angles, and whether g was one GroupElement.

    `g` is a GroupElement (giving shape (3,)) or an array of shape (..., 3);
    the result is a new array.
    """
    if isinstance(g, GroupElement):
        return g.as_array(), True
    x = np.array(g, dtype=float)
    x[..., 0] = wrap_angle(x[..., 0])
    return x, False


def group_result(t, v, element: bool):
    """Pack (t, v) with canonical angles; a GroupElement for one row from one.

    `v` carries the full broadcast shape (..., 2); `t` broadcasts to (...).
    """
    if element and v.ndim == 1:
        return GroupElement(float(t), v)
    x = np.empty(v.shape[:-1] + (3,))
    x[..., 0] = wrap_angle(t)
    x[..., 1:] = v
    return x


def commutes_with_theta(A, tol: float = COMMUTE_TOL) -> bool:
    """Check A theta = theta A within `tol` (max-abs entrywise)."""
    A = np.asarray(A, dtype=float)
    return float(np.max(np.abs(A @ THETA - THETA @ A))) <= tol


def _require_commuting(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError("A must be a 2x2 matrix")
    if not commutes_with_theta(A):
        raise ValueError(
            "A must commute with the rotation generator "
            "(form [[lam, -mu], [mu, lam]])"
        )
    return A


# ---------------------------------------------------------------------------
# Coordinate changes decoupling the drift
# ---------------------------------------------------------------------------
#
# Each map takes a GroupElement and returns one, or takes packed states of
# shape (..., 3) and returns packed states of the same shape.


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
    """First decoupling map psi1(t, v) = (t, v + Lambda_t A^{-1} xi).

    Removes the Lambda_t xi drift term; requires det A != 0.
    """
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
    """Decoupling map for the A = 0 case: (t, v - Lambda_t eta1 / alpha).

    Conjugates the invariant field (alpha, rho(t) eta1) to (alpha, 0).
    """
    if alpha == 0.0:
        raise ValueError("conj_psi_zero requires alpha != 0")
    return _offset_by(g, np.asarray(eta1, float), -alpha)


def conj_psi_zero_inv(alpha: float, eta1, g):
    """Inverse of :func:`conj_psi_zero`."""
    if alpha == 0.0:
        raise ValueError("conj_psi_zero requires alpha != 0")
    return _offset_by(g, np.asarray(eta1, float), alpha)
