"""Core operations on the planar motion group S^1 x R^2.

The group element (t, v) acts on the plane by rotating with angle t and
translating by v; composition is the semidirect product

    (t1, v1) * (t2, v2) = (t1 + t2, v1 + rho(t1) v2),

where rho(t) is the rotation by t.  Angles are kept canonical in [0, 2*pi).

Inside the package a planar point is a complex number x + iy: rho(t) is
multiplication by e^{it} (:func:`cis`), theta by i, and a matrix commuting
with theta, [[lam, -mu], [mu, lam]], by lam + i mu.  At the API edge group
states travel as packed rows [t, v_x, v_y] of shape (..., 3), one state
being a row of shape (3,), and planar points as real pairs of shape (..., 2);
:func:`to_complex`, :func:`to_pairs`, :func:`as_packed` and
:func:`group_result` convert between the two.  The coordinate changes that
decouple a linear control system on this group act in
:func:`flow.flow_se2`, with their offsets prepared once in
:class:`system.Plant`.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi


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


def cis(t) -> np.ndarray:
    """e^{it} for angles t of shape (...), as an array of complex numbers.

    Its parts are np.cos(t) and np.sin(t) exactly.  Multiplying a point z
    by it, as ``z * cis(t)``, rotates z by t; the result is an array even
    for a float t, so one point goes through the same complex product as
    the rows of a batch.
    """
    t = np.asarray(t, dtype=float)
    z = np.empty(t.shape, dtype=complex)
    z.real, z.imag = np.cos(t), np.sin(t)
    return z


def unit_exponent(x):
    """The k that puts |x| 2^k in [1, 2) (1 for 0, inf and nan), elementwise; an int for a float."""
    return 1 - (math.frexp(x)[1] if np.ndim(x) == 0 else np.frexp(x)[1])


def scaled_norm(v, axis=None):
    """np.linalg.norm(v, axis=axis) of v scaled by the unit_exponent of each norm's largest entry.

    The scaling is exact: np.linalg.norm's bits where its squares are in range, inf only where the norm is."""
    k = unit_exponent(np.max(np.abs(v), axis=axis, keepdims=True))
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(v, k), axis=axis), -np.squeeze(k, axis))


def to_complex(v) -> np.ndarray:
    """Points given as real pairs, shape (..., 2), as complex numbers x + iy, shape (...).

    The result reads the same memory as v where v is already a C-contiguous
    float array, so callers do not write into it.
    """
    return np.ascontiguousarray(v, dtype=float).view(complex)[..., 0]


def to_pairs(z) -> np.ndarray:
    """Complex points, shape (...), as real pairs [x, y], shape (..., 2).

    The result reads the same memory as z where z is already a C-contiguous
    complex array, so callers do not write into it.
    """
    return np.asarray(z, dtype=complex, order="C")[..., None].view(float)


def as_packed(g) -> np.ndarray:
    """Packed states [t, v_x, v_y] of shape (..., 3), as a new array with canonical angles."""
    x = np.array(g, dtype=float)
    x[..., 0] = wrap_angle(x[..., 0])
    return x


def group_result(t, z) -> np.ndarray:
    """Pack angles t and complex translations z as rows [t, v_x, v_y] with canonical angles.

    `z` carries the full broadcast shape (...); `t` broadcasts to it.
    """
    v = to_pairs(z)
    x = np.empty(v.shape[:-1] + (3,))
    x[..., 0] = wrap_angle(t)
    x[..., 1:] = v
    return x
