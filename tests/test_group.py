"""Group layer: rotations, the shear map and the conjugations."""
import math

import numpy as np
import pytest

from reference_charts import (
    conj_psi1,
    conj_psi1_inv,
    conj_psi2,
    conj_psi2_inv,
    conj_psi_zero,
    conj_psi_zero_inv,
    lambda_map,
)

from se2control.group import (
    GroupElement,
    angle_dist,
    commutes_with_theta,
    perp,
    rotation,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def test_wrap_angle_range(rng):
    ts = rng.uniform(-50.0, 50.0, size=200)
    for t in ts:
        w = wrap_angle(t)
        assert 0.0 <= w < TWO_PI
        assert abs(math.remainder(w - t, TWO_PI)) < 1e-9


def test_rotation_additivity(rng):
    for t1, t2 in rng.uniform(-10.0, 10.0, size=(50, 2)):
        lhs = rotation(t1 + t2)
        rhs = rotation(t1) @ rotation(t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_rotation_orthogonal(rng):
    for t in rng.uniform(0.0, TWO_PI, size=20):
        r = rotation(t)
        assert np.max(np.abs(r @ r.T - np.eye(2))) < 1e-14


def test_perp_quarter_turn():
    assert np.allclose(perp(np.array([1.0, 0.0])), [0.0, 1.0])
    assert np.allclose(perp(np.array([0.0, 1.0])), [-1.0, 0.0])


def test_lambda_map_positive_pairing(rng):
    """<lambda_map(t, xi), perp(xi)> = (1 - cos t)|xi|^2 >= 0, zero only at t = 0."""
    xi = np.array([0.7, -0.4])
    for t in rng.uniform(-10.0, 10.0, size=200):
        val = float(lambda_map(t, xi) @ perp(xi))
        assert val >= -1e-12
        if angle_dist(t, 0.0) > 1e-3:
            assert val > 0.0
    assert abs(float(lambda_map(0.0, xi) @ perp(xi))) < 1e-15


def test_lambda_map_at_pi():
    assert np.allclose(lambda_map(math.pi, np.array([1.0, 0.0])), [0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize(
    "mat,expected",
    [
        (np.array([[2.0, -3.0], [3.0, 2.0]]), True),
        (np.array([[1.0, 0.0], [0.0, 1.0]]), True),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), False),
        (np.array([[1.0, -2.0], [2.0, 1.5]]), False),
    ],
)
def test_commutes_with_theta(mat, expected):
    assert commutes_with_theta(mat) is expected


def test_psi2_examples():
    g = conj_psi2(GroupElement(0.0, np.array([0.3, -0.2])))
    assert g.t == 0.0 and np.allclose(g.v, [0.3, -0.2])
    g = conj_psi2(GroupElement(math.pi / 2, np.array([0.0, 1.0])))
    assert np.allclose(g.v, [1.0, 0.0], atol=1e-15)


def test_psi2_isometry(rng):
    for _ in range(20):
        g = GroupElement(rng.uniform(0, TWO_PI), rng.normal(size=2))
        assert abs(np.linalg.norm(conj_psi2(g).v) - np.linalg.norm(g.v)) < 1e-12


def test_psi_zero_examples():
    v = np.array([0.4, 0.9])
    g = conj_psi_zero(1.0, np.array([1.0, 0.0]), GroupElement(0.0, v))
    assert g.t == 0.0 and np.allclose(g.v, v)
    g = conj_psi_zero(1.0, np.array([1.0, 0.0]), GroupElement(math.pi, np.zeros(2)))
    assert np.allclose(g.v, [0.0, -2.0], atol=1e-12)


def test_psi_zero_requires_alpha():
    with pytest.raises(ValueError):
        conj_psi_zero(0.0, np.ones(2), GroupElement(0.0, np.zeros(2)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conjugation_round_trips(seed):
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=2)
    a_mat = rng.normal() * np.eye(2) + rng.normal() * np.array([[0.0, -1.0], [1.0, 0.0]])
    alpha = rng.normal() or 1.0
    for _ in range(10):
        g = GroupElement(rng.uniform(0, TWO_PI), rng.normal(size=2))
        h = conj_psi1_inv(a_mat, xi, conj_psi1(a_mat, xi, g))
        assert angle_dist(h.t, g.t) < 1e-12 and np.max(np.abs(h.v - g.v)) < 1e-10
        h = conj_psi2_inv(conj_psi2(g))
        assert angle_dist(h.t, g.t) < 1e-12 and np.max(np.abs(h.v - g.v)) < 1e-12
        h = conj_psi_zero_inv(alpha, xi, conj_psi_zero(alpha, xi, g))
        assert angle_dist(h.t, g.t) < 1e-12 and np.max(np.abs(h.v - g.v)) < 1e-10


def test_conjugations_on_packed_states_equal_row_calls(rng):
    xi, eta1 = rng.normal(size=2), rng.normal(size=2)
    a_mat = np.array([[0.4, -1.3], [1.3, 0.4]])
    alpha = -0.7
    x = np.column_stack([rng.uniform(-1.0, 8.0, 25), rng.normal(size=(25, 2))])
    maps = [
        lambda g: conj_psi1(a_mat, xi, g),
        lambda g: conj_psi1_inv(a_mat, xi, g),
        conj_psi2,
        conj_psi2_inv,
        lambda g: conj_psi_zero(alpha, eta1, g),
        lambda g: conj_psi_zero_inv(alpha, eta1, g),
    ]
    for chart in maps:
        batch = chart(x)
        assert batch.shape == (25, 3)
        for i in range(25):
            one = chart(GroupElement(x[i, 0], x[i, 1:]))
            assert isinstance(one, GroupElement)
            assert np.array_equal(batch[i], one.as_array())
    # The packed maps keep the arithmetic of their definitions.
    g = GroupElement(x[0, 0], x[0, 1:])
    assert np.array_equal(conj_psi1(a_mat, xi, g).v, g.v + lambda_map(g.t, np.linalg.solve(a_mat, xi)))
    assert np.array_equal(conj_psi_zero(alpha, eta1, g).v, g.v - lambda_map(g.t, eta1) / alpha)
    assert np.array_equal(conj_psi2(g).v, rotation(-g.t) @ g.v)


def test_angle_helpers_keep_float_for_float():
    assert type(wrap_angle(-1e-20)) is float and wrap_angle(-1e-20) < TWO_PI
    assert wrap_angle(-1.0) == -1.0 % TWO_PI
    assert angle_dist(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    assert np.array_equal(rotation(0.3), rotation(np.array([0.3]))[0])
