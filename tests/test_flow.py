"""Closed-form flows against an independent integrator, plus flow algebra."""
import math

import numpy as np
import pytest

from conftest import angle_gap, rk4_full, rk4_piecewise_reduced, rk4_reduced
from reference_charts import flow_product

from se2control.flow import (
    PiecewiseControl,
    Trajectory,
    equilibrium,
    flow_concat,
    flow_detA0,
    flow_r2,
    flow_se2,
)
from se2control.system import ReducedSpec, SystemSpec, prepare


def make_rs(lam=1.0, mu=0.0, eta=(1.0, 0.0), omega=(-1.0, 1.0)):
    return ReducedSpec(lam=lam, mu=mu, eta=np.asarray(eta, dtype=float), omega=omega)


# -- equilibria ----------------------------------------------------------


def test_equilibrium_at_zero_control():
    assert np.array_equal(equilibrium(make_rs(), 0.0), np.zeros(2))


@pytest.mark.parametrize("mu", [2.225073858507e-311, 2.0**-997])
def test_the_singular_control_is_u_equal_to_mu_exactly(mu):
    # det A(0) = mu^2 once underflowed to 0 here: u = 0 counted as singular
    # and equilibrium raised, and at 2^-997 every control of Omega did.
    rs = make_rs(lam=0.0, mu=mu, eta=(1.0, 0.2))
    d, _ = rs.det_a_of_u([-1.0, 0.0, mu, 2.0 * mu, 1.0])
    assert (d == 0.0).tolist() == [False, False, True, False, False]
    v = equilibrium(rs, [0.0, 2.0 * mu])
    # v(u) = x i eta with x = u / (mu - u): 0 and -2 here.
    assert np.array_equal(v, [[0.0, 0.0], [0.4, -2.0]])
    with pytest.raises(ValueError, match="singular control"):
        equilibrium(rs, mu)


def test_equilibrium_pinned_values():
    assert np.allclose(equilibrium(make_rs(lam=1.0, mu=0.0), 1.0), [-0.5, -0.5], atol=1e-15)
    assert np.allclose(equilibrium(make_rs(lam=0.0, mu=1.0), 0.5), [0.0, 1.0], atol=1e-15)


def test_equilibrium_solves_linear_system(rng):
    for _ in range(50):
        lam, mu = rng.uniform(-3, 3, size=2)
        eta = rng.normal(size=2)
        u = rng.uniform(-2, 2)
        rs = make_rs(lam, mu, eta, (-2.0, 2.0))
        if rs.det_a_of_u(u)[0] == 0.0:
            continue
        v = equilibrium(rs, u)
        nu = mu - u
        res = np.array(
            [lam * v[0] - nu * v[1] + u * eta[0], nu * v[0] + lam * v[1] + u * eta[1]]
        )
        assert np.max(np.abs(res)) < 1e-12


def test_equilibrium_singular_raises():
    with pytest.raises(ValueError):
        equilibrium(make_rs(lam=0.0, mu=1.0), 1.0)


# -- planar flow ---------------------------------------------------------


def test_flow_r2_identity_at_zero_time(rng):
    rs = make_rs(0.7, -1.2, (0.3, 0.8))
    v = rng.normal(size=2)
    assert np.array_equal(flow_r2(rs, 0.0, v, 0.4), v)


def test_flow_r2_pure_exponential():
    out = flow_r2(make_rs(1.0, 0.0), math.log(2.0), np.array([1.0, 0.0]), 0.0)
    assert np.allclose(out, [2.0, 0.0], atol=1e-12)


def test_flow_r2_pure_rotation():
    out = flow_r2(make_rs(0.0, 1.0), math.pi / 2.0, np.array([1.0, 0.0]), 0.0)
    assert np.allclose(out, [0.0, 1.0], atol=1e-12)


def test_flow_r2_matches_integrator(rng):
    worst = 0.0
    for _ in range(60):
        lam, mu = rng.uniform(-2, 2, size=2)
        eta = rng.normal(size=2)
        rs = make_rs(lam, mu, eta, (-2.0, 2.0))
        u = rng.uniform(-2, 2)
        v0 = rng.normal(size=2)
        s = rng.uniform(-1.0, 1.0)
        got = flow_r2(rs, s, v0, u)
        ref = rk4_reduced(lam, mu, eta, s, v0, u)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-8


def test_flow_r2_singular_control_is_straight_line():
    rs = make_rs(0.0, 1.0, (0.4, -0.2))
    v0 = np.array([2.0, 3.0])
    got = flow_r2(rs, 1.7, v0, 1.0)
    assert np.allclose(got, v0 + 1.7 * 1.0 * rs.eta, atol=1e-14)
    ref = rk4_reduced(0.0, 1.0, rs.eta, 1.7, v0, 1.0)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_flow_r2_semigroup(rng):
    rs = make_rs(-0.8, 1.3, (1.0, 0.5), (-2.0, 2.0))
    for _ in range(40):
        v = rng.normal(size=2) * 2.0
        u = rng.uniform(-2, 2)
        s1, s2 = rng.uniform(-1.5, 1.5, size=2)
        once = flow_r2(rs, s1 + s2, v, u)
        twice = flow_r2(rs, s2, flow_r2(rs, s1, v, u), u)
        assert np.max(np.abs(once - twice)) < 1e-10


def test_flow_r2_fixes_equilibrium(rng):
    rs = make_rs(1.0, 2.0, (1.0, 0.0))
    for u in np.linspace(-1, 1, 9):
        vu = equilibrium(rs, u)
        for s in (-2.0, -0.3, 0.5, 3.0):
            assert np.max(np.abs(flow_r2(rs, s, vu, u) - vu)) < 1e-10


def test_flow_r2_contraction_envelope():
    """For lam > 0 the backward flow approaches v(u) exactly like e^{-s*lam}."""
    rs = make_rs(1.0, 2.0, (1.0, 0.0))
    u = 0.3
    vu = equilibrium(rs, u)
    v = np.array([1.5, -0.7])
    d0 = np.linalg.norm(v - vu)
    prev = np.inf
    for s in np.linspace(0.1, 4.0, 20):
        d = np.linalg.norm(flow_r2(rs, -s, v, u) - vu)
        assert abs(d - math.exp(-s * rs.lam) * d0) < 1e-10 * max(1.0, d0)
        assert d < prev
        prev = d


# -- product flow and degenerate chart flow ------------------------------


def test_flow_product_angle_rate():
    rs = make_rs(1.0, 2.0, (1.0, 0.0))
    g = np.array([0.25, 0.5, -0.5])
    out = flow_product(rs, 1.5, g, 0.5)
    assert angle_gap(out[0], 0.25 + 1.5 * 0.5) < 1e-12


def test_flow_product_equivariance(rng):
    rs = make_rs(0.6, -0.9, (0.8, 0.1))
    for _ in range(20):
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        v = rng.normal(size=2)
        u = rng.uniform(-1, 1)
        s = rng.uniform(-2, 2)
        a = flow_product(rs, s, np.array([t1 + t2, *v]), u)
        b = flow_product(rs, s, np.array([t2, *v]), u)
        assert angle_gap(a[0], t1 + b[0]) < 1e-12
        assert np.max(np.abs(a[1:] - b[1:])) < 1e-12


def make_degenerate(alpha=1.0, xi=(1.0, 0.0), eta1=(0.0, 0.0), omega=(-1.0, 1.0)):
    return SystemSpec(alpha, np.asarray(xi, dtype=float), np.zeros((2, 2)),
                      np.asarray(eta1, dtype=float), omega)


def test_flow_detA0_zero_control_fixes_zero_angle_fiber(rng):
    spec = make_degenerate()
    v = rng.normal(size=2)
    out = flow_detA0(spec, 2.5, np.array([0.0, *v]), 0.0)
    assert out[0] == 0.0
    assert np.max(np.abs(out[1:] - v)) < 1e-14


def test_flow_detA0_zero_control_at_pi():
    spec = make_degenerate(xi=(1.0, 0.0))
    out = flow_detA0(spec, 1.0, np.array([math.pi, 0.3, 0.4]), 0.0)
    assert angle_gap(out[0], math.pi) < 1e-15
    assert np.allclose(out[1:], [0.3, 2.4], atol=1e-12)


def test_flow_detA0_translation_equivariance(rng):
    spec = make_degenerate(xi=(0.7, -0.3))
    w = rng.normal(size=2)
    for u in (-0.8, 0.0, 0.5):
        a = flow_detA0(spec, 1.3, np.array([1.0, *(np.array([0.2, 0.9]) + w)]), u)
        b = flow_detA0(spec, 1.3, np.array([1.0, 0.2, 0.9]), u)
        assert np.max(np.abs(a[1:] - (b[1:] + w))) < 1e-12


def test_flow_detA0_matches_integrator(rng):
    spec = make_degenerate(xi=(0.9, -0.4))
    worst = 0.0
    for _ in range(30):
        g = np.array([rng.uniform(0, 2 * math.pi), *rng.normal(size=2)])
        u = rng.uniform(-1, 1)
        s = rng.uniform(-3, 3)
        out = flow_detA0(spec, s, g, u)
        ref = rk4_full(1.0, spec.xi, 0.0, 0.0, spec.eta1, s,
                       g, u)
        worst = max(worst, angle_gap(out[0], ref[0]),
                    float(np.max(np.abs(out[1:] - ref[1:]))))
    assert worst < 1e-8


def test_flow_se2_matches_integrator(rng):
    worst = 0.0
    for _ in range(30):
        lam, mu = rng.uniform(-1.5, 1.5, size=2)
        alpha = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        spec = SystemSpec(alpha, rng.normal(size=2),
                          np.array([[lam, -mu], [mu, lam]]),
                          rng.normal(size=2), (-1.5, 1.5))
        g = np.array([rng.uniform(0, 2 * math.pi), *rng.normal(size=2)])
        u = rng.uniform(-1.5, 1.5)
        s = rng.uniform(-1.5, 1.5)
        out = flow_se2(prepare(spec), s, g, u)
        ref = rk4_full(alpha, spec.xi, lam, mu, spec.eta1, s,
                       g, u)
        worst = max(worst, angle_gap(out[0], ref[0]),
                    float(np.max(np.abs(out[1:] - ref[1:]))))
    assert worst < 1e-8


def test_flow_se2_rejects_alpha_zero():
    spec = SystemSpec(0.0, np.ones(2), np.eye(2), np.ones(2), (-1.0, 1.0))
    with pytest.raises(ValueError):
        flow_se2(prepare(spec), 1.0, np.zeros(3), 0.5)


def test_flow_se2_is_finite_where_det_A_or_the_reduced_range_underflows():
    # det A = lam^2 + mu^2 rounds to 0 although A != 0: A = 0 is tested as
    # lam = mu = 0, so that spec keeps the "psi" chart.  A = 0 with alpha *
    # omega rounding to 0 (no valid reduced range) takes the A = 0 chart.
    specs = {
        "psi": SystemSpec(1.0, [1.0, 0.5], [[1e-200, 0.0], [0.0, 1e-200]], [0.2, 0.1], (-1.0, 1.0)),
        "zero": SystemSpec(1e-170, [1.0, 0.5], np.zeros((2, 2)), [0.2, 0.1], (-1e-170, 1e-170)),
    }
    for chart, spec in specs.items():
        plant = prepare(spec)
        assert plant.chart == chart
        out = flow_se2(plant, 1.0, np.array([0.3, 0.1, 0.2]), 0.0)
        assert np.isfinite(out).all()


# -- piecewise controls --------------------------------------------------


def test_piecewise_control_validation():
    with pytest.raises(ValueError):
        PiecewiseControl([(-1.0, 0.5)])
    with pytest.raises(ValueError):
        PiecewiseControl([(1.0, float("nan"))])


def test_flow_concat_single_segment_matches_flow_r2():
    rs = make_rs(0.5, 1.5, (1.0, 0.0), (-2.0, 2.0))
    v0 = np.array([1.0, -2.0])
    traj = flow_concat(rs, PiecewiseControl([(1.2, 0.7)]), v0)
    assert np.max(np.abs(traj.states[-1] - flow_r2(rs, 1.2, v0, 0.7))) < 1e-14
    assert traj.times[0] == 0.0


def test_flow_concat_split_segment_endpoint_identical():
    rs = make_rs(-0.4, 0.9, (0.2, 1.0), (-2.0, 2.0))
    v0 = np.array([0.3, 0.4])
    one = flow_concat(rs, PiecewiseControl([(2.0, -0.6)]), v0).states[-1]
    two = flow_concat(rs, PiecewiseControl([(1.0, -0.6), (1.0, -0.6)]), v0).states[-1]
    assert np.max(np.abs(one - two)) < 1e-12


def test_flow_concat_bang_matches_integrator():
    rs = make_rs(0.3, 1.1, (1.0, 0.5), (-2.0, 2.0))
    v0 = np.array([-1.0, 2.0])
    segs = [(0.8, 1.5), (1.1, -1.5)]
    traj = flow_concat(rs, PiecewiseControl(segs), v0)
    ref = rk4_piecewise_reduced(rs.lam, rs.mu, rs.eta, segs, v0)
    assert np.max(np.abs(traj.states[-1] - ref)) < 1e-8


def test_flow_concat_times_strictly_increasing():
    rs = make_rs(0.3, 1.1, (1.0, 0.5), (-2.0, 2.0))
    traj = flow_concat(rs, PiecewiseControl([(0.5, 0.2), (0.25, -0.9)]), np.zeros(2))
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.controls.shape == traj.times.shape


def test_flow_concat_group_state_for_full_spec(rng):
    spec = SystemSpec(1.0, np.array([0.5, -0.3]),
                      np.array([[-0.4, -1.1], [1.1, -0.4]]),
                      np.array([0.2, 0.7]), (-1.0, 1.5))
    segs = [(0.6, 0.8), (0.9, -0.5)]
    traj = flow_concat(prepare(spec), PiecewiseControl(segs), np.array([1.1, 0.4, -0.8]))
    assert traj.kind == "group"
    state = np.array([1.1, 0.4, -0.8])
    for dur, u in segs:
        state = rk4_full(1.0, spec.xi, -0.4, 1.1, spec.eta1, dur, state, u)
    assert angle_gap(traj.states[-1][0], state[0]) < 1e-8
    assert np.max(np.abs(traj.states[-1][1:] - state[1:])) < 1e-8
