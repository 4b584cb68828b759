"""Equilibria circle geometry, the invariant ball and the spiral chord bound."""
import math
import warnings

import numpy as np
import pytest
from conftest import chord_ratio_limit
from reference_charts import perp

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_invariance import invariance_by_sample

from se2control import geometry as G
from se2control.flow import equilibrium, flow_r2
from se2control.geometry import check_invariance, chord_excess
from se2control.reachability import GridConfig, estimate_control_set
from se2control.system import Circle, ReducedSpec


def make_rs(lam=1.0, mu=0.0, eta=(1.0, 0.0), omega=(-1.0, 1.0)):
    return ReducedSpec(lam=lam, mu=mu, eta=np.asarray(eta, dtype=float), omega=omega)


# -- circle and ball -----------------------------------------------------


@pytest.mark.parametrize(
    "lam,mu,center,radius",
    [
        (1.0, 0.0, (0.0, -0.5), 0.5),
        (1.0, 2.0, (-1.0, -0.5), math.sqrt(5.0) / 2.0),
    ],
)
def test_circle_params_pinned(lam, mu, center, radius):
    c = make_rs(lam=lam, mu=mu).circle
    assert np.allclose(c.center, center, atol=1e-15)
    assert c.radius == pytest.approx(radius, abs=1e-15)


def test_circle_params_rejects_lam_zero():
    with pytest.raises(ValueError):
        make_rs(lam=0.0, mu=1.0).circle


@pytest.mark.parametrize("lam", [1e-160, 1e-170])
def test_circle_out_of_range_raises_what_the_ball_raises(lam):
    # (mu^2 + lam^2) / lam^2 overflows, or lam^2 underflows to 0: the circle
    # once had an infinite radius, or raised ZeroDivisionError.
    with pytest.raises(ValueError, match="^the invariant ball is out of range"):
        make_rs(lam=lam, mu=1.5).circle


def test_limit_point_on_circle(rng):
    for _ in range(20):
        lam = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        rs = make_rs(lam=lam, mu=rng.uniform(-3, 3), eta=rng.normal(size=2))
        c = rs.circle
        assert abs(np.linalg.norm(-perp(rs.eta) - c.center) - c.radius) < 1e-12


def test_invariant_ball_pinned():
    b = make_rs(lam=1.0, mu=0.0, eta=(1.0, 0.0)).ball
    assert np.allclose(b.center, [0.0, -1.0]) and b.radius == pytest.approx(1.0)


def test_geometry_is_computed_once_and_eta_is_read_only():
    rs = make_rs(lam=1.0, mu=2.0, eta=(0.6, -0.8))
    assert rs.length == 1.0 and rs.ball is rs.ball and rs.circle is rs.circle
    with pytest.raises(ValueError):
        rs.eta[0] = 2.0


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_an_overflowing_eta_raises_one_error_without_a_warning(lam):
    # |eta|^2 overflows: numpy once warned "overflow encountered in dot", and
    # the trace-zero estimate reported a disk radius of Infinity.
    rs = make_rs(lam=lam, mu=1.0, eta=(1e200, 0.0))
    cfg = GridConfig((-1.0, 1.0, -1.0, 1.0), 0.1, [-1.0, 0.0, 1.0], 0.05)
    if lam:
        reads = [lambda: rs.length, lambda: rs.ball, lambda: rs.circle]
    else:
        reads = [lambda: rs.length, lambda: estimate_control_set(rs, cfg)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in reads:
            with pytest.raises(ValueError, match=r"^\|eta\|\^2 overflows"):
                read()


def test_ball_contains_pinned_equilibrium():
    rs = make_rs(lam=1.0, mu=0.0, eta=(1.0, 0.0))
    v = equilibrium(rs, 1.0)
    assert np.allclose(v, [-0.5, -0.5])
    assert np.sum((v - rs.ball.center) ** 2) <= 1.0


def test_equilibria_circle_internally_tangent_to_ball(rng):
    for _ in range(20):
        lam = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        rs = make_rs(lam=lam, mu=rng.uniform(-3, 3), eta=rng.normal(size=2))
        c = rs.circle
        b = rs.ball
        gap = np.linalg.norm(np.asarray(c.center) - np.asarray(b.center))
        assert abs(gap + c.radius - b.radius) < 1e-9


def test_ball_identity_along_equilibria(rng):
    """|v(u) + theta eta|^2 (lam^2 + (mu-u)^2) = (lam^2 + mu^2)|eta|^2."""
    for _ in range(20):
        lam = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        mu = rng.uniform(-3, 3)
        eta = rng.normal(size=2)
        rs = make_rs(lam=lam, mu=mu, eta=eta)
        rhs = (lam**2 + mu**2) * float(eta @ eta)
        for u in rng.uniform(-10, 10, size=50):
            v = equilibrium(rs, u)
            lhs = float(np.sum((v + perp(eta)) ** 2)) * (lam**2 + (mu - u) ** 2)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# -- spiral chord bound --------------------------------------------------


def chord_ratio(sigma, nu, s):
    """The spiral chord ratio f = 1 + g, the excess g of chord_excess."""
    return 1.0 + chord_excess(sigma, nu, s)


def test_chord_ratio_pinned_value():
    val = chord_ratio(1.0, 1.0, 1.0)
    e = math.e
    naive = (1.0 - 2.0 * e * math.cos(1.0) + e * e) / (1.0 - e) ** 2
    assert val == pytest.approx(naive, rel=1e-12)
    assert val == pytest.approx(1.8465, abs=5e-4)
    assert val < 2.0


def test_chord_ratio_symmetries(rng):
    for _ in range(50):
        sig = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
        nu = rng.uniform(0.1, 5.0)
        s = rng.uniform(1e-3, 10.0) * rng.choice([-1.0, 1.0])
        assert chord_ratio(sig, nu, s) == chord_ratio(sig, -nu, s)


def test_chord_ratio_strictly_below_limit_dense():
    sig = np.geomspace(0.1, 10.0, 50)
    nu = np.geomspace(0.1, 10.0, 50)
    mags = np.geomspace(1e-3, 20.0, 100)
    s = np.concatenate([-mags[::-1], mags])
    sg, ng, ss = np.meshgrid(sig, nu, s, indexing="ij")
    vals = chord_ratio(sg, ng, ss)
    lim = chord_ratio_limit(sg, ng)
    margin = lim - vals
    assert np.all(margin > 0.0), f"min margin {margin.min()}"


def test_chord_ratio_small_s_approaches_limit(rng):
    for _ in range(50):
        sig = rng.uniform(0.1, 10.0)
        nu = rng.uniform(0.1, 10.0)
        assert abs(chord_ratio(sig, nu, 1e-6) - chord_ratio_limit(sig, nu)) < 1e-6


@pytest.mark.filterwarnings("error")
def test_chord_ratio_is_finite_where_the_exponential_overflows():
    # e^{s sigma} overflows past s sigma = 709.8; 4 e^{s sigma} from 708.4.
    s = np.array([-10.0, 1e-3, 3.0, 7.084, 7.1, 10.0, 20.0])
    vals = chord_ratio(100.0, 1.3, s)
    assert np.all(np.isfinite(vals)) and np.all(vals < chord_ratio_limit(100.0, 1.3))
    x = 100.0 * s
    with np.errstate(over="ignore", invalid="ignore"):
        old = 1.0 + 4.0 * np.exp(x) * np.sin(0.5 * s * 1.3) ** 2 / np.expm1(x) ** 2
    kept = np.isfinite(old)
    assert kept.tolist() == [True, True, True, False, False, False, False]
    assert vals[kept].tobytes() == old[kept].tobytes()
    sinh_form = 1.0 + (np.sin(0.5 * s[3:5] * 1.3) / np.sinh(0.5 * x[3:5])) ** 2
    assert vals[3:5] == pytest.approx(sinh_form, rel=1e-15)
    assert vals[5:].tolist() == [1.0, 1.0]


def test_chord_ratio_rejects_zero_arguments():
    with pytest.raises(ValueError):
        chord_ratio(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        chord_ratio(1.0, 1.0, 0.0)


# -- invariance ----------------------------------------------------------


def _touching_point(rs):
    """v(mu) in the ball's frame, (v(mu) - c)/R, through flow.equilibrium."""
    ball = rs.ball
    return (equilibrium(rs, rs.mu) - ball.center) / ball.radius


def _assert_certified(rs, touching):
    rep = check_invariance(rs, n_samples=1000, seed=7)
    assert rep.passed and rep.n_samples == 1000 and rep.mu_in_omega
    assert (rep.violations_inward, rep.violations_outward, rep.probe_violations) == (0, 0, 0)
    assert abs(rep.max_inward_velocity) <= 4 * 2.0**-52
    assert np.allclose(rep.touching_point, touching, rtol=0.0, atol=1e-15)
    assert np.allclose(rep.touching_point, _touching_point(rs), rtol=0.0, atol=1e-15)


def test_invariance_pinned_run():
    # v(0) = 0, c = (0, -1), R = 1.
    _assert_certified(make_rs(lam=1.0, mu=0.0), (0.0, 1.0))


def test_invariance_mirror_negative_lam():
    # v(mu) = (0.4, 0), c = (0, -1), R = sqrt(1.16); lam -> -lam, mu -> -mu,
    # Omega -> -Omega reverses time and keeps the ball and v(mu).
    touching = (0.4 / math.sqrt(1.16), 1.0 / math.sqrt(1.16))
    _assert_certified(make_rs(lam=-1.0, mu=0.4), touching)
    _assert_certified(make_rs(lam=1.0, mu=-0.4), touching)


@pytest.mark.parametrize("factor, violations", [(0.99, (78, 85)), (1.0 - 1e-6, (2, 0)), (1.01, (0, 0))])
def test_cross_check_fails_a_ball_that_is_too_small(factor, violations):
    # A concentric ball too small is not invariant: points near v(mu), on
    # its sphere and outside it, move outward in time direction sigma, by
    # about |lam| r (R - r') at radius r' = factor R.  One 1 % too large is
    # invariant.  The counts are those of seed 0.
    rs = make_rs(lam=-1.0, mu=0.4)
    true = rs.ball
    rs.__dict__["ball"] = Circle(true.center, factor * true.radius)
    rep = check_invariance(rs, n_samples=2000, seed=0)
    assert (rep.violations_inward, rep.violations_outward) == violations
    assert rep.passed is (factor > 1.0)
    assert (rep.max_inward_velocity > rep.tolerance) is (factor < 1.0)


def test_flow_probes_catch_a_flow_run_backward(monkeypatch):
    # Run backward, the probes' inward flows leave the ball and their
    # outward ones enter it.
    monkeypatch.setattr(G, "flow_r2", lambda rs, s, v, u: flow_r2(rs, -s, v, u))
    rep = check_invariance(make_rs(lam=-1.0, mu=0.4), n_samples=10, seed=0)
    assert rep.probe_violations == 16 and not rep.passed


@st.composite
def ball_specs(draw):
    """(a reduced spec with lam != 0, whether mu lies in Omega): rates 1e-100 to
    1e100 times O(1) values, lam of either sign and down to 1e-6 of them, and
    |eta| from 1e-100 to 1e100."""
    time = 10.0 ** draw(st.integers(-100, 100))
    length = 10.0 ** draw(st.integers(-100, 100))
    lam = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, 0.5))
    lo, hi = -draw(st.floats(0.01, 3.0)), draw(st.floats(0.01, 3.0))
    inside = draw(st.booleans())
    if inside:
        mu = draw(st.floats(lo, hi))
    else:
        mu = draw(st.sampled_from([lo - 1.0, hi + 1.0])) * draw(st.floats(1.0, 3.0))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    eta = length * draw(st.floats(0.1, 10.0)) * np.array([math.cos(angle), math.sin(angle)])
    return ReducedSpec(lam * time, mu * time, eta, (lo * time, hi * time)), inside


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(ball_specs())
def test_certificate_maximum_equals_the_largest_radial_velocity_on_10k_sphere_points(case):
    # Radial velocities formed from f(z, u) = (lam + i(mu - u)) z + u eta in
    # real arithmetic, in the units of R and T that the module docstring
    # defines, at 10^4 sphere points spaced evenly from v(mu), each with a
    # control drawn in Omega.  Their maximum, at v(mu), is the certificate's.
    rs, inside = case
    rep = check_invariance(rs, n_samples=200, seed=0)
    assert rep.passed and rep.mu_in_omega is inside
    assert np.allclose(rep.touching_point, _touching_point(rs), rtol=0.0, atol=1e-12)
    lo, hi = rs.omega
    k_len = 1 - math.frexp(rs.ball.radius)[1]
    k_time = 1 - math.frexp(max(abs(rs.lam), abs(rs.mu - lo), abs(rs.mu - hi)))[1]
    lam, mu, lo, hi = (math.ldexp(x, k_time) for x in (rs.lam, rs.mu, lo, hi))
    radius = math.ldexp(rs.ball.radius, k_len)
    ex, ey = np.ldexp(rs.eta, k_len)
    angle = math.atan2(rep.touching_point[1], rep.touching_point[0]) + np.arange(10_000) * (2.0 * math.pi / 10_000)
    dx, dy = radius * np.cos(angle), radius * np.sin(angle)
    zx, zy = ey + dx, -ex + dy
    u = np.random.default_rng(0).uniform(lo, hi, size=angle.size)
    fx = lam * zx - (mu - u) * zy + u * ex
    fy = lam * zy + (mu - u) * zx + u * ey
    inward = -math.copysign(1.0, lam) * (dx * fx + dy * fy)
    assert abs(np.max(inward) - rep.max_inward_velocity * abs(lam) * radius**2) <= rep.tolerance


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(ball_specs())
def test_oracle_finds_no_violation_where_the_certificate_passes(case):
    # The Monte Carlo, flowed sample by sample in units of T, with a margin
    # that allows rounding (-1e-10 R): strict growth of |lam| T R is below
    # rounding where |lam| T is small.
    rs, _ = case
    assert check_invariance(rs, n_samples=200, seed=1).passed
    v_in, v_out, m_in, m_out = invariance_by_sample(rs, 200, 1, margin_tol=-1e-10)
    assert (v_in, v_out) == (0, 0), (m_in, m_out)


def test_invariance_outward_growth_explicit(rng):
    """Outside the ball, |flow - center| grows strictly when lam*s > 0."""
    rs = make_rs(lam=1.0, mu=1.5, eta=(0.8, -0.6), omega=(-2.0, 2.0))
    b = rs.ball
    for _ in range(50):
        w = b.center + (b.radius * rng.uniform(1.01, 2.0)) * _unit(rng)
        u = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.01, 2.0)
        d0 = np.linalg.norm(w - b.center)
        d1 = np.linalg.norm(flow_r2(rs, s, w, u) - b.center)
        assert d1 > d0


def _unit(rng):
    a = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(a), math.sin(a)])
