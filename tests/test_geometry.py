"""Equilibria circle geometry, the invariant ball and the spiral chord bound."""
import math
import warnings

import numpy as np
import pytest
from conftest import chord_ratio_limit
from reference_charts import perp

from se2control import geometry as G
from se2control.flow import equilibrium, flow_r2
from se2control.geometry import check_invariance, chord_excess
from se2control.reachability import GridConfig, estimate_control_set
from se2control.system import ReducedSpec


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


def test_invariance_pinned_run(monkeypatch):
    monkeypatch.setattr(G, "INVARIANCE_HORIZON", 3.0)
    rep = check_invariance(make_rs(lam=1.0, mu=0.0), n_samples=1000, seed=7)
    assert rep.violations_inward == 0
    assert rep.violations_outward == 0
    assert rep.passed


def test_invariance_mirror_negative_lam(monkeypatch):
    monkeypatch.setattr(G, "INVARIANCE_HORIZON", 3.0)
    rep = check_invariance(make_rs(lam=-1.0, mu=0.4), n_samples=1000, seed=7)
    assert rep.violations_inward == 0 and rep.violations_outward == 0


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
