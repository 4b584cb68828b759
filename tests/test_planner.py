"""Periodic planner for the rotation-only case and its geometric helpers."""
import math

import numpy as np
import pytest

from conftest import rk4_piecewise_reduced

from se2control.flow import equilibrium, flow_r2
from se2control.geometry import Circle
from se2control import planner as P
from se2control.planner import (
    arc_duration,
    circle_line_intersect,
    plan_periodic,
    select_rho,
)
from se2control.system import ReducedSpec


def make_rs(mu=1.0, eta=(1.0, 0.0), omega=(-2.0, 2.0)):
    return ReducedSpec(lam=0.0, mu=mu, eta=np.asarray(eta, dtype=float), omega=omega)


# -- helpers --------------------------------------------------------------


def test_circle_line_intersect_symmetric_pair():
    pts = circle_line_intersect(Circle(np.array([0.0, 2.0]), 1.5), [0.0, 1.0])
    assert len(pts) == 2
    assert np.allclose(pts[0], [0.0, 0.5]) and np.allclose(pts[1], [0.0, 3.5])


def test_circle_line_intersect_tangency():
    pts = circle_line_intersect(Circle(np.array([1.0, 0.0]), 1.0), [0.0, 1.0])
    assert len(pts) == 1
    assert np.allclose(pts[0], [0.0, 0.0], atol=1e-12)


def test_circle_line_intersect_miss():
    assert circle_line_intersect(Circle(np.array([2.0, 0.0]), 1.0), [0.0, 1.0]) == []


def test_circle_line_intersect_matches_brute_force(rng):
    for _ in range(50):
        c = Circle(rng.normal(size=2) * 2.0, rng.uniform(0.1, 3.0))
        d = rng.normal(size=2)
        if np.linalg.norm(d) < 1e-6:
            continue
        pts = circle_line_intersect(c, d)
        ts = np.linspace(-20.0, 20.0, 400001)
        line = ts[:, None] * (d / np.linalg.norm(d))[None, :]
        dist = np.abs(np.linalg.norm(line - np.asarray(c.center), axis=1) - c.radius)
        brute_hits = int(np.sum((dist[1:-1] < dist[:-2]) & (dist[1:-1] < dist[2:])
                                & (dist[1:-1] < 5e-4)))
        assert len(pts) in (brute_hits, 2) or brute_hits == 0 and len(pts) == 0
        for p in pts:
            assert abs(np.linalg.norm(p - np.asarray(c.center)) - c.radius) < 1e-9
            cross = p[0] * d[1] - p[1] * d[0]
            assert abs(cross) < 1e-9 * max(1.0, np.linalg.norm(p) * np.linalg.norm(d))


@pytest.mark.parametrize(
    "u,mu,angle,expected",
    [
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 1.0, math.pi, math.pi),
        (3.0, 1.0, -math.pi, math.pi / 2.0),
    ],
)
def test_arc_duration_values(u, mu, angle, expected):
    assert arc_duration(u, mu, angle) == pytest.approx(expected, abs=1e-15)


def test_arc_duration_sweeps_to_the_target_angle(rng):
    for _ in range(100):
        mu = rng.uniform(-3, 3)
        u = rng.uniform(-3, 3)
        if u == mu:
            continue
        angle = rng.uniform(-2 * math.pi, 2 * math.pi)
        s = arc_duration(u, mu, angle)
        assert s >= 0.0
        swept = s * (mu - u)
        gap = (swept - angle) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) < 1e-9


def test_arc_duration_rejects_zero_rate():
    with pytest.raises(ValueError):
        arc_duration(1.0, 1.0, 0.5)


def test_select_rho():
    assert select_rho(make_rs(mu=1.0, omega=(-2.0, 2.0))) == pytest.approx(0.9)
    assert select_rho(make_rs(mu=0.25, omega=(-2.0, 2.0))) == pytest.approx(0.225)
    with pytest.raises(ValueError):
        select_rho(ReducedSpec(lam=1.0, mu=1.0, eta=np.array([1.0, 0.0]), omega=(-1.0, 1.0)))


# -- planner --------------------------------------------------------------


def test_plan_trivial_at_origin():
    res = plan_periodic(make_rs(), np.zeros(2))
    assert res.closure_error == 0.0
    assert res.control.total_duration == 0.0 or len(res.control.segments) <= 1


def test_plan_pinned_example_radii():
    """mu=1, rho=0.5: alternating arcs shrink radii by exactly 4/3 per step."""
    res = plan_periodic(make_rs(), np.array([3.0, 3.0]), rho=0.5)
    assert res.closure_error < 1e-8
    diffs = np.diff(res.radii)
    assert np.allclose(diffs, -4.0 / 3.0, atol=1e-9)
    assert res.center_gap == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_plan_closes_and_visits_origin_batch(rng):
    rs = make_rs()
    for k in range(8):
        v0 = rng.uniform(-1.0, 1.0, size=2) * rng.uniform(0.5, 10.0)
        res = plan_periodic(rs, v0)
        assert res.closure_error < 1e-8
        assert res.origin_error < 1e-6 * max(1.0, np.linalg.norm(v0))
        assert res.control.within(rs.omega)
        assert all(u != rs.mu for _, u in res.control.segments)
        if len(res.radii) > 1:
            assert np.all(np.diff(res.radii) < 0.0)


def test_plan_endpoint_verified_by_closed_form_chain(rng):
    rs = make_rs()
    v0 = np.array([2.5, -1.25])
    res = plan_periodic(rs, v0)
    v = v0.copy()
    for dur, u in res.control.segments:
        v = flow_r2(rs, dur, v, u)
    assert np.linalg.norm(v - v0) < 1e-8


def test_plan_endpoint_verified_by_integrator():
    rs = make_rs()
    v0 = np.array([3.0, 3.0])
    res = plan_periodic(rs, v0, rho=0.5)
    segs = [s for s in res.control.segments if s[0] > 0.0]
    ref = rk4_piecewise_reduced(rs.lam, rs.mu, rs.eta, segs, v0)
    assert np.linalg.norm(ref - v0) < 1e-6


def test_plan_waypoints_start_at_v0_and_reach_origin():
    rs = make_rs()
    v0 = np.array([-4.0, 1.0])
    res = plan_periodic(rs, v0)
    assert np.allclose(res.waypoints[0], v0)
    assert np.linalg.norm(res.waypoints[-1]) < 1e-9 * max(1.0, np.linalg.norm(v0))


def test_plan_final_control_is_consistent():
    rs = make_rs()
    res = plan_periodic(rs, np.array([3.0, 3.0]), rho=0.5)
    u_n = res.u_final
    assert u_n is not None and abs(u_n) <= 0.5
    vn = res.waypoints[-2]
    vu = equilibrium(rs, u_n)
    # The final circle is centered at v(u_N) and passes through both v_N and 0.
    assert abs(np.linalg.norm(vu) - np.linalg.norm(np.asarray(vn) - vu)) < 1e-9


def test_final_control_scan_equals_one_row_calls():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rs = make_rs(mu=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0), eta=rng.normal(size=2))
        v_n = 2.0 * rng.normal(size=2)

        def g(u):
            vu = equilibrium(rs, u)
            return float(np.linalg.norm(vu)) - float(np.linalg.norm(v_n - vu))

        teta = np.array([-rs.eta[1], rs.eta[0]])
        x_n = float(v_n @ teta) / float(teta @ teta)
        scan = np.linspace(0.0, rs.mu * x_n / (1.0 + x_n), 257)
        vals = [g(u) for u in scan]
        flips = [k for k in range(256) if vals[k] * vals[k + 1] < 0.0 or vals[k + 1] == 0.0]
        if not flips:
            with pytest.raises(RuntimeError):
                P._final_control(rs, v_n)
            continue
        k = flips[0]
        u_star, iters = P._bisect(g, min(scan[k], scan[k + 1]), max(scan[k], scan[k + 1]))
        want = (u_star, {"roots_scanned": len(flips), "bisection_iterations": iters})
        assert P._final_control(rs, v_n) == want


def test_plan_respects_max_arcs():
    rs = make_rs()
    with pytest.raises(RuntimeError):
        plan_periodic(rs, np.array([300.0, 300.0]), rho=0.5, max_arcs=3)


def test_plan_rejects_wrong_case():
    with pytest.raises(ValueError):
        plan_periodic(ReducedSpec(lam=1.0, mu=1.0, eta=np.array([1.0, 0.0]),
                                  omega=(-1.0, 1.0)), np.ones(2))
