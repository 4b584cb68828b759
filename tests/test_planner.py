"""Periodic planner for the rotation-only case and its geometric helpers."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rk4_piecewise_reduced

from se2control.flow import equilibrium, flow_r2
from se2control import planner as P
from se2control.planner import arc_duration, plan_periodic, select_rho
from se2control.system import ReducedSpec


def make_rs(mu=1.0, eta=(1.0, 0.0), omega=(-2.0, 2.0)):
    return ReducedSpec(lam=0.0, mu=mu, eta=np.asarray(eta, dtype=float), omega=omega)


# -- helpers --------------------------------------------------------------


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
    assert sum(d for d, _ in res.control.segments) == 0.0 or len(res.control.segments) <= 1


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


def _largest_arc_count_in_budget():
    """Largest n whose plan, at most 2 n + 2 segments, fits MAX_GRID_BYTES."""
    rows = P.MAX_GRID_BYTES // P.BYTES_PER_SAMPLE
    return ((rows - 1) // P.SAMPLES_PER_SEGMENT - 2) // 2


class _Flowed(Exception):
    pass


@pytest.mark.parametrize("extra", [0, 1])
def test_plan_checks_its_byte_budget_before_any_flow(monkeypatch, extra):
    def refuse(rs, control, v0):
        raise _Flowed(len(control.segments))

    monkeypatch.setattr(P, "flow_concat", refuse)
    n = _largest_arc_count_in_budget() + extra
    rs = make_rs()  # rho = 0.5: centers v(0.5) = (0, 1) and v(-0.5) = (0, -1/3), gap 4/3
    gap = 4.0 / 3.0
    # Across the line from v(rho) at r0 = (n - 1/2) gap: arc n - 1 is the
    # first of radius r0 - k gap at most gap.
    v0 = equilibrium(rs, 0.5) + np.array([(n - 0.5) * gap, 0.0])
    if extra:
        with pytest.raises(ValueError, match=f"^plan from v0 = .* takes {n} arcs, .* over the 536870912-byte budget$"):
            plan_periodic(rs, v0, rho=0.5)
    else:
        with pytest.raises(_Flowed) as flowed:
            plan_periodic(rs, v0, rho=0.5)
        segments = flowed.value.args[0]
        assert segments == 2 * n + 2
        assert (segments * P.SAMPLES_PER_SEGMENT + 1) * P.BYTES_PER_SAMPLE <= P.MAX_GRID_BYTES


def test_plan_whose_centers_coincide_is_over_the_budget():
    # v(+-rho) = +-9e-451 (0, 1) underflow to 0: no arc shrinks the radius.
    # Once a RuntimeError after 100,000 arcs (0.4 s), now no arc is taken.
    rs = make_rs(eta=(1e-150, 0.0), omega=(-1e-300, 1e-300))
    with pytest.raises(ValueError, match=r"^plan from v0 = \(1.0, 0.0\) takes inf arcs, "):
        plan_periodic(rs, np.array([1.0, 0.0]))


def test_plan_from_the_line_beyond_the_far_center_takes_no_first_arc():
    # A v0 on the line of equilibria beyond v(-rho) is the first arc's end up
    # to rounding.  The phase between them, about +-1e-16, once kept a first
    # segment of about 1e-16 s whose complement on the way back cost almost
    # a full turn (303 of these 400 starts; at d = 0.1, 6 segments lasting
    # 21.38 s instead of 4 lasting 9.96 s).
    rs = ReducedSpec(0.0, 1.0, np.array([0.6, 0.8]), (-0.5, 0.5))
    rho = 0.45
    near, far = equilibrium(rs, rho), equilibrium(rs, -rho)
    out = (far - near) / np.linalg.norm(far - near)
    for d in 0.1 + 0.05 * np.arange(400):
        plan = plan_periodic(rs, far + d * out, rho)
        durations = [dur for dur, _ in plan.control.segments]
        assert len(plan.radii) == plan.diagnostics["arcs"] - 1
        # Each later arc and the final one: the arc and its complement.
        assert len(durations) == 2 * len(plan.radii) + 2 * (plan.u_final is not None)
        assert min(durations) > 1e-3
        assert plan.closure_error < 1e-12 and plan.origin_error < 1e-12


def test_plan_takes_no_final_arc_on_rounding_noise():
    # From a start of 1e-12 to 1e-9 nearly across the line of equilibria the
    # first arc ends at x+ + sigma r0, within rounding of |v(rho)| of the
    # origin.  An absolute 1e-15 max(1, |v0|) once read that rounding as a
    # waypoint off the origin in 86 of these 400 plans, and took a final arc
    # of radius under 2^-48 of the largest of |v0| and |v(+-rho)|, whose
    # complement cost almost a period.
    rng = np.random.default_rng(34)
    for _ in range(400):
        mu = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        eta = 10.0 ** rng.uniform(-3.0, 3.0) * np.array([math.cos(angle), math.sin(angle)])
        rs = make_rs(mu=mu, eta=eta, omega=(-(10.0 ** rng.uniform(-3.0, 3.0)), 10.0 ** rng.uniform(-3.0, 3.0)))
        length = 10.0 ** rng.uniform(-12.0, -9.0)
        phi = angle + rng.uniform(-1e-3, 1e-3)  # theta eta is at angle + pi/2
        v0 = length * np.array([math.cos(phi), math.sin(phi)])
        res = plan_periodic(rs, v0)
        reach = max(length, *(np.linalg.norm(equilibrium(rs, u)) for u in (res.rho, -res.rho)))
        assert res.u_final is None or res.final_radius > 2.0**-48 * reach
        assert res.origin_error <= 1e-10 and res.closure_error <= 1e-10


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.floats(1e-6, 1e6), st.floats(0.0, 2000.0), st.floats(0.0, 1.0), st.booleans())
def test_arc_count_is_one_past_the_first_radius_within_the_limit(gap, steps, frac, on_a_step):
    # r0 lands on limit + steps gap exactly (up to rounding) when on_a_step,
    # where the quotient rounds either way; the count equals a walk over the radii.
    limit = gap * (1.0 + frac)
    r0 = limit + (round(steps) if on_a_step else steps) * gap
    k = 0
    while r0 - k * gap > limit:
        k += 1
    assert P._arc_count(r0, gap, limit) == k + 1


def test_arc_count_without_a_gap():
    assert P._arc_count(1.0, 0.0, 1.0) == 1.0
    assert P._arc_count(1.0 + 2**-52, 0.0, 1.0) == math.inf


@st.composite
def trace_zero_starts(draw):
    """(mu, eta, omega, v0) over six decades of mu, |eta| and Omega.

    A generic start lies within about 20 center gaps of the origin, so the
    walk stays short; a tiny start (1e-12 to 1e-9) is nearly perpendicular
    to the line of equilibria.
    """
    decade = st.floats(-3.0, 3.0)
    mu = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(decade)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    eta = 10.0 ** draw(decade) * np.array([math.cos(angle), math.sin(angle)])
    omega = (-(10.0 ** draw(decade)), 10.0 ** draw(decade))
    if draw(st.booleans()):
        rs = make_rs(mu=mu, eta=eta, omega=omega)
        rho = select_rho(rs)
        gap = float(np.linalg.norm(equilibrium(rs, rho) - equilibrium(rs, -rho)))
        length = gap * 10.0 ** draw(st.floats(-3.0, 1.3))
        phi = draw(st.floats(0.0, 2.0 * math.pi))
    else:
        length = 10.0 ** draw(st.floats(-12.0, -9.0))
        phi = angle + draw(st.floats(-1e-3, 1e-3))  # theta eta is at angle + pi/2
    return mu, tuple(eta), omega, (length * math.cos(phi), length * math.sin(phi))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(trace_zero_starts())
# Once "no sign change" from the final-control search: a tiny start counted
# as on the line in any direction.
@example((-2.3802301519934312, (-0.00013395056121477694, 0.00013843868456247705),
          (-2.0223875535858733, 1.0091436389715749),
          (5.114840744684519e-11, -4.6717295884165883e-11)))
# Once an origin error of 1.35e-8 from the search's bisection tolerance.
@example((0.06462902096028544, (264.8244579820369, 1072.2779765523637),
          (-1.6117630599207997, 1.9202275734883731),
          (-0.0009062647909171422, -0.005530530486334658)))
# A start exactly perpendicular to the line and shorter than 1e-9.
@example((1.0, (0.0, -1.0), (-2.0, 2.0), (0.0, 1e-10)))
def test_plan_is_valid_on_trace_zero_systems(case):
    mu, eta, omega, v0 = case
    rs = make_rs(mu=mu, eta=eta, omega=omega)
    v0 = np.array(v0)
    res = plan_periodic(rs, v0)
    scale = max(1.0, float(np.linalg.norm(v0)))
    assert res.control.within(rs.omega)
    assert res.origin_error <= 1e-10 * scale and res.closure_error <= 1e-10 * scale
    if res.u_final is not None:
        assert abs(res.u_final) <= res.rho
        # The final circle about v(u_final) passes through v_N and the origin.
        vu = equilibrium(rs, res.u_final)
        gap = np.linalg.norm(vu) - np.linalg.norm(res.waypoints[-2] - vu)
        assert abs(gap) <= 1e-12 * scale
    # The closed form, checked segment by segment.  Bounds: each forward
    # segment flows its waypoint to the next within 1e-12 of the largest of
    # |v0| and |v(+-rho)|; every arc after the first lasts pi / |mu - u|
    # exactly; consecutive radii differ from center_gap by at most 2^-48
    # (radii[0] + center_gap).
    n = res.diagnostics["arcs"]
    skipped = n - len(res.radii)  # a first arc of no sweep has no segment
    assert skipped in (0, 1)
    reach = max(np.linalg.norm(v0), *(np.linalg.norm(equilibrium(rs, u)) for u in (res.rho, -res.rho)))
    forward = len(res.radii) + (res.u_final is not None)
    for j, (dur, u) in enumerate(res.control.segments[:forward]):
        start, end = res.waypoints[skipped + j], res.waypoints[skipped + j + 1]
        assert np.linalg.norm(flow_r2(rs, dur, start, u) - end) <= 1e-12 * reach
        if 0 < skipped + j < n:
            assert dur == math.pi / abs(rs.mu - u)
    if res.radii:
        steps = -np.diff(res.radii)
        assert np.all(np.abs(steps - res.center_gap) <= 2.0**-48 * (res.radii[0] + res.center_gap))


def test_plan_rejects_a_start_whose_length_overflows():
    # Once an empty plan with closure error 0, after a numpy overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="length is finite"):
            plan_periodic(make_rs(), np.array([1e155, 0.0]))


def test_plan_stops_with_a_value_error_when_theta_eta_overflows():
    # |theta eta|^2 overflows: once a numpy overflow warning and a zero line
    # direction, now rs.length's ValueError (exit 2) before any length is formed.
    rs = make_rs(eta=(1e160, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^\|eta\|\^2 overflows: the reduced system's geometry is out of range$"):
            plan_periodic(rs, np.array([1e100, 0.0]))


def test_plan_rejects_wrong_case():
    with pytest.raises(ValueError):
        plan_periodic(ReducedSpec(lam=1.0, mu=1.0, eta=np.array([1.0, 0.0]),
                                  omega=(-1.0, 1.0)), np.ones(2))
