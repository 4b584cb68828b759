"""Batched flows: a 50-digit mpmath reference, rows equal to one-row calls, batched RK4.

Error bound against the mpmath reference, fixed before the flows broadcast:

    |float64 value - reference| <= 1e-13 * max(1, |v|, |v(u)|) * max(1, e^{lam s})

For flow_se2, v(u) is the reduced equilibrium v(alpha u), and |A^{-1} xi|
(the offset its charts add) and the result's norm join the max; for A = 0
there is no v(u) and it leaves the max.  Angles are compared on the circle
within 1e-13 * max(1, |t + s alpha u|).

Bound of the RK4 oracle against the stepwise RK4 of conftest.rk4_full: each
row within 1e-11 * max(1, |v|) in the state and 1e-12 * max(1, |t|) in the
angle, v and t the reference's endpoint.  It holds at DEFAULT_RK4_STEP and
|s| <= 3, and at step 0.05 and |s| <= 2000 (up to 4 * 10^4 steps): the
reference forms its angles as t0 + k h alpha u, as the oracle does, so its
rounding does not drift with the step count.  (On the expanding spec below,
at s = -421.3, -300 and -150, the relative state gap is 4.2e-16 to 1.6e-14;
with a running-sum angle it was 1.4e-13 to 2.5e-11.)
"""
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rk4_full
from reference_charts import flow_product

from se2control.flow import (
    DEFAULT_RK4_STEP,
    _exp,
    equilibrium,
    flow_detA0,
    flow_r2,
    flow_se2,
    rk4_oracle,
    rk4_oracle_batch,
)
from se2control.geometry import check_invariance, invariant_ball
from se2control.system import ReducedSpec, SystemSpec, matrix_from_lambda_mu, prepare, reduce_system

REL = 1e-13
RK4_V_REL = 1e-11
RK4_T_REL = 1e-12
# A control whose nu**2 is one bit apart when formed by pow (0-d) and by
# a multiply (array).
POW_SPEC, POW_U = ReducedSpec(-1.0, 2.0, (1.0, 0.0), (-1.0, 1.0)), -0.8874
mp = mpmath.mp.clone()
mp.dps = 50


def _mpf(x):
    return mp.mpf(float(x))


def _rot(t, w):
    c, s = mp.cos(t), mp.sin(t)
    return [c * w[0] - s * w[1], s * w[0] + c * w[1]]


def _lambda(t, w):
    """Lambda_t w = theta w - rho(t) theta w."""
    tw = [-w[1], w[0]]
    r = _rot(t, tw)
    return [tw[0] - r[0], tw[1] - r[1]]


def mp_equilibrium(lam, mu, eta, u):
    lam, mu, u = _mpf(lam), _mpf(mu), _mpf(u)
    ex, ey = _mpf(eta[0]), _mpf(eta[1])
    nu = mu - u
    f = -u / (lam**2 + nu**2)
    return [f * (lam * ex + nu * ey), f * (lam * ey - nu * ex)]


def mp_flow_r2(lam, mu, eta, s, v, u):
    s, u = _mpf(s), _mpf(u)
    v = [_mpf(v[0]), _mpf(v[1])]
    nu = _mpf(mu) - u
    if s == 0:
        return v
    if _mpf(lam) == 0 and nu == 0:
        return [v[0] + s * u * _mpf(eta[0]), v[1] + s * u * _mpf(eta[1])]
    vu = mp_equilibrium(lam, mu, eta, u)
    r = _rot(s * nu, [v[0] - vu[0], v[1] - vu[1]])
    e = mp.exp(s * _mpf(lam))
    return [e * r[0] + vu[0], e * r[1] + vu[1]]


def mp_flow_se2(spec, s, x, u):
    """Reference flow of the full system: the charts and closed forms in 50 digits."""
    t, v = _mpf(x[0]), [_mpf(x[1]), _mpf(x[2])]
    s, alpha = _mpf(s), _mpf(spec.alpha)
    ut = alpha * _mpf(u)
    xi = [_mpf(spec.xi[0]), _mpf(spec.xi[1])]
    eta1 = [_mpf(spec.eta1[0]), _mpf(spec.eta1[1])]
    lam, mu = _mpf(spec.lam), _mpf(spec.mu)
    if lam == 0 and mu == 0:
        off = _lambda(t, eta1)
        h = [v[0] - off[0] / alpha, v[1] - off[1] / alpha]
        if ut == 0:
            d = _lambda(t, xi)
            tf, hf = t, [h[0] + s * d[0], h[1] + s * d[1]]
        else:
            tf = t + s * ut
            txi = [-xi[1], xi[0]]
            r1, r0 = _rot(tf, txi), _rot(t, txi)
            w = [-(r1[1] - r0[1]) / ut, (r1[0] - r0[0]) / ut]
            hf = [h[0] + s * txi[0] + w[0], h[1] + s * txi[1] + w[1]]
        off = _lambda(tf, eta1)
        return tf, [hf[0] + off[0] / alpha, hf[1] + off[1] / alpha]
    det = lam**2 + mu**2
    a = [(lam * xi[0] + mu * xi[1]) / det, (-mu * xi[0] + lam * xi[1]) / det]
    eta = [(alpha * a[0] + eta1[0]) / alpha, (alpha * a[1] + eta1[1]) / alpha]
    off = _lambda(t, a)
    w = _rot(-t, [v[0] + off[0], v[1] + off[1]])
    tf = t + s * ut
    wf = mp_flow_r2(lam, mu, eta, s, w, ut)
    vf = _rot(tf, wf)
    off = _lambda(tf, a)
    return tf, [vf[0] - off[0], vf[1] - off[1]]


def _norm(w):
    return mp.sqrt(w[0] ** 2 + w[1] ** 2)


def _gap(got, want):
    return _norm([_mpf(got[0]) - want[0], _mpf(got[1]) - want[1]])


def _angle_gap(got, want):
    d = (_mpf(got) - want) % (2 * mp.pi)
    return min(d, 2 * mp.pi - d)


def _reduced_specs(rng):
    specs = []
    for lam in (1.3, -0.7, 0.0, 2.5, -2.0, 0.4):
        mu = rng.uniform(-2.0, 2.0)
        specs.append(ReducedSpec(lam, mu, rng.normal(size=2), (-2.0, 2.0)))
    return specs


def _full_specs(rng):
    specs = []
    for lam in (1.1, -0.6, 0.0, 0.3):
        mu = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        alpha = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        specs.append(SystemSpec(alpha, rng.normal(size=2), np.array([[lam, -mu], [mu, lam]]),
                                rng.normal(size=2), (-1.5, 1.5)))
    specs.append(SystemSpec(1.4, np.array([0.6, -0.3]), np.zeros((2, 2)),
                            np.array([0.2, 0.5]), (-1.0, 1.0)))
    return specs


# -- 50-digit reference --------------------------------------------------


def test_equilibrium_batch_matches_mpmath(rng):
    for rs in _reduced_specs(rng):
        u = rng.uniform(-2.0, 2.0, size=64)
        got = equilibrium(rs, u)
        assert got.shape == (64, 2)
        for i in range(64):
            want = mp_equilibrium(rs.lam, rs.mu, rs.eta, u[i])
            assert _gap(got[i], want) <= REL * max(1.0, _norm(want))


def test_flow_r2_batch_matches_mpmath(rng):
    for rs in _reduced_specs(rng):
        n = 64
        s = rng.uniform(-3.0, 3.0, size=n)
        v = rng.normal(size=(n, 2)) * 3.0
        u = rng.uniform(-2.0, 2.0, size=n)
        s[0] = 0.0
        if rs.lam == 0.0:
            u[1] = rs.mu  # the singular control: a straight line
        got = flow_r2(rs, s, v, u)
        assert got.shape == (n, 2)
        for i in range(n):
            want = mp_flow_r2(rs.lam, rs.mu, rs.eta, s[i], v[i], u[i])
            scale = max(1.0, float(np.linalg.norm(v[i])), math.exp(rs.lam * s[i]))
            if rs.det_a_of_u(u[i]) != 0.0:
                scale = max(scale, float(np.linalg.norm(equilibrium(rs, u[i]))))
            assert _gap(got[i], want) <= REL * scale * max(1.0, math.exp(rs.lam * s[i]))


def test_flow_se2_batch_matches_mpmath(rng):
    for spec in _full_specs(rng):
        n = 32
        x = np.column_stack([rng.uniform(0.0, 2 * np.pi, n), rng.normal(size=(n, 2)) * 2.0])
        s = rng.uniform(-2.0, 2.0, size=n)
        u = rng.uniform(-1.5, 1.5, size=n)
        u[0] = 0.0
        got = flow_se2(prepare(spec), s, x, u)
        assert got.shape == (n, 3)
        a = np.linalg.norm(np.linalg.solve(spec.A, spec.xi)) if spec.det() else 0.0
        for i in range(n):
            tf, vf = mp_flow_se2(spec, s[i], x[i], u[i])
            grow = max(1.0, math.exp(spec.lam * s[i]))
            ut = spec.alpha * u[i]
            reach = float(np.linalg.norm(equilibrium(reduce_system(spec), ut))) if spec.det() else 1.0
            scale = max(1.0, float(np.linalg.norm(x[i, 1:])), float(_norm(vf)), a, reach) * grow
            assert _angle_gap(got[i, 0], tf) <= REL * max(1.0, abs(float(tf)))
            assert _gap(got[i, 1:], vf) <= REL * scale


def test_flow_se2_small_controls_for_A_zero_match_mpmath():
    spec = _full_specs(np.random.default_rng(0))[-1]
    x = np.array([0.7, 0.3, -0.4])
    for ut in (1e-4, -1e-5, 1e-6, -1e-8):
        got = flow_se2(prepare(spec), 1.3, x, ut / spec.alpha)
        tf, vf = mp_flow_se2(spec, 1.3, x, ut / spec.alpha)
        scale = max(1.0, float(np.linalg.norm(x[1:])), float(_norm(vf)))
        assert _gap(got[1:], vf) <= REL * scale


# -- rows of a batch equal one-row calls ---------------------------------


def test_flow_r2_rows_equal_one_row_calls(rng):
    for rs in _reduced_specs(rng):
        s = rng.uniform(-3.0, 3.0, size=40)
        v = rng.normal(size=(40, 2))
        u = rng.uniform(-2.0, 2.0, size=40)
        s[3] = 0.0
        if rs.lam == 0.0:
            u[5] = rs.mu
        batch = flow_r2(rs, s, v, u)
        for i in range(40):
            assert np.array_equal(batch[i], flow_r2(rs, s[i], v[i], u[i]))
        # One start point under many times, as flow_concat calls it.
        fan = flow_r2(rs, s, v[0], u[0])
        for i in range(40):
            assert np.array_equal(fan[i], flow_r2(rs, s[i], v[0], u[0]))
    batch = flow_r2(POW_SPEC, [0.7, 1.3], [[0.2, -0.4], [1.0, 0.5]], [POW_U, 0.3])
    assert np.array_equal(batch[0], flow_r2(POW_SPEC, 0.7, [0.2, -0.4], POW_U))


def test_equilibrium_rows_equal_one_row_calls(rng):
    for rs in _reduced_specs(rng):
        u = rng.uniform(-2.0, 2.0, size=40)
        batch = equilibrium(rs, u)
        for i in range(40):
            assert np.array_equal(batch[i], equilibrium(rs, u[i]))
    assert np.array_equal(equilibrium(POW_SPEC, [POW_U, 0.3])[0], equilibrium(POW_SPEC, POW_U))


def test_group_flows_rows_equal_one_row_calls(rng):
    rs = ReducedSpec(0.7, -1.1, np.array([0.4, 0.9]), (-2.0, 2.0))
    chart = SystemSpec(1.0, np.array([0.8, -0.5]), np.zeros((2, 2)), np.zeros(2), (-1.0, 1.0))
    x = np.column_stack([rng.uniform(0.0, 2 * np.pi, 30), rng.normal(size=(30, 2))])
    s = rng.uniform(-2.0, 2.0, size=30)
    u = rng.uniform(-1.0, 1.0, size=30)
    u[:4] = 0.0
    cases = [(flow_product, rs)] + [(flow_detA0, chart)] + [(flow_se2, prepare(spec)) for spec in _full_specs(rng)]
    for flow, system in cases:
        batch = flow(system, s, x, u)
        for i in range(30):
            one = flow(system, s[i], x[i], u[i])
            assert np.array_equal(batch[i], one), flow.__name__


def _assert_rk4_within_bound(spec, s, x, u, step=DEFAULT_RK4_STEP):
    got = rk4_oracle_batch(spec, s, x, u, step)
    for i in range(len(got)):
        want = rk4_full(spec.alpha, spec.xi, spec.lam, spec.mu, spec.eta1, s[i], x[i], u[i], step)
        assert abs(got[i, 0] - want[0]) <= RK4_T_REL * max(1.0, abs(want[0]))
        assert float(_norm(got[i, 1:] - want[1:])) <= RK4_V_REL * max(1.0, float(_norm(want[1:])))


def test_rk4_batch_within_bound_of_stepwise_rk4(rng):
    # Open, closed, trace zero and A = 0; s = 0, backward and forward.
    for spec in _full_specs(rng):
        x = np.column_stack([rng.uniform(0.0, 2 * np.pi, 4), rng.normal(size=(4, 2))])
        s = np.array([0.0, -0.9, 0.35, 0.8])
        u = rng.uniform(-1.5, 1.5, size=4)
        if spec.lam == 0.0 and spec.mu != 0.0:
            u[3] = spec.mu / spec.alpha  # the reduced loop is singular
        _assert_rk4_within_bound(spec, s, x, u)


_coef = st.floats(1e-6, 10.0).flatmap(lambda m: st.sampled_from((0.0, m, -m)))


@st.composite
def _rk4_cases(draw):
    alpha, lam, mu = draw(_coef), draw(_coef), draw(_coef)
    u = draw(st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(("any", "A = 0", "trace zero", "singular control")))
    if kind != "any":
        lam = 0.0
    if kind == "A = 0":
        mu = 0.0
    if kind == "singular control" and alpha != 0.0:
        u = mu / alpha
    spec = SystemSpec(alpha, [draw(_coef), draw(_coef)], matrix_from_lambda_mu(lam, mu),
                      [draw(_coef), draw(_coef)])
    x = [draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))]
    return spec, draw(st.floats(-3.0, 3.0)), x, u


@settings(derandomize=True, deadline=None, database=None, max_examples=64)
@given(_rk4_cases())
def test_rk4_batch_within_bound_on_generated_specs(case):
    spec, s, x, u = case
    _assert_rk4_within_bound(spec, [s], [x], [u])


@pytest.mark.parametrize(
    "lam, mu, alpha, s, u",
    [
        # contracting: |p| < 1, so w^(N-1) is factored out; p^(N-1) would underflow at s = 2000
        (-0.5, 1.3, 1.2, (2000.0, -3.0, 137.3), (0.6, -0.4, 0.0)),
        # expanding: |p| > 1, so p^(N-1) is factored out
        (0.4, -0.9, 0.8, (500.0, -421.3, -2.5), (0.7, -1.0, 0.3)),
        # trace zero, u alpha = mu: log(p / w) is near 0
        (0.0, 1.2, 1.5, (500.0, -500.0, 250.0), (0.8, 0.8, 0.8)),
        # A = 0: p = 1
        (0.0, 0.0, 0.9, (500.0, -421.3, 77.0), (0.5, 0.0, -1.1)),
    ],
)
def test_rk4_batch_within_bound_over_long_horizons(lam, mu, alpha, s, u):
    spec = SystemSpec(alpha, [0.4, -0.7], matrix_from_lambda_mu(lam, mu), [0.9, 0.2])
    x = np.array([[0.3, 1.0, -2.0], [5.0, -0.5, 0.25], [1.7, 2.0, 1.0]])
    _assert_rk4_within_bound(spec, s, x, u, step=0.05)


@pytest.mark.filterwarnings("error")
def test_rk4_overflow_names_s():
    spec = SystemSpec(1.0, [0.3, -0.7], matrix_from_lambda_mu(1.0, 2.0), [1.0, 0.2])
    with pytest.raises(ValueError, match=r"s = 800\.0"):
        rk4_oracle_batch(spec, [1.0, 800.0, 900.0, -900.0], np.zeros(3), 0.5)


@pytest.mark.filterwarnings("error")
def test_rk4_step_count_past_the_float_range_names_s():
    # |s| / step = 1e309 is inf, which math.ceil cannot make an integer.
    spec = SystemSpec(1.0, [1.0, 0.0], np.zeros((2, 2)), [0.3, 0.2])
    with pytest.raises(ValueError, match=r"^the RK4 step count \|s\| / step overflows at s = -1e\+306$"):
        rk4_oracle_batch(spec, [1.0, -1e306], np.zeros(3), 0.0)


def test_rk4_oracle_memory_is_bounded_by_chunks():
    spec = SystemSpec(1.2, [0.4, -0.7], matrix_from_lambda_mu(-0.5, 1.3), [0.9, 0.2])
    tracemalloc.start()
    try:
        end = rk4_oracle(spec, 100.0, [0.3, 1.0, -2.0], 0.6)  # 10^5 steps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(end).all()
    assert peak < 2 * 2**20


def test_flow_r2_equals_scalar_formula(rng):
    for rs in _reduced_specs(rng):
        s = rng.uniform(-3.0, 3.0, size=20)
        v = rng.normal(size=(20, 2))
        u = rng.uniform(-2.0, 2.0, size=20)
        batch = flow_r2(rs, s, v, u)
        for i in range(20):
            nu = rs.mu - u[i]
            d = rs.lam**2 + nu**2
            vu = (-u[i] / d) * (rs.lam * rs.eta - nu * np.array([-rs.eta[1], rs.eta[0]]))
            rot = np.array([[np.cos(s[i] * nu), -np.sin(s[i] * nu)],
                            [np.sin(s[i] * nu), np.cos(s[i] * nu)]])
            want = math.exp(s[i] * rs.lam) * (rot @ (v[i] - vu)) + vu
            assert np.array_equal(batch[i], want)


def test_rk4_batch_rows_equal_one_sample_calls(rng):
    for spec in _full_specs(rng):
        n = 12
        x = np.column_stack([rng.uniform(0.0, 2 * np.pi, n), rng.normal(size=(n, 2))])
        s = rng.uniform(-1.0, 1.0, size=n)
        u = rng.uniform(-1.5, 1.5, size=n)
        s[2] = 0.0
        batch = rk4_oracle_batch(spec, s, x, u, step=1e-2)
        for i in range(n):
            assert np.array_equal(batch[i], rk4_oracle(spec, s[i], x[i], u[i], step=1e-2))
        assert np.array_equal(batch[2], x[2])


def test_rk4_batch_longer_than_one_block_matches_independent_rk4(rng):
    spec = _full_specs(rng)[0]
    s = np.array([0.35, -0.2, 0.05])
    x = np.column_stack([[0.3, 1.2, 5.0], rng.normal(size=(3, 2))])
    u = np.array([0.9, -0.4, 0.0])
    got = rk4_oracle_batch(spec, s, x, u)
    for i in range(3):
        want = rk4_full(spec.alpha, spec.xi, spec.lam, spec.mu, spec.eta1, s[i], x[i], u[i])
        assert np.max(np.abs(got[i] - want)) < 1e-12


def test_flow_overflow_names_s():
    rs = ReducedSpec(1.0, 2.0, np.array([1.0, 0.0]), (-1.0, 1.0))
    with pytest.raises(ValueError, match=r"s = 800\.0"):
        flow_r2(rs, np.array([1.0, 800.0, 900.0]), np.zeros(2), 0.5)


def test_flow_whose_s_times_lambda_overflows_names_s_without_a_warning():
    # s * lam = 1e309 is inf: the product once sat outside flow_r2's
    # np.errstate and wrote an overflow RuntimeWarning, an error here.
    rs = ReducedSpec(100.0, 2.0, np.array([1.0, 0.0]), (-1.0, 1.0))
    with pytest.raises(ValueError, match=r"^flow is not finite at s = 1e\+307$"):
        flow_r2(rs, np.array([1.0, 1e307]), np.zeros(2), 0.0)


# -- flow._exp is libm's exp, bit for bit ----------------------------------
#
# _exp forms e^x by numpy's complex exp, which calls libm's cexp; it is held
# to math.exp bit for bit, so that a platform whose cexp does not return
# libm's exp for a zero imaginary part fails here instead of moving flow
# values.  Above x = 709 glibc's cexp rescales by e^709, and there the last
# bit differs for about half of the arguments (so _exp takes math.exp).


def _assert_exp_is_libm(x):
    x = np.asarray(x, dtype=float)
    got = _exp(x, np.ones_like(x))
    want = np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)
    assert got.shape == x.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(st.floats(-746.0, 709.78), min_size=1, max_size=40))
def test_exp_equals_math_exp_bit_for_bit(xs):
    _assert_exp_is_libm(xs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo, hi", [
    (-746.0, 709.78),
    (708.9, 709.1),  # where cexp starts to rescale
    (709.0, 709.09),
    (709.09, 709.78),
    (-745.2, -708.3),  # subnormal results
])
def test_exp_equals_math_exp_on_seeded_bands(lo, hi):
    rng = np.random.default_rng(11)
    x = rng.uniform(lo, hi, size=20000)
    x[:2] = lo, hi
    _assert_exp_is_libm(x)


@pytest.mark.filterwarnings("error")
def test_exp_equals_math_exp_on_special_arguments():
    big = math.log(sys.float_info.max)
    x = [0.0, -0.0, -math.inf, math.nan, 709.0, math.nextafter(709.0, 710.0), big,
         math.nextafter(big, 0.0), -745.1332191019411, -745.1332191019412, -746.0, -708.4, 5e-324]
    _assert_exp_is_libm(x)
    _assert_exp_is_libm(np.array(x).reshape(13, 1))
    for v in x:  # 0-d arrays and numpy scalars, as flow_r2 passes them
        _assert_exp_is_libm(np.float64(v))


@pytest.mark.filterwarnings("error")
def test_exp_overflow_raises_naming_s():
    x = np.array([1.0, 709.5, 709.9, 1e300])
    with pytest.raises(ValueError, match=r"^flow is not finite at s = 0\.25$"):
        _exp(x, np.array([0.5, 0.125, 0.25, 0.75]))
    with pytest.raises(ValueError, match=r"s = 3\.0"):
        _exp(np.float64(710.0), np.float64(3.0))


# -- check_invariance against its one-sample-at-a-time definition --------


def _length(w):
    """|w| for a real pair w, as check_invariance measures it: np.abs of x + iy."""
    return float(np.abs(complex(*w)))


def _invariance_by_sample(rs, n, seed, horizon, margin_tol):
    """The check's sample draw, with each sample flowed by its own call."""
    rng = np.random.default_rng(seed)
    ball = invariant_ball(rs)
    c, radius = ball.center, ball.radius
    u = rng.uniform(*rs.omega, size=2 * n)
    smag = rng.uniform(1e-3, horizon, size=2 * n)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
    rad_in = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    rad_out = radius * (1.0 + rng.uniform(1e-6, 1.0, size=n))
    tol = margin_tol * max(radius, 1.0)
    inward, outward = [], []
    for i in range(n):
        w = c + rad_in[i] * np.array([np.cos(ang[i]), np.sin(ang[i])])
        d = _length(flow_r2(rs, -np.sign(rs.lam) * smag[i], w, u[i]) - c)
        inward.append(radius - d)
        j = n + i
        w = c + rad_out[i] * np.array([np.cos(ang[j]), np.sin(ang[j])])
        if rs.det_a_of_u(u[j]) != 0.0 and _length(w - equilibrium(rs, u[j])) <= 1e-9 * radius:
            continue
        d = _length(flow_r2(rs, np.sign(rs.lam) * smag[j], w, u[j]) - c)
        outward.append(d - rad_out[i])
    return (sum(m < tol for m in inward), sum(m < tol for m in outward),
            min(inward), min(outward))


@pytest.mark.parametrize("lam, mu, eta", [
    (1.0, 0.0, (1.0, 0.0)),
    (-1.0, 0.4, (1.0, 0.0)),
    (0.5, 1.5, (0.3, -0.8)),
    (-1.3, -0.6, (-0.2, 1.1)),
])
@pytest.mark.parametrize("margin_tol", [1e-12, 0.05])
def test_invariance_counts_equal_sample_by_sample(lam, mu, eta, margin_tol):
    rs = ReducedSpec(lam, mu, np.array(eta), (-1.0, 1.0))
    rep = check_invariance(rs, n_samples=400, seed=3, horizon=3.0, margin_tol=margin_tol)
    v_in, v_out, m_in, m_out = _invariance_by_sample(rs, 400, 3, 3.0, margin_tol)
    assert (rep.violations_inward, rep.violations_outward) == (v_in, v_out)
    assert (rep.min_margin_inward, rep.min_margin_outward) == (m_in, m_out)
    if margin_tol == 1e-12:
        assert v_in == v_out == 0
    else:
        assert v_in + v_out > 0
