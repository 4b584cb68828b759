"""Verification suites: routing by case, determinism and pass criteria."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se2control import verification as V
from se2control.reachability import control_grid
from se2control.system import SystemSpec, prepare
from se2control.verification import SUITE_NAMES, _draw, run_verification


def spec_open():
    return SystemSpec(1.0, np.zeros(2), np.array([[1.0, -2.0], [2.0, 1.0]]),
                      np.array([1.0, 0.0]), (-1.0, 1.0))


def spec_degenerate():
    return SystemSpec(1.0, np.array([1.0, 0.0]), np.zeros((2, 2)),
                      np.zeros(2), (-1.0, 1.0))


def spec_trace_zero():
    return SystemSpec(1.0, np.zeros(2), np.array([[0.0, -1.0], [1.0, 0.0]]),
                      np.array([1.0, 0.0]), (-0.5, 0.5))


def test_open_case_all_numeric_suites_pass():
    rep = run_verification(prepare(spec_open()), seed=0, n_samples=500)
    by_name = {s.name: s for s in rep.suites}
    assert set(by_name) == set(SUITE_NAMES)
    for name in ("bound_sweep", "ball_invariance", "conjugacy", "semigroup"):
        assert by_name[name].status == "passed", by_name[name].detail
    assert by_name["monotone_functional"].status == "skipped"
    assert rep.passed


def test_bound_sweep_margin_reported_positive():
    rep = run_verification(prepare(spec_open()), seed=0, suites=["bound_sweep"])
    (suite,) = [s for s in rep.suites if s.name == "bound_sweep"]
    assert suite.status == "passed"
    assert suite.metrics["min_margin"] > 0.0


def test_bound_sweep_fails_on_a_nan_margin(monkeypatch):
    chord_excess = V.chord_excess

    def chord_excess_with_a_nan(sigma, nu, s):
        vals = chord_excess(sigma, nu, s)
        vals[0] = np.nan
        return vals

    monkeypatch.setattr(V, "chord_excess", chord_excess_with_a_nan)
    # Python's min would skip the NaN after a finite margin.
    rep = run_verification(prepare(spec_open()), seed=0, suites=["bound_sweep"])
    (suite,) = rep.suites
    assert suite.status == "failed" and np.isnan(suite.metrics["min_margin"])
    assert not rep.passed


def _mp_min_margin(spec):
    """The bound sweep's minimum of (nu/sigma)^2 - (f - 1), in 60-digit mpmath."""
    sigma = abs(spec.lam)
    nus = [nu for nu in (spec.mu - spec.alpha * control_grid(spec.omega, 21)).tolist() if nu]
    svals = np.concatenate([np.geomspace(1e-3, 10.0, 41), -np.geomspace(1e-3, 10.0, 41)])
    with mpmath.workdps(60):
        sg = mpmath.mpf(sigma)
        return min(
            (mpmath.mpf(nu) / sg) ** 2
            - 4 * mpmath.exp(s * sg) * mpmath.sin(s * nu / 2) ** 2 / mpmath.expm1(s * sg) ** 2
            for nu in map(mpmath.mpf, nus)
            for s in map(mpmath.mpf, svals.tolist())
        )


@pytest.mark.parametrize("lam", [1e7, 1e8, 1e9])
def test_bound_sweep_resolves_the_bound_at_fast_rates(lam):
    # Once failed with min_margin 0.0 from lam = 1e8 on: 1 + (nu/sigma)^2 and
    # 1 + g both rounded to 1.
    spec = SystemSpec(1.0, np.array([0.3, -0.7]), np.array([[lam, -2.0], [2.0, lam]]),
                      np.array([1.0, 0.2]), (-1.0, 1.0))
    (suite,) = run_verification(prepare(spec), seed=0, suites=["bound_sweep"]).suites
    assert suite.status == "passed"
    want = _mp_min_margin(spec)
    assert abs(suite.metrics["min_margin"] - want) <= 1e-9 * want


def _loop_min_margin(spec):
    """The bound sweep's min_margin formed one chord_excess call per nu, as before the single pass."""
    sigma = abs(spec.lam)
    nus = np.array([spec.mu - spec.alpha * u for u in control_grid(spec.omega, 21)])
    nus = nus[nus != 0.0]
    svals = np.concatenate([np.geomspace(1e-3, 10.0, 41), -np.geomspace(1e-3, 10.0, 41)])
    ratios = (nus / sigma) ** 2
    return float(np.min([np.min(r - V.chord_excess(sigma, nu, svals)) for nu, r in zip(nus, ratios)]))


@st.composite
def _sweep_specs(draw):
    sign = draw(st.sampled_from((1.0, -1.0)))
    mu = draw(st.floats(-5.0, 5.0))
    alpha = draw(st.floats(0.05, 4.0)) * draw(st.sampled_from((1.0, -1.0)))
    omega = (-draw(st.floats(0.01, 3.0)), draw(st.floats(0.01, 3.0)))
    if draw(st.booleans()):  # lambda / nu near 1e8, where 1 + g rounds to 1
        lam = sign * 1e8 * draw(st.floats(0.25, 4.0)) * max(abs(mu), abs(alpha) * max(-omega[0], omega[1]))
    else:
        lam = sign * 10.0 ** draw(st.floats(-3.0, 9.0))
    return SystemSpec(alpha, np.array([0.3, -0.7]), np.array([[lam, -mu], [mu, lam]]),
                      np.array([1.0, 0.2]), omega)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_sweep_specs())
def test_bound_sweep_margin_equals_the_per_nu_loop(spec):
    suite = V._suite_bound_sweep(prepare(spec), 0, 1)
    if suite.status == "skipped":
        return
    assert repr(suite.metrics["min_margin"]) == repr(_loop_min_margin(spec))


def test_degenerate_case_routes_to_monotone_suite():
    rep = run_verification(prepare(spec_degenerate()), seed=0, n_samples=200)
    by_name = {s.name: s for s in rep.suites}
    assert by_name["monotone_functional"].status == "passed"
    assert by_name["bound_sweep"].status == "skipped"
    assert by_name["ball_invariance"].status == "skipped"
    assert rep.passed


def test_trace_zero_case_skips_ball():
    rep = run_verification(prepare(spec_trace_zero()), seed=0, n_samples=300)
    by_name = {s.name: s for s in rep.suites}
    assert by_name["ball_invariance"].status == "skipped"
    assert by_name["bound_sweep"].status == "skipped"
    assert by_name["conjugacy"].status == "passed"
    assert rep.passed


def test_suite_selection():
    rep = run_verification(prepare(spec_open()), suites=["conjugacy", "semigroup"])
    assert {s.name for s in rep.suites} == {"conjugacy", "semigroup"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verification(prepare(spec_open()), suites=["nonsense"])


def test_deterministic_given_seed():
    a = run_verification(prepare(spec_open()), seed=11, n_samples=300).to_dict()
    b = run_verification(prepare(spec_open()), seed=11, n_samples=300).to_dict()
    assert a == b


def test_draw_repeats_sequential_uniform_calls():
    ranges = [(0.0, 2 * np.pi), (-2.0, 2.0), (-0.5, 1.5), (0.1, 2.0)]
    rng = np.random.default_rng(5)
    want = [[rng.uniform(lo, hi) for lo, hi in ranges] for _ in range(7)]
    assert np.array_equal(_draw(np.random.default_rng(5), 7, *ranges), want)
