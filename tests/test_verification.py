"""Verification suites: routing by case, determinism and pass criteria."""
import numpy as np
import pytest

from se2control import verification as V
from se2control.system import SystemSpec
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
    rep = run_verification(spec_open(), seed=0, n_samples=500)
    by_name = {s.name: s for s in rep.suites}
    assert set(by_name) == set(SUITE_NAMES)
    for name in ("bound_sweep", "ball_invariance", "conjugacy", "semigroup"):
        assert by_name[name].status == "passed", by_name[name].detail
    assert by_name["monotone_functional"].status == "skipped"
    assert rep.passed


def test_bound_sweep_margin_reported_positive():
    rep = run_verification(spec_open(), seed=0, suites=["bound_sweep"])
    (suite,) = [s for s in rep.suites if s.name == "bound_sweep"]
    assert suite.status == "passed"
    assert suite.metrics["min_margin"] > 0.0


def test_bound_sweep_fails_on_a_nan_margin(monkeypatch):
    chord_ratio = V.chord_ratio

    def chord_ratio_with_a_nan(sigma, nu, s):
        vals = chord_ratio(sigma, nu, s)
        vals[0] = np.nan
        return vals

    monkeypatch.setattr(V, "chord_ratio", chord_ratio_with_a_nan)
    # Python's min would skip the NaN after a finite margin.
    rep = run_verification(spec_open(), seed=0, suites=["bound_sweep"])
    (suite,) = rep.suites
    assert suite.status == "failed" and np.isnan(suite.metrics["min_margin"])
    assert not rep.passed


def test_degenerate_case_routes_to_monotone_suite():
    rep = run_verification(spec_degenerate(), seed=0, n_samples=200)
    by_name = {s.name: s for s in rep.suites}
    assert by_name["monotone_functional"].status == "passed"
    assert by_name["bound_sweep"].status == "skipped"
    assert by_name["ball_invariance"].status == "skipped"
    assert rep.passed


def test_trace_zero_case_skips_ball():
    rep = run_verification(spec_trace_zero(), seed=0, n_samples=300)
    by_name = {s.name: s for s in rep.suites}
    assert by_name["ball_invariance"].status == "skipped"
    assert by_name["bound_sweep"].status == "skipped"
    assert by_name["conjugacy"].status == "passed"
    assert rep.passed


def test_suite_selection():
    rep = run_verification(spec_open(), suites=["conjugacy", "semigroup"])
    assert {s.name for s in rep.suites} == {"conjugacy", "semigroup"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verification(spec_open(), suites=["nonsense"])


def test_deterministic_given_seed():
    a = run_verification(spec_open(), seed=11, n_samples=300).to_dict()
    b = run_verification(spec_open(), seed=11, n_samples=300).to_dict()
    assert a == b


def test_draw_repeats_sequential_uniform_calls():
    ranges = [(0.0, 2 * np.pi), (-2.0, 2.0), (-0.5, 1.5), (0.1, 2.0)]
    rng = np.random.default_rng(5)
    want = [[rng.uniform(lo, hi) for lo, hi in ranges] for _ in range(7)]
    assert np.array_equal(_draw(np.random.default_rng(5), 7, *ranges), want)
