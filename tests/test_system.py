"""SystemSpec validation, rank condition, classification and reduction."""
import numpy as np
import pytest

from se2control.system import (
    CASE_CLOSED,
    CASE_DEGENERATE,
    CASE_NOT_CLASSIFIED,
    CASE_OPEN,
    CASE_TRACE_ZERO,
    SystemSpec,
    classify,
    larc,
    reduce_system,
)

I2 = np.eye(2)
ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def make_spec(alpha=1.0, xi=(0.0, 0.0), lam=1.0, mu=0.0, eta1=(1.0, 0.0), omega=(-1.0, 1.0)):
    return SystemSpec(
        alpha=alpha,
        xi=np.asarray(xi, dtype=float),
        A=lam * I2 + mu * ROT,
        eta1=np.asarray(eta1, dtype=float),
        omega=omega,
    )


def test_spec_rejects_noncommuting_matrix():
    with pytest.raises(ValueError):
        SystemSpec(1.0, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                   np.ones(2), (-1.0, 1.0))


def test_spec_rejects_bad_omega():
    with pytest.raises(ValueError):
        make_spec(omega=(1.0, -1.0))
    with pytest.raises(ValueError):
        make_spec(omega=(0.5, 1.0))


@pytest.mark.parametrize(
    "alpha,xi,eta1,expected",
    [
        (0.0, (1.0, 0.0), (1.0, 0.0), False),
        (1.0, (1.0, 0.0), (0.0, 0.0), True),
        (1.0, (1.0, 0.0), (-1.0, 0.0), False),
    ],
)
def test_larc_cases(alpha, xi, eta1, expected):
    spec = make_spec(alpha=alpha, xi=xi, lam=1.0, mu=0.0, eta1=eta1)
    assert larc(spec) is expected


def test_classify_degenerate():
    spec = SystemSpec(1.0, np.array([1.0, 0.0]), np.zeros((2, 2)),
                      np.array([0.0, 0.5]), (-1.0, 1.0))
    rep = classify(spec)
    assert rep.case == CASE_DEGENERATE
    assert rep.det == 0.0 and rep.trace == 0.0


def test_classify_trace_zero():
    rep = classify(make_spec(lam=0.0, mu=1.0))
    assert rep.case == CASE_TRACE_ZERO
    assert rep.controllable is True


def test_classify_closed_bounded():
    rep = classify(make_spec(lam=-0.5, mu=1.0))
    assert rep.case == CASE_CLOSED
    assert rep.trace < 0.0


def test_classify_open_with_periodic_boundary():
    rep = classify(make_spec(lam=1.0, mu=2.0, omega=(-3.0, 3.0)))
    assert rep.case == CASE_OPEN
    assert rep.boundary_structure["kind"] == "periodic_orbit"
    assert rep.boundary_structure["period"] == pytest.approx(np.pi, abs=0.0)


def test_classify_open_boundary_absent_when_mu_outside():
    rep = classify(make_spec(lam=1.0, mu=2.0, omega=(-1.0, 1.0)))
    assert rep.case == CASE_OPEN
    assert rep.boundary_structure["kind"] == "none"


def test_classify_mu_zero_continuum():
    rep = classify(make_spec(lam=1.0, mu=0.0, omega=(-1.0, 1.0)))
    assert rep.case == CASE_OPEN
    assert rep.boundary_structure["kind"] == "continuum_of_fixed_points"


def test_classify_abstains_without_larc():
    rep = classify(make_spec(alpha=0.0))
    assert rep.larc is False
    assert rep.case == CASE_NOT_CLASSIFIED


def test_classify_case_depends_only_on_matrix(rng):
    for scale in (0.5, 2.0, 7.5):
        a = classify(make_spec(lam=1.0, mu=2.0, eta1=(1.0, 0.0)))
        b = classify(make_spec(lam=1.0, mu=2.0, eta1=(scale, 0.0)))
        assert (a.det, a.trace, a.case) == (b.det, b.trace, b.case)


def test_reduce_identity_alpha():
    rs = reduce_system(make_spec(alpha=1.0, xi=(0.0, 0.0), lam=1.0, mu=0.0,
                                 eta1=(0.0, 1.0), omega=(-1.0, 2.0)))
    assert np.allclose(rs.eta, [0.0, 1.0])
    assert rs.omega == (-1.0, 2.0)


def test_reduce_formula():
    rs = reduce_system(make_spec(alpha=2.0, xi=(1.0, 0.0), lam=1.0, mu=0.0,
                                 eta1=(0.0, 1.0), omega=(-1.0, 1.0)))
    assert np.allclose(rs.eta, [1.0, 0.5], atol=1e-15)
    assert rs.omega == (-2.0, 2.0)
    assert (rs.lam, rs.mu) == (1.0, 0.0)


def test_reduce_negative_alpha_orders_omega():
    rs = reduce_system(make_spec(alpha=-1.5, xi=(0.0, 0.0), lam=1.0, mu=0.0,
                                 eta1=(1.0, 0.0), omega=(-2.0, 1.0)))
    assert rs.omega == (-1.5, 3.0)


def test_reduce_rejects_singular_matrix():
    spec = SystemSpec(1.0, np.array([1.0, 0.0]), np.zeros((2, 2)),
                      np.array([0.0, 1.0]), (-1.0, 1.0))
    with pytest.raises(ValueError):
        reduce_system(spec)


def test_reduced_eta_nonzero_under_larc(rng):
    for _ in range(50):
        lam, mu = rng.uniform(-2, 2, size=2)
        if lam * lam + mu * mu < 1e-4:
            continue
        spec = make_spec(alpha=rng.uniform(0.5, 2.0), xi=rng.normal(size=2),
                         lam=lam, mu=mu, eta1=rng.normal(size=2))
        if not larc(spec):
            continue
        rs = reduce_system(spec)
        assert np.linalg.norm(rs.eta) > 1e-12


@pytest.mark.parametrize("k", [2.0**23] + [10.0**e for e in range(11, 154)])
def test_reduce_time_scaled_open_spec(k):
    # Time scaling multiplies (alpha, xi, A, eta1) by k: the reduced rates and
    # range scale by k, and the reduced drift eta / alpha is unchanged.
    base = make_spec(alpha=1.0, xi=(0.3, -0.7), lam=1.0, mu=2.0, eta1=(1.0, 0.2))
    want = reduce_system(base)
    spec = make_spec(alpha=k, xi=(0.3 * k, -0.7 * k), lam=k, mu=2.0 * k, eta1=(k, 0.2 * k))
    rs = reduce_system(spec)
    assert (rs.lam, rs.mu, rs.omega) == (k, 2.0 * k, (-k, k))
    assert np.max(np.abs(rs.eta - want.eta)) <= 1e-12 * np.linalg.norm(want.eta)
    assert classify(spec).case == CASE_OPEN


def test_overflowing_rates_are_rejected_by_the_reduction():
    spec = make_spec(alpha=1.0, xi=(0.3, -0.7), lam=1e200, mu=2.0, eta1=(1.0, 0.2))
    assert spec.det() == np.inf
    with pytest.raises(ValueError, match="overflows"):
        reduce_system(spec)
