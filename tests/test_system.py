"""SystemSpec validation, rank condition, classification and reduction."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se2control.flow import equilibrium, flow_detA0
from se2control.reachability import degenerate_structure_check
from se2control.system import (
    CASE_CLOSED,
    CASE_DEGENERATE,
    CASE_NOT_CLASSIFIED,
    CASE_OPEN,
    CASE_TRACE_ZERO,
    ReducedSpec,
    SystemSpec,
    classify,
    larc,
    prepare,
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


def test_spec_stores_the_commuting_matrix_that_its_flows_read():
    # A[1, 1] is off by 5e-13, within the tolerance.  The chart offset was
    # once solved from the matrix as given while the flows read lam = 1, mu = 2.
    spec = SystemSpec(1.0, [0.3, -0.7], [[1.0, -2.0], [2.0, 1.0000000000005]], [1.0, 0.2])
    assert spec.A.tolist() == [[1.0, -2.0], [2.0, 1.0]]
    assert prepare(spec).offset == prepare(make_spec(xi=(0.3, -0.7), lam=1.0, mu=2.0)).offset
    assert abs(prepare(spec).offset - (0.26 - 0.22j)) < 1e-15


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
    rep = classify(prepare(spec))
    assert rep.case == CASE_DEGENERATE
    assert rep.det == 0.0 and rep.trace == 0.0


def test_classify_trace_zero():
    rep = classify(prepare(make_spec(lam=0.0, mu=1.0)))
    assert rep.case == CASE_TRACE_ZERO
    assert rep.controllable is True


def test_classify_closed_bounded():
    rep = classify(prepare(make_spec(lam=-0.5, mu=1.0)))
    assert rep.case == CASE_CLOSED
    assert rep.trace < 0.0


def test_classify_open_with_periodic_boundary():
    spec = make_spec(lam=1.0, mu=2.0, omega=(-3.0, 3.0))
    rep = classify(prepare(spec))
    assert rep.case == CASE_OPEN
    b = rep.boundary_structure
    assert b["kind"] == "periodic_orbit"
    assert b["control"] == 2.0
    assert b["period"] == np.pi
    vmu = equilibrium(reduce_system(spec), 2.0)
    assert np.allclose(b["plane_point"], vmu, atol=1e-15)


def test_classify_open_boundary_absent_when_mu_outside():
    rep = classify(prepare(make_spec(lam=1.0, mu=2.0, omega=(-1.0, 1.0))))
    assert rep.case == CASE_OPEN
    assert rep.boundary_structure["kind"] == "none"


def test_classify_mu_zero_continuum():
    rep = classify(prepare(make_spec(lam=1.0, mu=0.0, omega=(-1.0, 1.0))))
    assert rep.case == CASE_OPEN
    assert rep.boundary_structure["kind"] == "continuum_of_fixed_points"


def test_classify_abstains_without_larc():
    rep = classify(prepare(make_spec(alpha=0.0)))
    assert rep.larc is False
    assert rep.case == CASE_NOT_CLASSIFIED


def test_classify_case_depends_only_on_matrix(rng):
    for scale in (0.5, 2.0, 7.5):
        a = classify(prepare(make_spec(lam=1.0, mu=2.0, eta1=(1.0, 0.0))))
        b = classify(prepare(make_spec(lam=1.0, mu=2.0, eta1=(scale, 0.0))))
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
    assert classify(prepare(spec)).case == CASE_OPEN


def test_overflowing_rates_are_rejected_by_the_reduction():
    spec = make_spec(alpha=1.0, xi=(0.3, -0.7), lam=1e200, mu=2.0, eta1=(1.0, 0.2))
    assert spec.det() == np.inf
    with pytest.raises(ValueError, match="overflows"):
        reduce_system(spec)
    # The check belongs to the reduced system: built directly, its ball and
    # circle once raised OverflowError from a float **.
    for lam, mu in ((1e200, 2.0), (1.0, 1e200)):
        with pytest.raises(ValueError, match=r"^lambda\^2 \+ \(mu - alpha u\)\^2 overflows"):
            ReducedSpec(lam, mu, (1.0, 0.0), (-1.0, 1.0))


@pytest.mark.parametrize("lam, mu, case", [
    (1e-170, 2e-170, CASE_OPEN),
    (-1e-170, 2e-170, CASE_CLOSED),
    (0.0, 1e-170, CASE_TRACE_ZERO),
])
def test_rates_whose_squares_underflow_are_not_a_zero_matrix(lam, mu, case):
    # lam^2 + mu^2 underflows to 0: A = 0 was tested as det A = 0, which
    # labelled these systems DegenerateDetZero.
    spec = make_spec(alpha=1.0, xi=(0.3, -0.7), lam=lam, mu=mu, eta1=(1.0, 0.2))
    assert spec.det() == 0.0 and not spec.a_is_zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(prepare(spec)).case == case
        assert prepare(spec).chart == "psi"
        rs = reduce_system(spec)
    assert (rs.lam, rs.mu) == (lam, mu)
    # Nor does the A = 0 analysis take them.
    with pytest.raises(ValueError, match="requires A = 0"):
        flow_detA0(spec, 1.0, np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="requires A = 0"):
        degenerate_structure_check(spec)


def test_a_reduction_whose_eta_overflows_is_rejected():
    # lam = mu = 1e-320: A^{-1} xi overflows, so the reduction is not formed.
    spec = make_spec(alpha=1.0, xi=(0.3, -0.7), lam=1e-320, mu=1e-320, eta1=(1.0, 0.2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            reduce_system(spec)
        with pytest.raises(ValueError, match="overflows"):
            classify(prepare(spec))


def test_an_overflowing_one_point_control_set_is_rejected():
    # lam = 1e-320, mu = -1e-170: open (A != 0, though lam^2 + mu^2 underflows),
    # and v(mu) = -(mu / lam) eta overflows: a ValueError, with no numpy warning.
    spec = make_spec(alpha=1.0, xi=(0.3, -0.7), lam=1e-320, mu=-1e-170, eta1=(1.0, 0.2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="v\\(mu\\) .* overflows"):
            classify(prepare(spec))


def test_larc_holds_when_alpha_xi_squared_underflows():
    # |alpha xi|^2 = 1e-340 rounds to 0, so np.linalg.norm read alpha xi + A eta1
    # as zero and labelled the system NotClassified.
    spec = SystemSpec(1.0, np.array([1e-170, 0.0]), np.zeros((2, 2)), np.array([0.3, 0.2]), (-1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = classify(prepare(spec))
    assert larc(spec) and report.larc
    assert report.case == CASE_DEGENERATE


def test_larc_holds_on_the_open_spec_time_scaled_by_1e_170():
    # Every product alpha xi and A eta1 (about 1e-340) underflowed to 0.
    k = 1e-170
    spec = make_spec(alpha=k, xi=(0.3 * k, -0.7 * k), lam=k, mu=2.0 * k, eta1=(k, 0.2 * k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = classify(prepare(spec))
    assert larc(spec) and report.larc
    assert report.case == CASE_OPEN


_signed = st.sampled_from((-1.0, 1.0))


def _component(zero_allowed):
    signs = (-1.0, 0.0, 1.0) if zero_allowed else (-1.0, 1.0)
    return st.tuples(st.sampled_from(signs), st.floats(0.1, 3.0)).map(lambda p: p[0] * p[1])


@st.composite
def _scaled_spec_pairs(draw):
    """A spec with O(1) data, and the same spec time-scaled by 2^k and translation-scaled by 2^j."""
    alpha, lam, mu = draw(_component(True)), draw(_component(True)), draw(_component(True))
    xi = np.array([draw(_component(True)), draw(_component(True))])
    eta1 = np.array([draw(_component(True)), draw(_component(True))])
    omega = (-draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)))
    k, j = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
    base = make_spec(alpha=alpha, xi=xi, lam=lam, mu=mu, eta1=eta1, omega=omega)
    scaled = make_spec(alpha=math.ldexp(alpha, k), xi=np.ldexp(xi, k + j), lam=math.ldexp(lam, k),
                       mu=math.ldexp(mu, k), eta1=np.ldexp(eta1, k + j), omega=omega)
    return base, scaled


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_scaled_spec_pairs())
def test_the_case_label_is_invariant_under_power_of_two_scalings(pair):
    # Time scaling multiplies (alpha, A, xi, eta1) by 2^k and translation
    # scaling (xi, eta1) by 2^j, both exactly; neither changes the case.
    base, scaled = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, got = classify(prepare(base)), classify(prepare(scaled))
    assert (got.case, got.larc) == (want.case, want.larc)
