"""The prepared plant: its charts, and its flows against the chart composition.

`reference_charts.reference_flow_se2` composes the chart maps of packed
states on real 2x2 rotations and reduces the system on every call, as
flow_se2 did before it ran on a Plant.  The plant's charts rotate complex
translations instead, by fewer operations.  Bound, fixed before the charts
moved to complex numbers, for every row (packed batches, one-row calls on
a state of shape (3,), angles outside [0, 2 pi), negative times, both charts):
the angles are equal bit for bit, and the translations differ by at most

    1e-13 * max(1, |v|, |w|, |v(alpha u)|, |reference|) * max(1, e^{lam s}),

with w the chart offset (i A^{-1} xi, or i eta1 / alpha for A = 0) and
v(alpha u) the reduced equilibrium where it exists.  Each row of a batch
also equals its own one-row call bit for bit.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_charts import reference_flow_se2

from se2control.flow import equilibrium, flow_concat, flow_se2, PiecewiseControl
from se2control.system import SystemSpec, classify, matrix_from_lambda_mu, prepare, reduce_system


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _same(a, b):
    assert np.shape(a) == np.shape(b)
    assert _bits(a) == _bits(b)


REL = 1e-13


def _within_bound(plant, s, x, u, got, want):
    """Angles bit for bit, translations within the bound of the module docstring."""
    assert got.shape == want.shape
    assert _bits(got[..., 0]) == _bits(want[..., 0])
    spec = plant.spec
    s, u = np.broadcast_arrays(s, u)
    s, u = np.broadcast_to(s, got.shape[:-1]), np.broadcast_to(u, got.shape[:-1])
    x = np.broadcast_to(x, got.shape)
    w = abs(plant.offset) if plant.chart == "psi" else abs(plant.offset / spec.alpha)
    for i in np.ndindex(got.shape[:-1]):
        ut = spec.alpha * u[i]
        vu = 0.0
        if plant.chart == "psi" and plant.rs.det_a_of_u(ut) != 0.0:
            vu = math.hypot(*equilibrium(plant.rs, ut))
        scale = max(1.0, math.hypot(*x[i][1:]), w, vu, math.hypot(*want[i][1:]))
        grow = max(1.0, math.exp(spec.lam * s[i]))
        assert math.hypot(*(got[i][1:] - want[i][1:])) <= REL * scale * grow


_coord = st.floats(-3.0, 3.0)
_rate = st.floats(-2.0, 2.0)


@st.composite
def _cases(draw):
    chart = draw(st.sampled_from(("psi", "zero")))
    lam, mu = (draw(_rate), draw(_rate)) if chart == "psi" else (0.0, 0.0)
    if chart == "psi" and lam == 0.0 and mu == 0.0:
        mu = 1.0
    alpha = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from((1.0, -1.0)))
    omega = (-draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0)))
    spec = SystemSpec(alpha, [draw(_coord), draw(_coord)], matrix_from_lambda_mu(lam, mu),
                      [draw(_coord), draw(_coord)], omega)
    n = draw(st.integers(1, 6))
    x = np.array([[draw(st.floats(-20.0, 20.0)), draw(_coord), draw(_coord)] for _ in range(n)])
    s = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(n)])
    u = np.array([draw(st.sampled_from((0.0, omega[0], omega[1], draw(st.floats(*omega)))))
                  for _ in range(n)])
    return spec, s, x, u


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(_cases())
@example((SystemSpec(1.0, [0.3, -0.7], matrix_from_lambda_mu(0.0, 1.0), [1.0, 0.2], (-2.0, 2.0)),
          np.array([-0.7, 0.0]), np.array([[-1e-20, 0.4, -0.8], [6.5, 1.0, 2.0]]), np.array([1.0, 0.5])))
@example((SystemSpec(1.0, [0.0, 0.0], matrix_from_lambda_mu(0.0, 2.2250738585072014e-309), [0.0, 0.0],
                     (-1.0, 1.0)), np.zeros(1), np.zeros((1, 3)), np.zeros(1)))
def test_plant_flow_is_within_bound_of_chart_composition(case):
    spec, s, x, u = case
    plant = prepare(spec)
    assert plant.chart == ("zero" if spec.a_is_zero else "psi")
    try:
        plant.rs  # the reduction, formed on first use
    except ValueError:
        # Rates below about 1e-308 are A != 0, but LAPACK's A^{-1} xi is not
        # finite there: both flows stop with the reduction's ValueError.
        for flow in (flow_se2, reference_flow_se2):
            with pytest.raises(ValueError, match="overflows"):
                flow(spec, s, x, u)
        return
    batch = flow_se2(plant, s, x, u)
    _within_bound(plant, s, x, u, batch, reference_flow_se2(spec, s, x, u))
    _same(flow_se2(spec, s, x, u), batch)
    # One start state under many times, as flow_concat calls it.
    fan = flow_se2(plant, s, x[0], u[0])
    _within_bound(plant, s, x[0], u[0], fan, reference_flow_se2(spec, s, x[0], u[0]))
    for i in range(len(s)):
        one = flow_se2(plant, s[i], x[i], u[i])
        _within_bound(plant, s[i], x[i], u[i], one, reference_flow_se2(spec, s[i], x[i], u[i]))
        # Rows of a batch equal their one-row calls, on both charts.
        _same(batch[i], one)
        _same(fan[i], flow_se2(plant, s[i], x[0], u[0]))


def test_prepare_picks_the_chart_and_reduces_once():
    spec = SystemSpec(-0.8, [0.3, -0.7], matrix_from_lambda_mu(0.6, 1.7), [1.0, 0.2], (-1.5, 1.0))
    plant = prepare(spec)
    assert plant.chart == "psi" and plant.spec is spec
    assert plant.rs.to_dict() == reduce_system(spec).to_dict()
    w = np.linalg.solve(spec.A, spec.xi)
    assert plant.offset == complex(-w[1], w[0])
    assert classify(plant).to_dict() == classify(spec).to_dict()
    # det A underflows to 0, yet A != 0: the psi chart, as classify sees it.
    tiny = SystemSpec(1.0, [0.3, -0.7], matrix_from_lambda_mu(1e-170, 2e-170), [1.0, 0.2])
    assert prepare(tiny).chart == "psi" and prepare(tiny).rs is not None
    w = np.linalg.solve(tiny.A, tiny.xi)
    assert prepare(tiny).offset == complex(-w[1], w[0])


def test_alpha_zero_plant_has_no_chart_and_no_flow():
    spec = SystemSpec(0.0, [0.3, -0.7], matrix_from_lambda_mu(0.6, 1.7), [1.0, 0.2])
    plant = prepare(spec)
    assert plant.chart == "none" and plant.rs is None
    assert classify(plant).case == "NotClassified"
    with pytest.raises(ValueError, match="exact flow requires alpha != 0"):
        flow_se2(plant, 1.0, np.zeros(3), 0.5)


def test_flow_concat_takes_a_plant_or_a_spec_alike():
    spec = SystemSpec(1.3, [-0.4, 0.9], matrix_from_lambda_mu(-0.5, 1.1), [0.2, -0.6], (-1.0, 2.0))
    control = PiecewiseControl([(1.25, 1.7), (0.6, -0.3), (0.0, 0.4)])
    a = flow_concat(prepare(spec), control, [7.5, 1.5, -2.0], samples_per_segment=8)
    b = flow_concat(spec, control, [7.5, 1.5, -2.0], samples_per_segment=8)
    assert _bits(a.states) == _bits(b.states) and a.kind == b.kind == "group"
