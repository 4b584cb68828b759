"""The prepared plant: its charts, and its flows bit for bit against the chart composition.

`reference_charts.reference_flow_se2` composes the GroupElement-level chart
maps and reduces the system on every call, as flow_se2 did before it ran on
a Plant.  The plant keeps that arithmetic op for op, so every row must
match it bit for bit: packed batches, one-row GroupElement calls, angles
outside [0, 2 pi), negative times, both charts.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_charts import reference_flow_se2

from se2control.flow import flow_concat, flow_se2, PiecewiseControl
from se2control.group import GroupElement
from se2control.system import SystemSpec, classify, matrix_from_lambda_mu, prepare, reduce_system


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _same(a, b):
    if isinstance(b, GroupElement):
        assert isinstance(a, GroupElement)
        a, b = a.as_array(), b.as_array()
    assert _bits(a) == _bits(b)


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
def test_plant_flow_equals_chart_composition_bit_for_bit(case):
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
    _same(flow_se2(plant, s, x, u), reference_flow_se2(spec, s, x, u))
    _same(flow_se2(spec, s, x, u), reference_flow_se2(spec, s, x, u))
    # One start state under many times, as flow_concat calls it.
    _same(flow_se2(plant, s, x[0], u[0]), reference_flow_se2(spec, s, x[0], u[0]))
    for i in range(len(s)):
        g = GroupElement(x[i, 0], x[i, 1:])
        _same(flow_se2(plant, s[i], g, u[i]), reference_flow_se2(spec, s[i], g, u[i]))


def test_prepare_picks_the_chart_and_reduces_once():
    spec = SystemSpec(-0.8, [0.3, -0.7], matrix_from_lambda_mu(0.6, 1.7), [1.0, 0.2], (-1.5, 1.0))
    plant = prepare(spec)
    assert plant.chart == "psi" and plant.spec is spec
    assert plant.rs.to_dict() == reduce_system(spec).to_dict()
    w = np.linalg.solve(spec.A, spec.xi)
    assert _bits(plant.offset) == _bits([-w[1], w[0]])
    assert classify(plant).to_dict() == classify(spec).to_dict()
    # det A underflows to 0, yet A != 0: the psi chart, as classify sees it.
    tiny = SystemSpec(1.0, [0.3, -0.7], matrix_from_lambda_mu(1e-170, 2e-170), [1.0, 0.2])
    assert prepare(tiny).chart == "psi" and prepare(tiny).rs is not None
    w = np.linalg.solve(tiny.A, tiny.xi)
    assert _bits(prepare(tiny).offset) == _bits([-w[1], w[0]])


def test_alpha_zero_plant_has_no_chart_and_no_flow():
    spec = SystemSpec(0.0, [0.3, -0.7], matrix_from_lambda_mu(0.6, 1.7), [1.0, 0.2])
    plant = prepare(spec)
    assert plant.chart == "none" and plant.rs is None
    assert classify(plant).case == "NotClassified"
    with pytest.raises(ValueError, match="exact flow requires alpha != 0"):
        flow_se2(plant, 1.0, GroupElement(0.0, [0.0, 0.0]), 0.5)


def test_flow_concat_takes_a_plant_or_a_spec_alike():
    spec = SystemSpec(1.3, [-0.4, 0.9], matrix_from_lambda_mu(-0.5, 1.1), [0.2, -0.6], (-1.0, 2.0))
    control = PiecewiseControl([(1.25, 1.7), (0.6, -0.3), (0.0, 0.4)])
    a = flow_concat(prepare(spec), control, [7.5, 1.5, -2.0], samples_per_segment=8)
    b = flow_concat(spec, control, [7.5, 1.5, -2.0], samples_per_segment=8)
    assert _bits(a.states) == _bits(b.states) and a.kind == b.kind == "group"
