"""Spec/control file parsing, JSON emission and CSV serialization."""
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from se2control.flow import PiecewiseControl, Trajectory, flow_concat
from se2control.specfile import (
    CSV_BLOCK_ROWS,
    FLOAT_FMT,
    SpecFileError,
    _format_values,
    _formatted_once,
    dump_json,
    format_float,
    load_system_spec,
    parse_control,
    parse_system_spec,
    write_cells_csv,
    write_trajectory_csv,
)
from se2control.system import ReducedSpec, SystemSpec, prepare, reduce_system


GOOD = {
    "alpha": 1.0,
    "xi": [0.5, -0.25],
    "A": {"lambda": 1.0, "mu": 2.0},
    "eta1": [1.0, 0.0],
    "omega": [-1.0, 1.0],
}


def test_parse_lambda_mu_form():
    spec = parse_system_spec(dict(GOOD))
    assert spec.alpha == 1.0
    assert np.allclose(spec.A, [[1.0, -2.0], [2.0, 1.0]])
    assert spec.omega == (-1.0, 1.0)


def test_parse_matrix_form():
    data = dict(GOOD)
    data["A"] = [[1.0, -2.0], [2.0, 1.0]]
    spec = parse_system_spec(data)
    assert np.allclose(spec.A, [[1.0, -2.0], [2.0, 1.0]])


def test_parse_rejects_noncommuting_matrix():
    data = dict(GOOD)
    data["A"] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(SpecFileError):
        parse_system_spec(data)


@pytest.mark.parametrize("key", ["alpha", "xi", "A", "eta1", "omega"])
def test_parse_rejects_missing_key(key):
    data = dict(GOOD)
    del data[key]
    with pytest.raises(SpecFileError, match=key):
        parse_system_spec(data)


def test_parse_rejects_unknown_key():
    data = dict(GOOD)
    data["extra"] = 1
    with pytest.raises(SpecFileError):
        parse_system_spec(data)


def test_parse_rejects_bad_omega():
    data = dict(GOOD)
    data["omega"] = [1.0, -1.0]
    with pytest.raises(SpecFileError):
        parse_system_spec(data)


def test_load_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"alpha": 1.0,\n  "xi": [0, 0],,}\n')
    with pytest.raises(SpecFileError) as exc:
        load_system_spec(str(p))
    assert "broken.json:2" in str(exc.value)


def test_load_round_trip(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(GOOD))
    spec = load_system_spec(str(p))
    assert spec.eta1[0] == 1.0


def test_parse_control():
    ctrl = parse_control({"segments": [{"duration": 0.5, "u": -0.25}]})
    assert ctrl.segments == [(0.5, -0.25)]


def test_parse_control_rejects_negative_duration():
    with pytest.raises(SpecFileError):
        parse_control({"segments": [{"duration": -0.5, "u": 0.0}]})


def test_format_float_round_trips():
    for x in (1.0 / 3.0, 1e-17, -2.5, 0.1 + 0.2):
        assert float(format_float(x)) == x


def test_dump_json_stable_key_order():
    buf1, buf2 = io.StringIO(), io.StringIO()
    dump_json({"b": 1.5, "a": [np.float64(2.5)], "c": {"y": True, "x": None}}, buf1)
    dump_json({"c": {"x": None, "y": True}, "a": [2.5], "b": 1.5}, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    assert json.loads(buf1.getvalue()) == {"a": [2.5], "b": 1.5, "c": {"x": None, "y": True}}


def test_trajectory_csv_planar_and_group():
    rs = ReducedSpec(lam=0.0, mu=1.0, eta=np.array([1.0, 0.0]), omega=(-2.0, 2.0))
    traj = flow_concat(rs, PiecewiseControl([(0.5, 0.3)]), np.zeros(2))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "s,t,v_x,v_y,u"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == ""  # planar: no angle column value
    assert len(lines) >= 3


def _csv_rows(traj):
    """The trajectory CSV's rows, each value formatted on its own."""
    states = traj.states if traj.kind == "group" else np.column_stack([np.full(len(traj.times), np.nan), traj.states])
    return [
        f"{format_float(s)},{'' if traj.kind == 'planar' else format_float(t)},"
        f"{format_float(vx)},{format_float(vy)},{format_float(u)}"
        for s, (t, vx, vy), u in zip(traj.times, states, traj.controls)
    ]


def test_trajectory_csv_rows_format_each_value():
    spec = SystemSpec(1.0, [0.3, 0.1], [[0.0, -2.0], [2.0, 0.0]], [1.0, 0.0], (-1.0, 1.0))
    # 769 rows: more than one block of rows.
    ctrl = PiecewiseControl([(0.5, 0.3), (1.0, -0.7), (0.2, 0.0)] * 4)
    for traj in (flow_concat(prepare(spec), ctrl, [0.1, 1e-300, -2.5]),
                 flow_concat(reduce_system(spec), ctrl, [1.0, -0.0])):
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert buf.getvalue().splitlines() == ["s,t,v_x,v_y,u"] + _csv_rows(traj)


# Magnitudes on both sides of each bound of the kernel's fixed range [1e-4, 1e16).
CROSSING = [0.0, -0.0, 5e-324, 1e-5, np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
            0.1, 1.0, 123.456, np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, 2e16), 1e17,
            1e300, np.inf, np.nan]


@pytest.mark.parametrize("kind", ["planar", "group"])
def test_trajectory_csv_rows_crossing_the_fixed_range(kind):
    n = 3 * len(CROSSING)
    rng = np.random.default_rng(7)
    values = np.array(CROSSING * 3) * rng.choice([-1.0, 1.0], size=n)
    states = np.column_stack([np.roll(values, k) for k in range(3 if kind == "group" else 2)])
    traj = Trajectory(np.abs(values), states, np.roll(values, 5), kind)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue().splitlines() == ["s,t,v_x,v_y,u"] + _csv_rows(traj)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([1000000000000000.25, 1000000000000000.75, 0.5000000000000001, 2.5e-4])  # ties, half to even
@example([np.nextafter(1e16, 0.0), np.nextafter(1e16, 2e16), np.nextafter(1e-4, 0.0),
          np.nextafter(1e-4, 1.0), 1e16, 1e-4])  # both neighbours of each bound
@example([10.0**k * (1.0 - 2.0**-53) for k in range(-5, 18)])  # at and below powers of ten
@example([float(np.nextafter(10.0**k, 0.0)) for k in range(-5, 18)])
@example([-0.0, 0.0, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308])
def test_kernel_writes_the_bytes_of_float_fmt(values):
    x = np.array(values)
    seps = np.full((1, x.size), ord("\n"), np.uint8)
    assert _format_values(x, seps) == "".join(FLOAT_FMT % v + "\n" for v in values)


def test_cells_csv_header(tmp_path):
    from se2control.reachability import GridConfig, reach_forward

    rs = ReducedSpec(lam=0.0, mu=1.0, eta=np.array([1.0, 0.0]), omega=(-0.5, 0.5))
    cfg = GridConfig((-1.0, 1.0, -1.0, 1.0), 0.1, [-0.5, 0.0, 0.5], 0.1)
    r = reach_forward(rs, np.zeros(2), cfg)
    buf = io.StringIO()
    write_cells_csv(r, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "i,j,x,y"
    assert len(lines) == r.cell_count + 1
    # Row by row, each value formatted on its own.
    assert lines[1:] == [
        f"{i},{j},{format_float(x)},{format_float(y)}"
        for (i, j), (x, y) in zip(r.occupied_cells(), r.cell_centers())
    ]


def test_cells_csv_in_blocks_equals_one_join():
    from se2control.reachability import GridConfig, reach_forward

    rs = ReducedSpec(lam=0.0, mu=1.0, eta=np.array([1.0, 0.0]), omega=(-0.5, 0.5))
    cfg = GridConfig((-1.0, 1.0, -1.0, 1.0), 0.04, [-0.5, 0.0, 0.5], 0.1)
    r = reach_forward(rs, np.zeros(2), cfg)
    assert r.cell_count > 3 * CSV_BLOCK_ROWS
    buf = io.StringIO()
    write_cells_csv(r, buf)
    row = "%d,%d,%.17g,%.17g\n"
    rows = zip(*r.occupied_cells().T.tolist(), *r.cell_centers().T.tolist())
    assert buf.getvalue() == "i,j,x,y\n" + "".join([row % t for t in rows])


def test_formatted_once_keeps_each_bit_pattern_apart():
    # -0.0 == 0.0 and NaNs are merged by value comparisons; the bit patterns
    # keep them apart, so every value prints as it would on its own.
    values = np.array([0.0, -0.0, 0.1, np.nan, -np.nan, 0.1, np.inf, 5e-324, 0.0])
    assert _formatted_once(values) == [format_float(v) for v in values]
    assert _formatted_once(values[::2]) == [format_float(v) for v in values[::2]]
