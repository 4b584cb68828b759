"""Grid reach sets: determinism, chunking, containment, coverage."""
import contextlib
import dataclasses
import json
import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from grid_masks import binary_erode, contains, representatives
from reference_charts import perp
from reference_degenerate import detA0_rows, reference_check, reference_draws, reference_steer_batch, unit_spec

from se2control.flow import PiecewiseControl, equilibrium, flow_detA0, flow_r2
from se2control.group import to_complex, wrap_angle
from se2control import reachability as R
from se2control.reachability import (
    GridConfig,
    control_grid,
    default_grid_config,
    default_seed_control,
    degenerate_structure_check,
    estimate_control_set,
    reach_backward,
    reach_forward,
    steer_degenerate,
)
from se2control.system import ReducedSpec, SystemSpec, classify, prepare, reduce_system

def make_rs(lam=1.0, mu=2.0, eta=(1.0, 0.0), omega=(-1.0, 1.0)):
    return ReducedSpec(lam=lam, mu=mu, eta=np.asarray(eta, dtype=float), omega=omega)


def small_cfg(rs, divisor=60.0):
    ball = rs.ball
    return default_grid_config(rs, resolution=ball.radius / divisor)


# -- configuration -------------------------------------------------------


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig((1.0, -1.0, -1.0, 1.0), 0.1, [0.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        GridConfig((-1.0, 1.0, -1.0, 1.0), -0.1, [0.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        GridConfig((-1.0, 1.0, -1.0, 1.0), 0.1, [0.0, 1.0], 0.0)


def test_control_grid_contains_required_points():
    us = control_grid((-1.5, 2.5), 21)
    assert us[0] == -1.5 and us[-1] == 2.5
    assert 0.0 in us
    assert np.all(np.diff(us) > 0.0)


def test_cell_mapping_round_trip():
    cfg = GridConfig((-1.0, 1.0, -2.0, 2.0), 0.05, [0.0], 0.1)
    nx, ny = cfg.shape
    for v in ([-0.99, -1.99], [0.0, 0.0], [0.99, 1.99]):
        i, j = cfg.cell_of(v)
        assert 0 <= i < nx and 0 <= j < ny
        c = np.array(cfg.bounds[::2]) + (np.array([i, j]) + 0.5) * cfg.resolution
        assert np.max(np.abs(np.asarray(v) - c)) <= cfg.resolution


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_out_of_bounds(bad):
    rs = make_rs()
    cfg = small_cfg(rs)
    region = reach_backward(rs, equilibrium(rs, 0.5), cfg)
    for v in ([bad, 0.0], [0.0, bad], [bad, bad], np.array([bad, bad])):
        assert cfg.in_bounds(v) is False
        assert contains(region, v) is False
    with pytest.raises(ValueError, match="outside the grid bounds"):
        reach_forward(rs, np.array([bad, 0.0]), cfg)


def test_a_point_whose_cell_index_overflows_is_out_of_bounds():
    # (1e300 - x_min) / 1e-300 is inf: no cell index exists.
    cfg = GridConfig((-1e-298, 1e-298, -1e-298, 1e-298), 1e-300, [0.0], 0.1)
    assert cfg.in_bounds([0.0, 0.0])
    assert not cfg.in_bounds([1e300, 0.0]) and not cfg.in_bounds([0.0, -1e300])


def test_reach_rejects_seed_outside_bounds():
    rs = make_rs()
    cfg = GridConfig((-0.5, 0.5, -0.5, 0.5), 0.05, control_grid(rs.omega, R.DEFAULT_N_CONTROLS), 0.05)
    with pytest.raises(ValueError):
        reach_forward(rs, np.array([2.0, 2.0]), cfg)


def test_reach_rejects_controls_outside_omega():
    rs = make_rs(omega=(-0.5, 0.5))
    cfg = GridConfig((-2.0, 2.0, -2.0, 2.0), 0.05, [-1.0, 0.0, 1.0], 0.05)
    with pytest.raises(ValueError):
        reach_forward(rs, np.zeros(2), cfg)


# -- determinism and chunking --------------------------------------------


def test_reach_deterministic_across_runs():
    rs = make_rs()
    cfg = small_cfg(rs)
    x0 = equilibrium(rs, 0.5)
    a = reach_backward(rs, x0, cfg)
    b = reach_backward(rs, x0, cfg)
    assert np.array_equal(a.occupied, b.occupied)
    assert np.array_equal(representatives(a), representatives(b))


def _reach_by_loop(rs, x0, cfg, direction):
    """Scalar reference of the reach fixed point: one candidate at a time, in
    canonical (frontier cell, flow column) order, first writer wins."""
    sing, vux, vuy, ecos, esin, linx, liny = (
        c.tolist() for c in R._control_constants(rs, cfg, direction)
    )
    nx, ny = cfg.shape
    xmin, _, ymin, _ = cfg.bounds
    res = cfg.resolution
    occ = np.zeros(nx * ny, dtype=bool)
    rep_x = np.full(nx * ny, np.nan)
    rep_y = np.full(nx * ny, np.nan)
    i0, j0 = cfg.cell_of(x0)
    frontier = [(i0 * ny + j0, float(x0[0]), float(x0[1]))]
    occ[frontier[0][0]] = True
    rep_x[frontier[0][0]], rep_y[frontier[0][0]] = x0
    rounds = 0
    while frontier:
        new = []
        for _, px, py in frontier:
            for c in range(len(vux)):
                if sing[c]:
                    qx, qy = px + linx[c], py + liny[c]
                else:
                    dx, dy = px - vux[c], py - vuy[c]
                    qx = vux[c] + ecos[c] * dx - esin[c] * dy
                    qy = vuy[c] + esin[c] * dx + ecos[c] * dy
                fi, fj = math.floor((qx - xmin) / res), math.floor((qy - ymin) / res)
                if 0 <= fi < nx and 0 <= fj < ny and not occ[fi * ny + fj]:
                    occ[fi * ny + fj] = True
                    new.append((fi * ny + fj, qx, qy))
        for idx, qx, qy in new:
            rep_x[idx], rep_y[idx] = qx, qy
        frontier = sorted(new)
        rounds += 1
    return occ.reshape(nx, ny), rep_x.reshape(nx, ny), rep_y.reshape(nx, ny), rounds


def _assert_reps_at_ids(got, rep_x, rep_y):
    """got's representatives equal the scalar loop's grids at got's cells."""
    assert got.rep_x.shape == got.rep_y.shape == got.ids.shape
    want = np.stack([rep_x.reshape(-1)[got.ids], rep_y.reshape(-1)[got.ids]], 1)
    assert np.array_equal(representatives(got), want)


def _assert_same_reach(a, b):
    assert np.array_equal(a.occupied, b.occupied)
    assert np.array_equal(representatives(a), representatives(b))
    assert (a.rounds, a.truncated) == (b.rounds, b.truncated)


@pytest.mark.parametrize("rows", [1, 3, 10**9])
def test_reach_independent_of_chunk_size(monkeypatch, rows):
    rs = make_rs()
    cfg = small_cfg(rs)
    x0 = equilibrium(rs, 0.5)
    ref = reach_backward(rs, x0, cfg)
    n_cols = cfg.controls.size * cfg.steps_per_arc
    assert ref.cell_count > 3 * R._CHUNK_CANDIDATES // n_cols  # several default chunks
    monkeypatch.setattr(R, "_CHUNK_CANDIDATES", rows * n_cols)
    _assert_same_reach(reach_backward(rs, x0, cfg), ref)


@contextlib.contextmanager
def _steps_per_arc(n):
    """Arcs of n time steps (reachability.STEPS_PER_ARC) inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(R, "STEPS_PER_ARC", n)
        yield


def _singular_case(monkeypatch):
    # Trace zero with u = mu in the control grid: det A(mu) = 0, so the
    # columns of that control translate by s u eta instead of rotating.
    monkeypatch.setattr(R, "STEPS_PER_ARC", 6)
    rs = make_rs(lam=0.0, mu=0.5, omega=(-1.0, 1.0))
    cfg = GridConfig((-1.0, 1.0, -1.0, 1.0), 0.1, [-1.0, -0.3, 0.0, 0.5, 1.0], 0.05)
    return rs, cfg, np.array([0.1, -0.2])


@pytest.mark.parametrize("direction", [+1, -1])
def test_reach_matches_scalar_loop_with_singular_columns(monkeypatch, direction):
    rs, cfg, x0 = _singular_case(monkeypatch)
    assert R._control_constants(rs, cfg, direction)[0].any()
    got = R._reach(rs, x0, cfg, direction)
    occ, rep_x, rep_y, rounds = _reach_by_loop(rs, x0, cfg, direction)
    assert np.array_equal(got.occupied, occ)
    _assert_reps_at_ids(got, rep_x, rep_y)
    assert got.rounds == rounds


# -- chunks on and off the grid -------------------------------------------


def _small_chunks(monkeypatch, rows, cfg):
    """Chunks of at most `rows` frontier rows."""
    monkeypatch.setattr(R, "_CHUNK_CANDIDATES", rows * cfg.controls.size * cfg.steps_per_arc)


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_reach_in_small_chunks_matches_scalar_loop(monkeypatch, direction, rows):
    rs, cfg, x0 = _singular_case(monkeypatch)
    _small_chunks(monkeypatch, rows, cfg)
    got = R._reach(rs, x0, cfg, direction)
    occ, rep_x, rep_y, rounds = _reach_by_loop(rs, x0, cfg, direction)
    assert np.array_equal(got.occupied, occ)
    _assert_reps_at_ids(got, rep_x, rep_y)
    assert got.rounds == rounds


def _round_by_loop(occ_flat, grid, cur_px, cur_py, consts):
    """Scalar reference of one round: (ids, px, py) sorted by id, and whether
    every image fell on the grid.  occ_flat is not changed."""
    nx, ny, x0, y0, res = grid
    sing, vux, vuy, ecos, esin, linx, liny = (c.tolist() for c in consts)
    occ = occ_flat.copy()
    claims, on_grid = [], True
    for px, py in zip(cur_px.tolist(), cur_py.tolist()):
        for c in range(len(vux)):
            if sing[c]:
                qx, qy = px + linx[c], py + liny[c]
            else:
                dx, dy = px - vux[c], py - vuy[c]
                qx = vux[c] + ecos[c] * dx - esin[c] * dy
                qy = vuy[c] + esin[c] * dx + ecos[c] * dy
            fi, fj = (qx - x0) / res, (qy - y0) / res
            if not (0 <= fi < nx and 0 <= fj < ny):  # False for NaN
                on_grid = False
                continue
            k = math.floor(fi) * ny + math.floor(fj)
            if not occ[k]:
                occ[k] = True
                claims.append((k, qx, qy))
    ids, px, py = (np.array(c) for c in zip(*sorted(claims)))
    return (ids, px, py), on_grid


@pytest.mark.parametrize("rows", [1, 2, 10**9])
def test_round_on_and_off_the_grid_matches_scalar_loop(monkeypatch, rows):
    # A frontier whose images all lie on the grid takes the kernel's path
    # without a bounds mask; one with images off the grid, or NaN, takes the
    # masked path.  Both give the scalar loop's claims, bit for bit.
    rs, cfg, _ = _singular_case(monkeypatch)
    _small_chunks(monkeypatch, rows, cfg)
    consts = R._control_constants(rs, cfg, +1)
    nx, ny = cfg.shape
    xmin, _, ymin, _ = cfg.bounds
    grid = (nx, ny, xmin, ymin, cfg.resolution)
    rng = np.random.default_rng(3)
    occupied = rng.random(nx * ny) < 0.3
    inner = rng.uniform(-0.4, 0.4, (2, 12))
    edge = np.concatenate([inner, rng.uniform(0.9, 0.999, (2, 4)), [[np.nan], [0.0]]], axis=1)
    for frontier, expect_on_grid in ((inner, True), (edge, False)):
        ref, on_grid = _round_by_loop(occupied, grid, *frontier, consts)
        assert on_grid == expect_on_grid
        occ_flat = occupied.copy()
        got = R._expand_round(occ_flat, *grid, *frontier, consts)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        expected = occupied.copy()
        expected[ref[0]] = True
        assert np.array_equal(occ_flat, expected)


@st.composite
def _small_reach_cases(draw):
    kind = draw(st.sampled_from(["contracting", "expanding", "trace_zero"]))
    lo = -draw(st.floats(0.2, 1.5))
    hi = draw(st.floats(0.2, 1.5))
    if kind == "trace_zero":
        lam = 0.0
        mu = draw(st.floats(lo, hi).filter(bool))  # u = mu in the grid: singular columns
    else:
        lam = draw(st.floats(0.2, 2.0)) * (-1.0 if kind == "contracting" else 1.0)
        mu = draw(st.floats(-3.0, 3.0))  # inside or outside Omega
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    rs = make_rs(lam=lam, mu=mu, eta=(math.cos(angle), math.sin(angle)), omega=(lo, hi))
    # The default box of the system, with a coarse grid and longer steps.
    base = default_grid_config(rs, n_controls=draw(st.integers(3, 5)))
    xmin, xmax, ymin, ymax = base.bounds
    controls = list(base.controls) + ([mu] if kind == "trace_zero" else [])
    resolution = (xmax - xmin) / draw(st.integers(8, 24))
    time_step = base.time_step * draw(st.floats(5.0, 40.0))
    steps = draw(st.integers(2, 5))  # arc steps, the STEPS_PER_ARC to patch in
    cfg = GridConfig(base.bounds, resolution, controls, time_step)
    fx, fy = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
    x0 = np.array([xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin)])
    return rs, cfg, x0, draw(st.sampled_from([+1, -1])), draw(st.integers(1, 3)), steps


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_small_reach_cases())
def test_reach_matches_scalar_loop_on_generated_grids(case):
    rs, cfg, x0, direction, rows, steps = case
    with _steps_per_arc(steps):
        with pytest.MonkeyPatch.context() as mp:
            _small_chunks(mp, rows, cfg)
            got = R._reach(rs, x0, cfg, direction)
        occ, rep_x, rep_y, rounds = _reach_by_loop(rs, x0, cfg, direction)
    assert np.array_equal(got.occupied, occ)
    _assert_reps_at_ids(got, rep_x, rep_y)
    assert got.rounds == rounds


# -- certified cells from one product per axis ----------------------------


def _control_constants_by_loop(rs, cfg, direction):
    """Scalar reference of the flow constants: one column at a time."""
    dt = direction * cfg.time_step
    n_steps = cfg.steps_per_arc
    out = [np.zeros(cfg.controls.size * n_steps) for _ in range(7)]
    sing, vux, vuy, ecos, esin, linx, liny = out
    sing = sing.astype(bool)
    ecos[:] = 1.0
    c = 0
    for u in cfg.controls:
        vu = None if rs.det_a_of_u(u) == 0.0 else equilibrium(rs, u)
        for k in range(1, n_steps + 1):
            s = k * dt
            if vu is None:
                sing[c] = True
                linx[c] = s * u * rs.eta[0]
                liny[c] = s * u * rs.eta[1]
            else:
                vux[c], vuy[c] = vu
                ang = s * (rs.mu - u)
                efac = math.exp(s * rs.lam)
                ecos[c] = efac * math.cos(ang)
                esin[c] = efac * math.sin(ang)
            c += 1
    return (sing,) + tuple(out[1:])


def _control_constants_by_math_lists(rs, cfg, direction):
    """Scalar reference of the flow constants: per-element math.exp, cos and
    sin lists and a per-control singular test, independent of the flow
    layer's _exp and cis that the kernel's columns come from."""
    us = cfg.controls
    s = np.arange(1, cfg.steps_per_arc + 1) * (direction * cfg.time_step)
    sing_u = np.array([rs.det_a_of_u(u) == 0.0 for u in us.tolist()])
    sing = np.repeat(sing_u, s.size)
    vu = np.zeros((us.size, 2))
    vu[~sing_u] = equilibrium(rs, us[~sing_u])
    efac = np.tile([math.exp(x) for x in (s * rs.lam).tolist()], us.size)
    ang = (s * (rs.mu - us)[:, None]).ravel().tolist()
    ecos = np.where(sing, 1.0, efac * np.array([math.cos(a) for a in ang]))
    esin = np.where(sing, 0.0, efac * np.array([math.sin(a) for a in ang]))
    su = (s * us[:, None]).ravel()
    linx, liny = (np.where(sing, su * e, 0.0) for e in rs.eta)
    vux, vuy = (np.repeat(c, s.size) for c in vu.T)
    return sing, vux, vuy, ecos, esin, linx, liny


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(_small_reach_cases())
# v(1/6) = (-1e-324, 0.2) rounds to (-0, 0.2): once +0 for a 0-d u and -0 in an array.
@example((make_rs(lam=0.0, mu=1.0, eta=(1.0, 5e-324)),
          GridConfig((-1.0, 1.0, -1.0, 1.0), 0.1, [-1.0, 1.0 / 6.0, 1.0], 0.05), np.zeros(2), 1, 1, 3))
def test_control_constants_equal_the_scalar_loop_bit_for_bit(case):
    # The trace-zero cases put u = mu in the grid: a singular column.
    rs, cfg, _, direction, _, steps = case
    with _steps_per_arc(steps):
        got = R._control_constants(rs, cfg, direction)
        for reference in (_control_constants_by_loop, _control_constants_by_math_lists):
            for a, b in zip(got, reference(rs, cfg, direction), strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def _cell_map_cases(draw):
    """Flow constants with a grid origin up to 1e8 away, a resolution down to
    1e-7 and frontier points anywhere in a box of up to 1e5 cells around it."""
    rs, cfg, _, direction, _, steps = draw(_small_reach_cases())
    with _steps_per_arc(steps):
        consts = R._control_constants(rs, cfg, direction)
    x0, y0 = (draw(st.floats(-1e8, 1e8)) for _ in range(2))
    res = 10.0 ** draw(st.floats(-7.0, 1.0))
    cells = 10.0 ** draw(st.floats(0.0, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    px = x0 + rng.uniform(-0.2, 1.2, 16) * cells * res
    py = y0 + rng.uniform(-0.2, 1.2, 16) * cells * res
    return consts, x0, y0, res, px, py


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_cell_map_cases())
def test_cell_maps_bound_the_distance_to_the_exact_cell_values(case):
    consts, x0, y0, res, px, py = case
    reach = float(np.abs(px).max() + np.abs(py).max())
    mx, my, delta = R._cell_maps(consts, x0, y0, res, reach)
    pts = np.stack([px, py, np.ones_like(px)], axis=1)
    approx = (pts @ mx, pts @ my)
    # The exact pre-floor values, one scalar at a time as the loop forms them.
    sing, vux, vuy, ecos, esin, linx, liny = (c.tolist() for c in consts)
    exact = np.empty((2, px.size, len(vux)))
    for r, (x, y) in enumerate(zip(px.tolist(), py.tolist())):
        for c in range(len(vux)):
            if sing[c]:
                qx, qy = x + linx[c], y + liny[c]
            else:
                dx, dy = x - vux[c], y - vuy[c]
                qx = vux[c] + ecos[c] * dx - esin[c] * dy
                qy = vuy[c] + esin[c] * dx + ecos[c] * dy
            exact[:, r, c] = (qx - x0) / res, (qy - y0) / res
    assert delta > 0.0
    for a, z in zip(approx, exact):
        assert np.all(np.abs(a - z) < delta / 2)
        # The certification: a value at least delta inside its cell has the
        # exact value's floor.
        k = np.floor(a)
        inside = (a - k >= delta) & (a - k <= 1.0 - delta)
        assert np.array_equal(k[inside], np.floor(z[inside]))


@pytest.mark.parametrize("lam", [1.0, -1.0, 0.0])
def test_cell_maps_bound_is_far_below_a_cell_on_default_grids(lam):
    rs = make_rs(lam=lam)
    cfg = default_grid_config(rs)
    xmin, xmax, ymin, ymax = cfg.bounds
    reach = max(abs(xmin), abs(xmax)) + max(abs(ymin), abs(ymax))
    for direction in (+1, -1):
        consts = R._control_constants(rs, cfg, direction)
        assert R._cell_maps(consts, xmin, ymin, cfg.resolution, reach)[2] < 1e-10


def test_control_constants_reject_translations_that_overflow():
    # u = mu translates by (s u) eta: 24e305 * 0.5 * 1e3 overflows, while
    # every angle s (mu - u) stays finite.
    rs = make_rs(lam=0.0, mu=0.5, eta=(1e3, 0.0), omega=(-1.0, 1.0))
    cfg = GridConfig((-1.0, 1.0, -1.0, 1.0), 0.1, [0.5, 1.0], 1e305)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^time_step 1e[+]305 is out of range: "):
            R._control_constants(rs, cfg, +1)


def test_cell_maps_give_no_bound_where_values_overflow(monkeypatch):
    rs, cfg, _ = _singular_case(monkeypatch)
    consts = R._control_constants(rs, cfg, +1)
    for x0, res, reach in ((0.0, 1e-300, 1.0), (1e308, 1.0, 1e308), (0.0, 1.0, np.nan)):
        assert not R._cell_maps(consts, x0, x0, res, reach)[2] < 0.25


def _spy_on_exact_chunks(monkeypatch):
    """Record the shape of every chunk that forms its candidates exactly."""
    shapes = []
    images = R._images

    def spy(px, *args):
        if np.ndim(px) == 2:
            shapes.append(np.broadcast_shapes(np.shape(px), np.shape(args[1])))
        return images(px, *args)

    monkeypatch.setattr(R, "_images", spy)
    return shapes


@pytest.mark.parametrize("rows", [1, 2, 10**9])
@pytest.mark.parametrize(
    "res, dt, steps, frontier",
    [
        # Binary fractions: the images lie exactly on cell edges.
        (0.125, 0.25, 5, [[-0.5, 0.25, 0.0, -1.0], [0.25, 0.5, -0.75, 0.0]]),
        # Decimal ones: the images round to either side of the edges.
        (0.1, 0.2, 5, [[-0.5, 0.3, 0.0, -0.8, 0.6], [0.2, 0.5, -0.7, 0.1, -0.3]]),
        # Products just below an edge whose exact images lie on or above it.
        (0.1, 0.4, 1, [[-0.9, -0.7, 0.3], [0.05, 0.05, 0.05]]),
    ],
)
def test_round_with_images_on_cell_edges_takes_the_exact_path(monkeypatch, rows, res, dt, steps, frontier):
    # Translation columns move frontier points on cell edges by whole
    # cells, so every chunk has images on (or within rounding of) a cell
    # edge, where the product's cells are not certified: every chunk forms
    # its images exactly and gives the scalar loop's claims bit for bit.
    rs = make_rs(lam=0.0, mu=0.5, omega=(-1.0, 1.0))
    monkeypatch.setattr(R, "STEPS_PER_ARC", steps)
    cfg = GridConfig((-1.0, 1.0, -1.0, 1.0), res, [0.5], dt)
    consts = R._control_constants(rs, cfg, +1)
    assert consts[0].all()
    _small_chunks(monkeypatch, rows, cfg)
    shapes = _spy_on_exact_chunks(monkeypatch)
    nx, ny = cfg.shape
    grid = (nx, ny, -1.0, -1.0, cfg.resolution)
    occupied = np.zeros(nx * ny, dtype=bool)
    occupied[::3] = True
    frontier = np.array(frontier)
    ref, _ = _round_by_loop(occupied, grid, *frontier, consts)
    occ_flat = occupied.copy()
    got = R._expand_round(occ_flat, *grid, *frontier, consts)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(occ_flat, occupied | np.isin(np.arange(nx * ny), ref[0]))
    assert sum(math.prod(s) for s in shapes) == frontier.shape[1] * consts[0].size


def test_round_off_the_grid_keeps_the_certified_cells(monkeypatch):
    # Images off the grid do not force the exact path: the product's cells
    # are certified, and the masked path drops the candidates off the grid.
    rs, cfg, _ = _singular_case(monkeypatch)
    consts = R._control_constants(rs, cfg, +1)
    shapes = _spy_on_exact_chunks(monkeypatch)
    nx, ny = cfg.shape
    grid = (nx, ny, cfg.bounds[0], cfg.bounds[2], cfg.resolution)
    occupied = np.zeros(nx * ny, dtype=bool)
    frontier = np.random.default_rng(5).uniform(0.9, 0.999, (2, 6))
    ref, on_grid = _round_by_loop(occupied, grid, *frontier, consts)
    assert not on_grid
    got = R._expand_round(occupied.copy(), *grid, *frontier, consts)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert shapes == []


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("chunk", [1, 7, 29])
def test_columns_split_past_a_chunk_match_scalar_loop(monkeypatch, direction, chunk):
    # Under one chunk's worth of columns per row, a row's columns are split
    # into blocks, which keeps the canonical order.
    rs, cfg, x0 = _singular_case(monkeypatch)
    assert chunk < cfg.controls.size * cfg.steps_per_arc
    monkeypatch.setattr(R, "_CHUNK_CANDIDATES", chunk)
    got = R._reach(rs, x0, cfg, direction)
    occ, rep_x, rep_y, rounds = _reach_by_loop(rs, x0, cfg, direction)
    assert np.array_equal(got.occupied, occ)
    _assert_reps_at_ids(got, rep_x, rep_y)
    assert got.rounds == rounds


def test_a_large_control_grid_keeps_every_product_blocked(monkeypatch):
    # --control-grid 2000: over 48,000 columns per frontier row.  Every product
    # stays at most a chunk of outputs, and the reach set equals the one
    # of unsplit rows.
    rs = make_rs()
    cfg = default_grid_config(rs, resolution=rs.ball.radius / 12.0, n_controls=2000)
    x0 = equilibrium(rs, 0.5)
    sizes = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        sizes.append(a.shape[0] * b.shape[1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    got = reach_backward(rs, x0, cfg)
    assert cfg.controls.size * cfg.steps_per_arc > 2 * R._CHUNK_CANDIDATES
    assert sizes and max(sizes) <= R._CHUNK_CANDIDATES
    assert got.cell_count > 10
    monkeypatch.setattr(R, "_CHUNK_CANDIDATES", 10**6)
    _assert_same_reach(got, reach_backward(rs, x0, cfg))


def test_reach_keeps_the_sorted_ids_of_its_cells():
    rs = make_rs()
    r = reach_backward(rs, equilibrium(rs, 0.5), small_cfg(rs))
    assert np.array_equal(r.ids, np.flatnonzero(r.occupied))
    assert np.array_equal(r.occupied_cells(), np.argwhere(r.occupied))
    assert r.cell_count == np.count_nonzero(r.occupied)


def test_representatives_live_in_their_cells():
    rs = make_rs()
    cfg = small_cfg(rs)
    r = reach_backward(rs, equilibrium(rs, 0.5), cfg)
    cells = r.occupied_cells()
    reps = representatives(r)
    assert np.all(np.isfinite(reps))
    for (i, j), p in zip(cells, reps):
        ci, cj = cfg.cell_of(p)
        assert (ci, cj) == (i, j)


def test_seed_cell_always_occupied():
    rs = make_rs()
    cfg = small_cfg(rs)
    x0 = equilibrium(rs, 0.5)
    r = reach_backward(rs, x0, cfg)
    assert contains(r, x0)
    assert r.cell_count >= 1


# -- containment and coverage -------------------------------------------


def test_backward_reach_inside_invariant_ball():
    rs = make_rs()
    ball = rs.ball
    cfg = small_cfg(rs)
    r = reach_backward(rs, equilibrium(rs, 0.5), cfg)
    centers = r.cell_centers()
    d = np.linalg.norm(centers - np.asarray(ball.center), axis=1)
    assert np.max(d) <= ball.radius + cfg.cell_diagonal
    reps = representatives(r)
    d = np.linalg.norm(reps - np.asarray(ball.center), axis=1)
    assert np.max(d) <= ball.radius + 1e-12


def test_forward_reach_mirror_case_inside_ball():
    rs = make_rs(lam=-1.0, mu=2.0)
    ball = rs.ball
    cfg = small_cfg(rs)
    r = reach_forward(rs, equilibrium(rs, 0.5), cfg)
    reps = representatives(r)
    d = np.linalg.norm(reps - np.asarray(ball.center), axis=1)
    assert np.max(d) <= ball.radius + 1e-12


def test_forward_reach_expanding_case_escapes_any_disk():
    rs = make_rs()
    ball = rs.ball
    cfg = small_cfg(rs)
    r = reach_forward(rs, equilibrium(rs, 0.5), cfg)
    centers = r.cell_centers()
    d = np.linalg.norm(centers - np.asarray(ball.center), axis=1)
    # Escapes the ball by a wide margin: reaches at least the bounds ring.
    assert np.max(d) > 1.4 * ball.radius


def test_backward_of_forward_contains_seed():
    rs = make_rs()
    cfg = small_cfg(rs)
    x0 = equilibrium(rs, 0.3)
    fwd = reach_forward(rs, x0, cfg)
    reps = representatives(fwd)
    inside = reps[np.linalg.norm(reps - x0, axis=1) < 0.5]
    target = inside[len(inside) // 2]
    back = reach_backward(rs, target, cfg)
    assert contains(back, x0)


def test_trace_zero_forward_covers_disk():
    rs = make_rs(lam=0.0, mu=1.0, omega=(-0.5, 0.5))
    cfg = GridConfig((-1.6, 1.6, -1.6, 1.6), 0.04, control_grid(rs.omega, R.DEFAULT_N_CONTROLS), 0.05)
    r = reach_forward(rs, np.zeros(2), cfg)
    centers = _grid_centers(cfg)
    disk = np.linalg.norm(centers, axis=2) <= 1.0
    frac = float((r.occupied & disk).sum()) / float(disk.sum())
    assert frac >= 0.99


def _grid_centers(cfg):
    nx, ny = cfg.shape
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return np.stack(
        [cfg.bounds[0] + (ii + 0.5) * cfg.resolution,
         cfg.bounds[2] + (jj + 0.5) * cfg.resolution],
        axis=2,
    )


def test_equilibria_coverage_survives_refinement():
    rs = make_rs()
    ball = rs.ball
    coarse = default_grid_config(rs, resolution=ball.radius / 50.0)
    fine = default_grid_config(rs, resolution=ball.radius / 100.0)
    x0 = equilibrium(rs, 0.5)
    r_coarse = reach_backward(rs, x0, coarse)
    r_fine = reach_backward(rs, x0, fine)
    lo, hi = rs.omega
    for u in coarse.controls:
        if not (lo < u < hi):
            continue
        vu = equilibrium(rs, u)
        assert contains(r_coarse, vu)
        assert contains(r_fine, vu)


def test_max_cells_truncation():
    rs = make_rs()
    cfg = default_grid_config(rs, max_cells=50)
    r = reach_backward(rs, equilibrium(rs, 0.5), cfg)
    assert r.truncated
    assert r.cell_count <= 50 + len(cfg.controls) * cfg.steps_per_arc


def test_binary_erode_block():
    occ = np.zeros((7, 7), dtype=bool)
    occ[2:5, 2:5] = True
    core = binary_erode(occ)
    expect = np.zeros_like(occ)
    expect[3, 3] = True
    assert np.array_equal(core, expect)
    assert not binary_erode(occ, 2).any()


# -- estimation ----------------------------------------------------------


def test_default_seed_control_avoids_mu():
    assert default_seed_control(make_rs(lam=1.0, mu=0.5)) != 0.5


def test_estimate_open_case():
    est = estimate_control_set(make_rs(), small_cfg(make_rs()))
    assert est.case == "open"
    assert est.ball_check["violations"] == 0


def test_estimate_closed_case():
    rs = make_rs(lam=-1.0)
    est = estimate_control_set(rs, small_cfg(rs))
    assert est.case == "closed_bounded"


def test_estimate_trace_zero_case():
    rs = make_rs(lam=0.0, mu=1.0, omega=(-0.5, 0.5))
    cfg = GridConfig((-1.6, 1.6, -1.6, 1.6), 0.04, control_grid(rs.omega, R.DEFAULT_N_CONTROLS), 0.05)
    est = estimate_control_set(rs, cfg)
    assert est.case == "all_plane"
    assert est.coverage["fraction"] >= 0.99


# -- trace zero: stop once the test disk is covered ----------------------

TRACE_ZERO_CASES = [
    # (reduced system, grid config)
    (make_rs(lam=0.0, mu=1.0, omega=(-2.0, 2.0)), dict(resolution=0.05)),
    (make_rs(lam=0.0, mu=1.0, eta=(0.6, -0.8), omega=(-0.5, 1.5)), dict(resolution=0.04)),
    (make_rs(lam=0.0, mu=-2.0, eta=(0.1, 0.05), omega=(-1.0, 3.0)), dict(resolution=0.01)),
]


def _tz_cfg(rs, kwargs):
    return default_grid_config(rs, **kwargs)


def _coverage_whole_grid(region, center, radius):
    """The coverage formula over every cell centre of the grid, as it stood
    before coverage was restricted to the disk's bounding box."""
    cfg = region.config
    nx, ny = cfg.shape
    xs = cfg.bounds[0] + (np.arange(nx) + 0.5) * cfg.resolution
    ys = cfg.bounds[2] + (np.arange(ny) + 0.5) * cfg.resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    inside = np.linalg.norm(centers - np.asarray(center, float), axis=1) <= radius
    if not np.any(inside):
        return 0.0
    occ = region.occupied.reshape(-1)
    return float(np.count_nonzero(occ & inside)) / float(np.count_nonzero(inside))


@pytest.mark.parametrize("rs, kwargs", TRACE_ZERO_CASES)
def test_trace_zero_stop_is_prefix_of_fixed_point(rs, kwargs):
    cfg = _tz_cfg(rs, kwargs)
    full = R._reach(rs, np.zeros(2), cfg, +1)
    est = estimate_control_set(rs, cfg)
    got = est.region
    assert not full.truncated and not got.truncated
    assert got.rounds < full.rounds  # the stop fired
    assert got.cell_count < full.cell_count
    assert not np.any(got.occupied & ~full.occupied)
    at = np.searchsorted(full.ids, got.ids)
    assert np.array_equal(full.ids[at], got.ids)
    assert np.array_equal(representatives(got), representatives(full)[at])
    assert got.rep_x.shape == got.rep_y.shape == got.ids.shape
    radius = est.coverage["disk_radius"]
    assert est.coverage["fraction"] == _coverage_whole_grid(full, np.zeros(2), radius) == 1.0
    assert "stop once every cell meeting the disk is occupied" in est.diagnostics["note"]


@pytest.mark.parametrize("rs, kwargs", TRACE_ZERO_CASES)
def test_trace_zero_stop_covers_every_point_of_the_closed_disk(rs, kwargs):
    cfg = _tz_cfg(rs, kwargs)
    est = estimate_control_set(rs, cfg)
    radius = est.coverage["disk_radius"]
    rng = np.random.default_rng(7)
    ang = rng.uniform(0.0, 2.0 * np.pi, 3000)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, 3000))
    rad[:1000] = radius  # points on the circle itself
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    assert all(contains(est.region, p) for p in pts)
    # Equilibria v(u) inside the disk, as the benchmark tests them.
    for u in control_grid(rs.omega, 41):
        if rs.det_a_of_u(u) != 0.0:
            vu = equilibrium(rs, u)
            if np.hypot(*vu) <= radius:
                assert contains(est.region, vu)


def test_trace_zero_uncoverable_disk_gives_the_full_fixed_point():
    rs, kwargs = TRACE_ZERO_CASES[0]
    # Bounds that cut the disk of radius |eta| = 1: its cover set is empty.
    cfg = default_grid_config(rs, resolution=0.05, bounds=(-0.9, 3.0, -3.0, 3.0))
    assert R._disk_cells(cfg, np.zeros(2), 1.0)[0].size == 0
    est = estimate_control_set(rs, cfg)
    full = R._reach(rs, np.zeros(2), cfg, +1)
    _assert_same_reach(est.region, full)
    assert est.coverage["fraction"] == _coverage_whole_grid(full, np.zeros(2), 1.0)
    # max_cells reached before the disk is covered.
    cfg = _tz_cfg(rs, dict(kwargs, max_cells=2000))
    est = estimate_control_set(rs, cfg)
    full = R._reach(rs, np.zeros(2), cfg, +1)
    assert full.truncated
    _assert_same_reach(est.region, full)
    assert est.coverage["fraction"] == _coverage_whole_grid(full, np.zeros(2), 1.0) < 1.0


def test_trace_zero_empty_cover_set_is_ignored():
    rs, _ = TRACE_ZERO_CASES[0]
    cfg = _tz_cfg(rs, dict(resolution=0.1))
    full = R._reach(rs, np.zeros(2), cfg, +1)
    _assert_same_reach(R._reach(rs, np.zeros(2), cfg, +1, np.zeros(0, dtype=np.int64)), full)
    _assert_same_reach(reach_forward(rs, np.zeros(2), cfg, cover=np.zeros(0, dtype=np.int64)), full)


def test_cover_set_holds_every_cell_that_meets_the_disk():
    rs = make_rs(lam=0.0, mu=1.0)
    cfg = GridConfig((-1.3, 1.7, -2.0, 1.1), 0.07, control_grid(rs.omega, R.DEFAULT_N_CONTROLS), 0.05)
    nx, ny = cfg.shape
    for center, radius in (((0.0, 0.0), 1.0), ((0.31, -0.22), 0.4), ((0.0, 0.0), 0.0)):
        cover = set(R._disk_cells(cfg, center, radius)[0].tolist())
        # A cell meets the disk iff its nearest point lies within the radius.
        for i in range(nx):
            for j in range(ny):
                x0 = cfg.bounds[0] + i * cfg.resolution
                y0 = cfg.bounds[2] + j * cfg.resolution
                nearest = (
                    min(max(center[0], x0), x0 + cfg.resolution),
                    min(max(center[1], y0), y0 + cfg.resolution),
                )
                if math.dist(nearest, center) <= radius:
                    assert i * ny + j in cover


@pytest.mark.parametrize(
    "bounds, resolution, center, radius",
    [
        ((-4.0, 4.0, -4.0, 4.0), 0.02, (0.0, 0.0), 1.0),
        ((-4.0, 4.0, -4.0, 4.0), 0.07, (0.3, -1.1), 0.77),
        ((-0.9, 3.0, -3.0, 0.5), 0.05, (0.0, 0.0), 1.0),  # bounds cut the disk
        ((-1.0, 1.0, -1.0, 1.0), 0.1, (0.0, 0.0), 5.0),  # disk beyond the grid
        ((-1.0, 1.0, -1.0, 1.0), 0.1, (3.0, 0.0), 0.5),  # disk off the grid
        ((-1.0, 1.0, -1.0, 1.0), 0.1, (0.05, 0.05), 0.0),
        ((-1.0, 1.0, -1.0, 1.0), 0.1, (0.0, 0.0), math.inf),
    ],
)
def test_coverage_equals_whole_grid_formula(bounds, resolution, center, radius):
    rs = make_rs(lam=0.0, mu=1.0, omega=(-2.0, 2.0))
    for max_cells in (300, R.DEFAULT_MAX_CELLS):
        cfg = GridConfig(bounds, resolution, control_grid(rs.omega, 9), 0.05, max_cells=max_cells)
        region = R._reach(rs, np.zeros(2), cfg, +1)
        got = R._occupied_share(region, R._disk_cells(cfg, center, radius)[1])
        assert got == _coverage_whole_grid(region, center, radius)


def test_trace_zero_estimate_memory_stays_near_the_grid_budget():
    import tracemalloc

    rs = make_rs(lam=0.0, mu=1.0, omega=(-2.0, 2.0))
    cfg = default_grid_config(rs, resolution=0.004, n_controls=5, max_cells=1)
    nx, ny = cfg.shape
    assert (nx, ny) == (2000, 2000)
    budget = R.GRID_BYTES_PER_CELL * nx * ny
    tracemalloc.start()
    try:
        est = estimate_control_set(rs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.region.cell_count == 1
    assert peak < 2 * budget


def test_open_estimate_memory_stays_below_one_float64_grid():
    # A reach set keeps one occupancy byte per grid cell and its points only
    # for the claimed cells (0.2-3 % of a default grid), so the traced peak of
    # a default open estimate stays below one nx x ny float64 grid.
    import tracemalloc

    rs = make_rs()
    cfg = default_grid_config(rs)
    nx, ny = cfg.shape
    assert (nx, ny) == (600, 600)
    tracemalloc.start()
    try:
        est = estimate_control_set(rs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.case == "open" and est.region.cell_count > 10_000
    assert peak < 8 * nx * ny


def test_boundary_periodic_orbit_values():
    """classify's one-point control set {v(mu)} is the equilibrium the reach
    flows use, and the flow at u = mu holds it fixed for a whole period."""
    A = np.array([[1.0, -2.0], [2.0, 1.0]])  # lam = 1, mu = 2
    spec = SystemSpec(1.0, np.zeros(2), A, np.array([1.0, 0.0]), (-3.0, 3.0))
    b = classify(prepare(spec)).boundary_structure
    assert b["kind"] == "periodic_orbit"
    assert b["control"] == 2.0
    assert b["period"] == math.pi
    rs = reduce_system(spec)
    vmu = equilibrium(rs, 2.0)
    assert np.allclose(b["plane_point"], vmu, atol=1e-15)
    after = flow_r2(rs, b["period"], np.asarray(b["plane_point"]), b["control"])
    assert np.allclose(after, vmu, atol=1e-12)


def test_outside_points_never_enter_core():
    """Forward flows seeded outside the open control set avoid its eroded core."""
    rs = make_rs()
    cfg = small_cfg(rs)
    est = estimate_control_set(rs, cfg)
    occ = est.region.occupied
    core = binary_erode(occ, 2)
    dilated = occ | ~binary_erode(~occ, 1)
    rng = np.random.default_rng(5)
    nx, ny = cfg.shape
    draws = 0
    tested = 0
    while tested < 20 and draws < 4000:
        draws += 1
        i, j = rng.integers(0, nx), rng.integers(0, ny)
        if dilated[i, j]:
            continue
        p = np.array(cfg.bounds[::2]) + (np.array([i, j]) + 0.5) * cfg.resolution
        tested += 1
        for u in (-1.0, -0.4, 0.2, 0.9):
            v = p.copy()
            for _ in range(60):
                v = flow_r2(rs, 0.05, v, u)
                if not cfg.in_bounds(v):
                    break
                ci, cj = cfg.cell_of(v)
                assert not core[ci, cj]


# -- degenerate case -----------------------------------------------------


def make_degenerate():
    return SystemSpec(1.0, np.array([1.0, 0.0]), np.zeros((2, 2)),
                      np.zeros(2), (-1.0, 1.0))


def test_steer_degenerate_reaches_online_targets():
    spec = make_degenerate()
    for c in (0.5, 1.0, -0.7):
        segments, _, residuals = steer_degenerate(spec, np.zeros(2), np.array([c, 0.0]))
        assert residuals[0] < 1e-9
        assert PiecewiseControl(segments[0].tolist()).within((-1.0, 1.0))


def test_steer_degenerate_offline_target_keeps_residual():
    spec = make_degenerate()
    _, _, residuals = steer_degenerate(spec, np.zeros(2), np.array([0.5, -0.3]))
    assert residuals[0] > 1e-4


def _size_degenerate_check(monkeypatch, trajectories, pairs):
    monkeypatch.setattr(R, "DEGENERATE_TRAJECTORIES", trajectories)
    monkeypatch.setattr(R, "DEGENERATE_PAIRS", pairs)


def test_degenerate_structure_check_passes(monkeypatch):
    _size_degenerate_check(monkeypatch, 40, 8)
    rep = degenerate_structure_check(make_degenerate(), seed=3)
    assert rep.passed
    assert rep.min_functional_increment > 0.0
    assert rep.counterexamples == 0
    assert rep.n_mutual > 0
    assert rep.irreversible_confirmed > 0
    for pair in rep.pairs:
        if pair["mutual"]:
            assert pair["functional"] < 1e-6


def test_degenerate_structure_check_passes_where_the_functional_overflowed():
    # Every increment of H(v) = <v - v0, theta xi> overflowed to NaN here in
    # the spec's units, and the check raised; in units of xi it is finite.
    spec = SystemSpec(1e180, np.array([1e160, 3.0]), np.zeros((2, 2)), np.zeros(2), (-1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = degenerate_structure_check(spec)
    assert rep.passed and 0.0 < rep.min_functional_increment < math.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_degenerate_structure_check_rejects_non_finite_steering(monkeypatch, bad):
    leg = R._steer_leg

    def spoiled(steering, v_from, v_to):
        segments, ends, residuals = leg(steering, v_from, v_to)
        residuals[-1] = bad
        return segments, ends, residuals

    monkeypatch.setattr(R, "_steer_leg", spoiled)
    _size_degenerate_check(monkeypatch, 5, 4)
    with pytest.raises(ValueError, match="steering values are not finite"):
        degenerate_structure_check(make_degenerate())


def _degenerate_specs(rng):
    specs = [make_degenerate()]
    for scale in (1.0, 0.05, 20.0):
        alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        specs.append(SystemSpec(alpha, rng.normal(size=2) * scale, np.zeros((2, 2)),
                                rng.normal(size=2), (-rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))))
    return specs


def _assert_rows_equal_one_row_calls(spec, v_from, v_to):
    segments, ends, residuals = steer_degenerate(spec, v_from, v_to)
    assert segments.shape == (len(v_from), 5, 2) and ends.shape == (len(v_from), 3)
    for i in range(len(v_from)):
        one = steer_degenerate(spec, v_from[i], v_to[i])
        assert [a.shape for a in one] == [(1, 5, 2), (1, 3), (1,)]
        if np.array_equal(v_from[i], v_to[i]):
            assert not segments[i].any() and residuals[i] == 0.0
            assert np.array_equal(ends[i], [0.0, *v_from[i]])
        for a, b in zip(one, (segments, ends, residuals)):
            assert np.array_equal(a[0].view(np.int64), b[i].view(np.int64))


def test_steer_degenerate_batch_rows_equal_one_row_calls(rng):
    for spec in _degenerate_specs(rng):
        xi = spec.xi / np.linalg.norm(spec.xi)
        v_from = rng.normal(size=(8, 2))
        # On-line targets, off-line targets on both sides, and v_from itself.
        offset = np.array([0.0, 0.0, 0.3, -0.3, 0.0, 1e-3, -2.0, 0.0])
        v_to = v_from + rng.uniform(-1.5, 1.5, size=(8, 1)) * xi + offset[:, None] * perp(xi)
        v_to[4] = v_from[4]
        v_to[7] = v_from[7]
        _assert_rows_equal_one_row_calls(spec, v_from, v_to)
        # One start point broadcast against many targets, as the check calls it.
        _, ends, residuals = steer_degenerate(spec, v_from[0], v_to)
        one = steer_degenerate(spec, np.tile(v_from[0], (8, 1)), v_to)
        assert np.array_equal(ends, one[1]) and np.array_equal(residuals, one[2])


_coord = st.floats(-3.0, 3.0)


@st.composite
def _steer_cases(draw):
    alpha = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from((1.0, -1.0)))
    xi = [draw(st.floats(0.05, 5.0)) * draw(st.sampled_from((1.0, -1.0))), draw(_coord)]
    omega = (-draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0)))
    spec = SystemSpec(alpha, xi, np.zeros((2, 2)), [draw(_coord), draw(_coord)], omega)
    n = draw(st.integers(1, 4))
    v_from = np.array([[draw(_coord), draw(_coord)] for _ in range(n)])
    v_to = np.array([[draw(_coord), draw(_coord)] for _ in range(n)])
    if draw(st.booleans()):
        v_to[0] = v_from[0]
    return spec, v_from, v_to


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(_steer_cases())
def test_steer_degenerate_batch_rows_equal_one_row_calls_on_generated_specs(case):
    _assert_rows_equal_one_row_calls(*case)


def test_degenerate_structure_check_matches_recorded_reports(monkeypatch):
    # Reports recorded before the check was batched; the bytes must not move.
    # Half the cases were recorded at 100 trajectories and 12 pairs.
    path = pathlib.Path(__file__).with_name("degenerate_reports.json")
    for case in json.loads(path.read_text()):
        d = case["spec"]
        spec = SystemSpec(d["alpha"], d["xi"], np.zeros((2, 2)), d["eta1"], tuple(d["omega"]))
        _size_degenerate_check(monkeypatch, case["n_samples"], case["n_pairs"])
        rep = degenerate_structure_check(spec, seed=case["seed"])
        assert json.dumps(_report(rep), sort_keys=True) == json.dumps(case["report"], sort_keys=True)


def _report(rep) -> dict:
    """A DegenerateReport's fields and its verdict, as the recorded reports hold them."""
    return {**dataclasses.asdict(rep), "passed": rep.passed}


def _outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


_magnitude = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


@st.composite
def _degenerate_check_cases(draw):
    sign = st.sampled_from((1.0, -1.0))
    alpha = draw(sign) * draw(_magnitude)
    scale = draw(_magnitude)
    xi = [draw(st.floats(-3.0, 3.0)) * scale, draw(st.floats(-3.0, 3.0)) * scale]
    omega = (-draw(_magnitude), draw(_magnitude))
    spec = SystemSpec(alpha, xi, np.zeros((2, 2)), [draw(_coord), draw(_coord)], omega)
    return spec, draw(st.integers(0, 2**32 - 1))


def _growth_bound(u, dur, growth):
    """Bound on |closed form - stepwise growth| over |xi|^2, stated before either was run.

    Both take the same segment start angles.  The stepwise growth is a
    difference of H values flowed from each segment's start translation,
    which carries the rounding of every segment before it, so it is off by
    a few roundings eps = 2**-53 of (T + |H| / |xi|^2), T the trajectory's
    duration; a sample's angle is off by a few roundings of (1 + A), A the
    angle it has swept, and the growth moves by at most h per radian.  The
    bound is 2**-45 (1 + A) (T + (|H_prev| + |H|) / |xi|^2), 256 eps times
    both, with H / |xi|^2 summed from the stepwise growth.
    """
    h = np.cumsum(growth.reshape(len(growth), -1), axis=1).reshape(growth.shape)
    h_prev = np.concatenate([np.zeros((len(h), 1)), h.reshape(len(h), -1)[:, :-1]], axis=1).reshape(h.shape)
    sweep = np.sum(np.abs(u) * dur, axis=1)[:, None, None]
    total = np.sum(dur, axis=1)[:, None, None]
    return 2.0**-45 * (1.0 + sweep) * (total + np.abs(h_prev) + np.abs(h))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_degenerate_check_cases())
def test_degenerate_structure_check_equals_the_stepwise_reference(case):
    # The reference runs in the units of xi the library takes: there the
    # pairs of (b) must equal it bit for bit, and every closed-form growth of
    # (a) must lie within _growth_bound of the stepwise one.
    spec, seed = case
    unit, k = unit_spec(spec)
    want = _outcome(reference_check, unit, seed)
    got = _outcome(degenerate_structure_check, spec, seed)
    if isinstance(want, str):
        assert got == want
        return
    want, u, dur, growth = want
    closed = R._functional_increments(u, dur)
    assert got.min_functional_increment == closed.min()
    assert np.all(np.abs(closed - growth) <= _growth_bound(u, dur, growth))
    # The verdict is left out: where u h is tiny, rounding leaves the
    # stepwise growth 0 or below while the closed form stays positive.
    pairs_only = [{**_report(rep), "min_functional_increment": None, "passed": None} for rep in (got, want)]
    assert json.dumps(pairs_only[0], sort_keys=True) == json.dumps(pairs_only[1], sort_keys=True)
    # The legs on their own, with a pair at rest: the library's rows are the
    # reference's on the unit spec, scaled back by 2**-k.
    rng = np.random.default_rng(seed)
    v_from = rng.normal(size=(5, 2)) * float(np.abs(spec.xi).max())
    v_to = v_from + rng.normal(size=(5, 2)) * float(np.abs(spec.xi).max())
    v_to[0] = v_from[0]
    want = _outcome(reference_steer_batch, unit, np.ldexp(v_from, k), np.ldexp(v_to, k))
    got = _outcome(steer_degenerate, spec, v_from, v_to)
    if isinstance(want, str):
        assert got == want
        return
    want[1][:, 1:] = np.ldexp(want[1][:, 1:], -k)
    for a, b in zip(got, (want[0], want[1], np.ldexp(want[2], -k))):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_degenerate_structure_check_flows_in_batches(monkeypatch):
    calls = []
    step = R._detA0_increments
    monkeypatch.setattr(R, "_detA0_increments", lambda *a: calls.append(1) or step(*a))
    degenerate_structure_check(make_degenerate(), seed=1)
    # The three steering arcs once for both directions; (a) is in closed
    # form and flows nothing.  A check that stopped calling the flow step
    # would fail here rather than pass with no calls counted.
    assert len(calls) == 3


def test_monotone_draws_equal_scalar_uniform_draws():
    for seed in range(200):
        umax = [1.0, 0.9 * 1.7, 1e-3, 37.25][seed % 4] * (1.0 + seed / 1000.0)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = R._monotone_draws(a, 0.05 * umax, umax)
        want = reference_draws(b, 0.05 * umax, umax)
        for x, y in zip(got, want, strict=True):
            assert x.shape == (R.DEGENERATE_TRAJECTORIES, 6)
            assert np.array_equal(x.view(np.int64), y.view(np.int64))
        # Both leave the stream at the same place.
        assert a.random() == b.random()


def test_functional_increments_are_the_closed_form(rng):
    # h - k cos m on every sub-arc, against 30-digit quadrature of dH/dt over
    # |xi|^2 = 1 - cos t along the sub-arc's angles, to 1e-12 relative to h:
    # the exact growth, formed without the flow.
    u = rng.uniform(0.05, 2.0, (3, 6)) * rng.choice([-1.0, 1.0], (3, 6))
    dur = rng.uniform(0.1, 1.5, (3, 6))
    got = R._functional_increments(u, dur)
    with mpmath.workdps(30):
        for row in range(3):
            t = mpmath.mpf(0)
            for k in range(6):
                uk, h = mpmath.mpf(u[row, k]), mpmath.mpf(dur[row, k]) / 8
                for j in range(8):
                    t0 = t + j * h * uk
                    want = mpmath.quad(lambda s: 1 - mpmath.cos(t0 + uk * s), [0, h])
                    assert abs(got[row, k, j] - want) <= 1e-12 * h
                t += mpmath.mpf(dur[row, k]) * uk


def test_functional_increments_stay_positive_where_u_h_is_tiny(rng):
    # h - k cos m formed as written rounds to 0 or below once (u h)^2 is
    # under the rounding of h; the one-sign sum keeps every growth positive.
    u = 10.0 ** rng.uniform(-20.0, -6.0, (30, 6)) * rng.choice([-1.0, 1.0], (30, 6))
    assert np.all(R._functional_increments(u, rng.uniform(0.1, 1.5, (30, 6))) > 0.0)


@st.composite
def _specs_at_every_magnitude(draw):
    """A = 0 specs with |xi| from 1e-300 to 1e300, alpha and the ends of Omega
    from 1e-12 to 1e12, and xi along an axis or in any direction."""
    sign = st.sampled_from((1.0, -1.0))
    axes = st.sampled_from(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))
    phi = st.floats(-math.pi, math.pi).map(lambda a: (math.cos(a), math.sin(a)))
    direction = draw(st.one_of(axes, phi))
    size = 10.0 ** draw(st.floats(-300.0, 300.0))
    xi = [size * direction[0], size * direction[1]]
    omega = (-draw(_magnitude), draw(_magnitude))
    return SystemSpec(draw(sign) * draw(_magnitude), xi, np.zeros((2, 2)), [0.3, 0.2], omega)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_specs_at_every_magnitude())
def test_steering_determinant_is_positive_at_every_magnitude(spec):
    # In units of xi each dwell drift is about 2 sin^2(t/2) >= 4e-20, so the
    # dwell solver never meets det = 0 (at |xi| = 1e-160 it once did).
    steering = R._prepare_steering(spec)
    assert steering.arc1.size and np.all(steering.solver[-1] > 0.0)


@pytest.mark.parametrize("xi", [(1e200, 1e199), (1e-200, 0.0)])
def test_steer_degenerate_is_finite_and_covariant_at_extreme_xi(rng, xi):
    # In the spec's units the first wrote numpy warnings and raised "segment
    # durations must be finite and >= 0"; the second raised on |xi|^2 = 0.
    spec = SystemSpec(1.0, np.array(xi), np.zeros((2, 2)), np.zeros(2), (-1.0, 1.0))
    unit = spec.xi / np.abs(spec.xi).max()
    v_from = rng.normal(size=(6, 2)) * np.abs(spec.xi).max()
    v_to = v_from + rng.uniform(-1.5, 1.5, (6, 1)) * unit + rng.uniform(-0.5, 0.5, (6, 1)) * perp(unit) * np.abs(spec.xi).max()
    v_to[5] = v_from[5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = steer_degenerate(spec, v_from, v_to)
        assert all(np.isfinite(a).all() for a in rows)
        for j in (-3, 1, 600 if xi[0] < 1.0 else -600):
            scaled = dataclasses.replace(spec, xi=np.ldexp(spec.xi, j))
            segments, ends, residuals = steer_degenerate(scaled, np.ldexp(v_from, j), np.ldexp(v_to, j))
            assert np.array_equal(segments, rows[0]) and np.array_equal(ends[:, 0], rows[1][:, 0])
            assert np.array_equal(np.ldexp(ends[:, 1:], -j), rows[1][:, 1:])
            assert np.array_equal(np.ldexp(residuals, -j), rows[2])


@st.composite
def _scaled_check_cases(draw):
    """An A = 0 spec whose xi components are 0 or at least 0.05 |xi|, a seed,
    a power of two 2**j with |j| <= 1000 and a factor c > 0."""
    sign = st.sampled_from((1.0, -1.0))
    part = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    xi = [draw(part) * draw(sign), draw(st.floats(0.05, 3.0)) * draw(sign)]
    if draw(st.booleans()):
        xi.reverse()
    omega = (-draw(_magnitude), draw(_magnitude))
    spec = SystemSpec(draw(sign) * draw(_magnitude), xi, np.zeros((2, 2)), [draw(_coord), draw(_coord)], omega)
    return spec, draw(st.integers(0, 2**32 - 1)), draw(st.integers(-1000, 1000)), 10.0 ** draw(st.floats(-100.0, 100.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(_scaled_check_cases())
def test_degenerate_structure_check_is_covariant_under_translation_scaling(case):
    # (xi, eta1) -> c (xi, eta1) scales every translation of the flow by c.
    # For c = 2**j the check's units of xi are the same, so the report is
    # bit for bit the same; for any c > 0 the verdict and the pair counts are.
    spec, seed, j, c = case
    report = _report(degenerate_structure_check(spec, seed))
    by_power = dataclasses.replace(spec, xi=np.ldexp(spec.xi, j), eta1=np.ldexp(spec.eta1, j))
    assert json.dumps(_report(degenerate_structure_check(by_power, seed))) == json.dumps(report)
    scaled = _report(degenerate_structure_check(dataclasses.replace(spec, xi=c * spec.xi, eta1=c * spec.eta1), seed))
    for key in ("passed", "n_mutual", "counterexamples", "irreversible_confirmed"):
        assert scaled[key] == report[key], key


def _assert_rows_equal_flow_detA0(spec, s, x, u):
    want = flow_detA0(spec, s, x, u)
    t, z = detA0_rows(complex(*spec.xi), s, x[..., 0], to_complex(x[..., 1:]), u)
    shape = want.shape[:-1]
    assert np.array_equal(np.broadcast_to(t, shape), want[..., 0])
    assert np.array_equal(np.broadcast_to(z, shape), to_complex(want[..., 1:]))


def test_detA0_rows_equal_flow_detA0_on_packed_rows(rng):
    spec = make_degenerate()
    n = 400
    x = np.empty((n, 3))
    x[:, 0] = wrap_angle(rng.uniform(-10.0, 10.0, n))
    x[:5, 0] = [0.0, np.nextafter(2 * np.pi, 0.0), 1e-300, 5e-324, np.pi]
    x[:, 1:] = rng.normal(size=(n, 2)) * rng.choice([1e-8, 1.0, 1e8], size=(n, 1))
    u = rng.uniform(-2.0, 2.0, n)
    u[::7] = 0.0
    u[1::7] = rng.choice([1e-9, -1e-12, 1e-300], size=len(u[1::7]))
    # Row by row, in segment waves of 8 points, and arcs of 30 lengths under one control.
    _assert_rows_equal_flow_detA0(spec, rng.uniform(-3.0, 3.0, n), x, u)
    _assert_rows_equal_flow_detA0(spec, rng.uniform(0.0, 50.0, (n, 8)), x[:, None], u[:, None])
    _assert_rows_equal_flow_detA0(spec, R.STEER_EPSILONS / 0.9, x[:, None], -0.9)


def test_steering_ends_equal_the_flow_of_their_segments(rng):
    for spec in _degenerate_specs(rng):
        xi = spec.xi / np.linalg.norm(spec.xi)
        v_from = rng.normal(size=(6, 2))
        v_to = v_from + rng.uniform(-1.5, 1.5, size=(6, 1)) * xi + rng.uniform(-0.5, 0.5, size=(6, 1)) * perp(xi)
        v_to[5] = v_from[5]
        segments, ends, _ = steer_degenerate(spec, v_from, v_to)
        for i in range(len(v_from)):
            g = np.array([0.0, *v_from[i]])
            for dur, u in segments[i]:
                if dur > 0.0:
                    g = flow_detA0(spec, dur, g, u)
            assert np.array_equal(g, ends[i])
