"""Grid reachability, control-set estimation, and degenerate-case checks.

The reach set is grown as a breadth-first fixed point on an occupancy grid:
every occupied cell has one exact reachable point (its representative),
kept beside the cell's id rather than in a grid, and each round flows all
new representatives for one time step under every control in the grid.
Representatives are never snapped to cell centers, so every occupied cell
contains a genuinely reachable point and containment statements (e.g.
inside the invariant ball) hold without drift artifacts.

Candidates claim cells first-writer-wins in a canonical order (frontier cell
index, then flow column; frontiers kept sorted between rounds), which makes
the result independent of how a round is split.  A round runs in chunks
sized to stay in a core's L2 cache.  A chunk finds its candidates' cells by
one matrix product per axis, kept only where a rigorous rounding-error bound
shows them to be the cells of the exact images; otherwise it forms the exact
images.  Only the claims' exact points are formed.

For trace zero the control set is the whole plane, and the estimate only
certifies that a test disk is covered.  Its forward rounds stop once every
cell of the cover set is occupied: the cells whose centre lies within
radius + cell_diagonal/2 of the disk's centre, a superset of the cells that
meet the closed disk.  The stopped set is a round-prefix of the fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flow import _detA0_angle, _detA0_increments, _exp, dwell_rate, equilibrium
from .group import angle_dist, cis, to_complex, to_pairs
from .system import ReducedSpec, SystemSpec, larc, reduced_range

DEFAULT_MAX_CELLS = 1_000_000
DEFAULT_N_CONTROLS = 21
# Time steps per constant-control arc of a reach round.
STEPS_PER_ARC = 24
# Grids whose GRID_BYTES_PER_CELL * nx * ny exceeds the budget are rejected
# before anything is allocated.  A reach set allocates 1 B of occupancy per
# cell, plus 24 B per claimed cell for its id and representative.  The
# budget still counts 17 B per cell (an occupancy byte and two float64
# coordinates), so it admits no larger grid: nothing bounds the run time of
# a grid 17 times the size yet.
GRID_BYTES_PER_CELL = 17
MAX_GRID_BYTES = 512 * 2**20
# Degenerate structure check, run in units of xi, so relative to |xi|: steering
# residual that counts as a hit, and the largest <v, i xi> of a mutual pair.
PAIR_TOL = 1e-8
LINE_TOL = 1e-6
# Angle excursions the degenerate steering tries, largest first.
STEER_EPSILONS = np.geomspace(0.3, 3e-10, 30)
# Trajectories and steered pairs of the degenerate structure check.
DEGENERATE_TRAJECTORIES = 30
DEGENERATE_PAIRS = 6
# Least radius of the trace-zero test disk and of its default grid's scale.
MIN_DISK_RADIUS = 0.25


# ---------------------------------------------------------------------------
# Grid configuration
# ---------------------------------------------------------------------------


@dataclass
class GridConfig:
    """Occupancy-grid parameters for reach-set computation.

    Expansion flows each cell representative along constant-control arcs of
    1..steps_per_arc time steps (every arc point is exact, so occupied cells
    always contain genuinely reachable points); longer arcs let the frontier
    cross cells even where the flow is slower than one cell per step.
    """

    bounds: tuple  # (x_min, x_max, y_min, y_max)
    resolution: float
    controls: np.ndarray
    time_step: float
    max_cells: int = DEFAULT_MAX_CELLS

    def __post_init__(self):
        xmin, xmax, ymin, ymax = (float(b) for b in self.bounds)
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("bounds must satisfy x_min < x_max, y_min < y_max")
        self.bounds = (xmin, xmax, ymin, ymax)
        self.resolution = float(self.resolution)
        if not (0.0 < self.resolution < math.inf):
            raise ValueError("resolution must be positive and finite")
        self.controls = np.unique(np.asarray(self.controls, dtype=float).reshape(-1))
        if self.controls.size < 1 or not np.all(np.isfinite(self.controls)):
            raise ValueError("controls must be a nonempty finite list")
        self.time_step = float(self.time_step)
        if not (0.0 < self.time_step < math.inf):
            raise ValueError("time_step must be positive and finite")
        self.max_cells = int(self.max_cells)
        if self.max_cells < 1:
            raise ValueError("max_cells must be >= 1")
        if not all(math.isfinite(w / self.resolution) for w in (xmax - xmin, ymax - ymin)):
            raise ValueError("bounds over resolution give an unbounded number of cells")
        nx, ny = self.shape
        grid_bytes = GRID_BYTES_PER_CELL * nx * ny
        if grid_bytes > MAX_GRID_BYTES:
            raise ValueError(
                f"a {nx} x {ny} grid needs {grid_bytes} bytes, over the "
                f"{MAX_GRID_BYTES}-byte budget; use a coarser resolution or smaller bounds"
            )

    @property
    def shape(self) -> tuple:
        xmin, xmax, ymin, ymax = self.bounds
        nx = int(math.ceil((xmax - xmin) / self.resolution - 1e-9))
        ny = int(math.ceil((ymax - ymin) / self.resolution - 1e-9))
        return max(nx, 1), max(ny, 1)

    @property
    def steps_per_arc(self) -> int:
        return STEPS_PER_ARC

    @property
    def cell_diagonal(self) -> float:
        return self.resolution * math.sqrt(2.0)

    def cell_of(self, v) -> tuple:
        v = np.asarray(v, dtype=float)
        i = int(math.floor((v[0] - self.bounds[0]) / self.resolution))
        j = int(math.floor((v[1] - self.bounds[2]) / self.resolution))
        return i, j

    def in_bounds(self, v) -> bool:
        """Whether v lies in a cell of the grid; False for a NaN or infinite
        coordinate, and for one too far off to have a finite cell index."""
        x, y = np.asarray(v, dtype=float)[:2].tolist()
        nx, ny = self.shape
        # The cell units of cell_of; their floor is in [0, n) iff they are.
        a = (x - self.bounds[0]) / self.resolution
        b = (y - self.bounds[2]) / self.resolution
        return 0.0 <= a < nx and 0.0 <= b < ny

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "resolution": self.resolution,
            "controls": [float(u) for u in self.controls],
            "time_step": self.time_step,
            "max_cells": self.max_cells,
            "steps_per_arc": self.steps_per_arc,
        }


def control_grid(omega, n: int) -> np.ndarray:
    """Evenly spaced controls over omega, always including u-, 0 and u+."""
    if n < 3:
        raise ValueError("control grid needs at least 3 values")
    lo, hi = float(omega[0]), float(omega[1])
    return np.unique(np.concatenate([np.linspace(lo, hi, int(n)), [0.0]]))


def default_grid_config(
    rs: ReducedSpec,
    resolution: float | None = None,
    n_controls: int | None = None,
    time_step: float | None = None,
    bounds: tuple | None = None,
    max_cells: int | None = None,
) -> GridConfig:
    """Grid defaults sized from the system's own geometry; None takes the default.

    lam != 0: box = invariant-ball center +- 1.5 * radius, cell = radius/200.
    lam == 0: box = +-4 r, cell = r/50, for the test disk's radius r.  Time step
    0.05 / max(|lam|, |mu - u-|, |mu - u+|, 1), DEFAULT_N_CONTROLS controls and
    at most DEFAULT_MAX_CELLS cells.
    """
    lo, hi = rs.omega
    scale = rs.length
    if rs.lam != 0.0:
        ball = rs.ball
        radius = ball.radius if ball.radius > 0.0 else max(scale, 1.0)
        cx, cy = ball.center
        half = 1.5 * radius
        if bounds is None:
            bounds = (cx - half, cx + half, cy - half, cy + half)
        if resolution is None:
            resolution = radius / 200.0
    else:
        radius = _disk_radius(rs)
        if bounds is None:
            bounds = (-4.0 * radius, 4.0 * radius, -4.0 * radius, 4.0 * radius)
        if resolution is None:
            resolution = radius / 50.0
    if time_step is None:
        time_step = 0.05 / max(abs(rs.lam), abs(rs.mu - lo), abs(rs.mu - hi), 1.0)
    return GridConfig(
        bounds=bounds,
        resolution=resolution,
        controls=control_grid(rs.omega, DEFAULT_N_CONTROLS if n_controls is None else n_controls),
        time_step=time_step,
        max_cells=DEFAULT_MAX_CELLS if max_cells is None else max_cells,
    )


# ---------------------------------------------------------------------------
# Round expansion kernel
# ---------------------------------------------------------------------------

# Candidates (frontier rows x flow columns) per kernel chunk.  At 16k
# candidates each float64 temporary is 128 KiB, so a chunk's working set stays
# in a core's 2 MiB L2 cache.  A row's columns are split only past a chunk of
# them (large --control-grid), which keeps the canonical order and every
# product at most a chunk of outputs; BLAS runs such products on one thread
# (CPU over wall time 1.00 on a 2-core host).
# Over the benchmark's 9 reach_mix jobs at seed 21 (sum of best-of-7 job
# times, sizes alternated job by job in one process): 434 ms at 4k, 335 at
# 8k, 300 at 12k, 287-292 at 16k, 281 at 24k, 286-287 at 32k, 360 at 64k;
# 16k is within noise of the best with the smallest buffers.
_CHUNK_CANDIDATES = 16_384


def _images(px, py, sing, vux, vuy, ecos, esin, linx, liny):
    """Exact images of points under flow columns, elementwise and broadcasting.

    (vux + ecos*dx) - esin*dy, (vuy + esin*dx) + ecos*dy with dx = px - vux,
    dy = py - vuy; a singular column translates to (px + linx, py + liny).
    Each element is the scalar formula's value, whatever the operand shapes.
    """
    dx, dy = px - vux, py - vuy
    qx = vux + ecos * dx - esin * dy
    qy = vuy + esin * dx + ecos * dy
    return np.where(sing, px + linx, qx), np.where(sing, py + liny, qy)


def _cell_maps(consts, x0, y0, res, reach):
    """Matrices taking rows [px, py, 1] to cell units, and their error bound.

    Returns (mx, my, delta), mx and my of shape (3, n_cols).  For |px|, |py|
    <= reach, [px, py, 1] @ mx differs from fl(fl(qx - x0) / res), qx the
    exact image of :func:`_images`, by less than delta/2, and likewise for y;
    delta is inf where that is not shown.  As qx - x0 = ecos px - esin py +
    (vux - ecos vux + esin vuy - x0) exactly, column c of mx is ecos/res,
    -esin/res and (((vux - ecos*vux) + esin*vuy - x0) + linx)/res; singular
    columns hold ecos = 1 and esin = vux = vuy = 0, the others linx = liny =
    0, so one formula serves translations too.

    Bound (Higham, Accuracy and Stability of Numerical Algorithms, 2.2, 3.1):
    with u = 2**-53, a rounding gives (a op b)(1 + e) + t, |e| <= u, and
    |t| <= 2**-1075 only where a product or quotient underflows.  Let E =
    max|ecos| + max|esin|, V = max|vux| + max|vuy| + max|linx| + max|liny|
    and M = (2E + 1)(reach + V) + |x0| + |y0|: every intermediate is at most
    M (1 + 16u), or M/res (1 + 16u) after the division, so nothing overflows
    when M <= 2**1020.  The exact image takes 8 roundings (dx, dy, two
    products, two sums, - x0, / res), each at most u M/res (1 + 16u) in cell
    units.  The matrix entries take one rounding each in the first two rows
    (2u M/res once multiplied by px, py) and six in the third (6u M/res); an
    inner product of length 3, in any order and with or without fused
    multiply-adds, is off by at most gamma_3 = 3u/(1 - 3u) times the sum of
    its terms' magnitudes, at most M/res (1 + 16u).  Underflow adds at most
    2**-1075 (2 reach + 4/res + 6).  The total is below 20u M/res (1 + 16u) +
    2**-1072 (1 + reach + 1/res); delta, after its own roundings, is at
    least twice that and at least 8u.

    Certification: a computed value a with floor k gives f = fl(a - k),
    within u of a - k (exact for a >= 0).  If delta <= f <= fl(1 - delta),
    then a - k lies in [delta - u, 1 - delta + 2u], and the exact value in
    (k + delta/2 - u, k + 1 - delta/2 + 2u), inside [k, k + 1) as delta >= 8u.
    """
    _, vux, vuy, ecos, esin, linx, liny = consts
    with np.errstate(all="ignore"):
        mx = np.stack([ecos, -esin, (vux - ecos * vux) + esin * vuy - x0 + linx]) / res
        my = np.stack([esin, ecos, (vuy - ecos * vuy) - esin * vux - y0 + liny]) / res
        vx, vy, ec, es, lx, ly = np.abs(np.stack(consts[1:])).max(axis=1).tolist()
    m = (2.0 * (ec + es) + 1.0) * (reach + vx + vy + lx + ly) + abs(x0) + abs(y0)
    delta = 2.0**-47 * (m / res) + 2.0**-1068 * (1.0 + reach + 1.0 / res) + 2.0**-50
    return mx, my, delta if m <= 2.0**1020 else math.inf


def _expand_round(occ_flat, nx, ny, x0, y0, res, cur_px, cur_py, consts):
    """One expansion round.  Returns the new claims (ids, px, py) sorted by id.

    The frontier is walked in chunks of whole rows (or, past a chunk of
    columns, of one row's columns), in canonical (frontier index, column
    index) order, and each chunk marks its claims in occ_flat before the
    next one runs, so the first candidate in that order wins every cell,
    whatever the chunk size.  A chunk finds its cells by one product per
    axis with the matrices of :func:`_cell_maps`, which are the exact
    images' cells floor((q - x0) / res) when every value lies at least delta
    from a cell edge; otherwise it forms the exact images of all its
    candidates.  The claims' points alone are then formed exactly by
    :func:`_images`, so cells and representatives never depend on the
    chunking.
    """
    n_rows, n_cols = cur_px.size, consts[0].size
    reach = float(np.abs(cur_px).max() + np.abs(cur_py).max())
    mx, my, delta = _cell_maps(consts, x0, y0, res, reach)
    certify = delta < 0.25
    pts = np.ones((n_rows, 3))
    pts[:, 0] = cur_px
    pts[:, 1] = cur_py
    rows = max(1, min(_CHUNK_CANDIDATES // n_cols, n_rows))
    width = min(n_cols, _CHUNK_CANDIDATES)
    vals = np.empty((2, rows * width))
    floors = np.empty((2, rows * width))
    parts = []
    for r0 in range(0, n_rows, rows):
        n = min(rows, n_rows - r0)
        for c0 in range(0, n_cols, width):
            w = min(width, n_cols - c0)
            f = vals[:, : n * w].reshape(2, n, w)
            fl = floors[:, : n * w].reshape(2, n, w)
            np.matmul(pts[r0 : r0 + n], mx[:, c0 : c0 + w], out=f[0])
            np.matmul(pts[r0 : r0 + n], my[:, c0 : c0 + w], out=f[1])
            np.floor(f, out=fl)
            f -= fl
            fi, fj = fl
            # The product's cells are the exact images' cells where every
            # fraction is at least delta from a cell edge (NaN fails).
            if not (certify and f.min() >= delta and f.max() <= 1.0 - delta):
                qx, qy = _images(
                    cur_px[r0 : r0 + n, None],
                    cur_py[r0 : r0 + n, None],
                    *(a[c0 : c0 + w] for a in consts),
                )
                fi, fj = np.floor((qx - x0) / res), np.floor((qy - y0) / res)
            # Row-major flat positions keep the canonical order.  The ids are
            # formed in float64, exact for integers below 2**53, and cast once.
            if fi.min() >= 0.0 and fj.min() >= 0.0 and fi.max() < nx and fj.max() < ny:
                # Every candidate is on the grid (a NaN fails these tests), as
                # in most chunks: the ids need no mask and no gather.
                idx = None
                fi *= ny
                fi += fj
                ids = fi.reshape(-1).astype(np.int64)
            else:
                idx = np.flatnonzero((fi >= 0.0) & (fj >= 0.0) & (fi < nx) & (fj < ny))
                ids = (fi.reshape(-1)[idx] * ny + fj.reshape(-1)[idx]).astype(np.int64)
            fresh = np.flatnonzero(~occ_flat[ids])
            uids, first = np.unique(ids[fresh], return_index=True)
            occ_flat[uids] = True
            keep = fresh[first] if idx is None else idx[fresh[first]]
            parts.append((uids, r0 + keep // w, c0 + keep % w))
    ids, r, c = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(ids)  # ids are unique within a round
    r, c = r[order], c[order]
    px, py = _images(cur_px[r], cur_py[r], *(a[c] for a in consts))
    return ids[order], px, py


def _control_constants(rs: ReducedSpec, cfg: GridConfig, direction: int):
    """Flattened per-(control, arc step) flow constants, control-major order.

    Column c = m * steps_per_arc + (k - 1) maps a point to its exact image
    after k time steps under control m; the closed form makes every arc
    sample exact rather than an iterated approximation.  With s = k dt, a
    column holds e^{s lam} cos(s (mu - u)), e^{s lam} sin(s (mu - u)) and
    v(u), or, where det A(u) = 0, ecos = 1, esin = 0 and the translation
    (s u) eta.  e^{s lam} does not depend on u, so it is taken once per step;
    it and e^{i s (mu - u)} come from the flow layer's _exp and cis, whose
    values are libm's exp, cos and sin, as a scalar evaluation gives them.
    Raises ValueError naming time_step where an angle or a translation is not finite.
    """
    us = cfg.controls
    sing_u = rs.det_a_of_u(us) == 0.0
    sing = np.repeat(sing_u, cfg.steps_per_arc)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.arange(1, cfg.steps_per_arc + 1) * (direction * cfg.time_step)
        angles = s * (rs.mu - us)[:, None]
        su = (s * us[:, None]).ravel()
        linx, liny = (np.where(sing, su * e, 0.0) for e in rs.eta)
    # An arc time s that is not finite gives an angle that is not finite.
    if not all(np.isfinite(a).all() for a in (angles, linx, liny)):
        raise ValueError(f"time_step {cfg.time_step!r} is out of range: an arc's "
                         "angle s (mu - u) or translation (s u) eta is not finite")
    vu = np.zeros((us.size, 2))
    vu[~sing_u] = equilibrium(rs, us[~sing_u])
    efac = np.tile(_exp(s * rs.lam, s), us.size)
    turn = cis(angles).ravel()
    ecos = np.where(sing, 1.0, efac * turn.real)
    esin = np.where(sing, 0.0, efac * turn.imag)
    vux, vuy = (np.repeat(c, s.size) for c in vu.T)
    return sing, vux, vuy, ecos, esin, linx, liny


# ---------------------------------------------------------------------------
# Reach sets
# ---------------------------------------------------------------------------


@dataclass
class ReachSet:
    """Occupancy-grid reach set with one exact reachable point per occupied cell."""

    config: GridConfig
    occupied: np.ndarray  # (nx, ny) bool
    ids: np.ndarray  # sorted flat ids of the occupied cells
    rep_x: np.ndarray  # (cell_count,) representative of cell ids[k], x
    rep_y: np.ndarray  # (cell_count,) and y
    direction: int  # +1 forward, -1 backward
    rounds: int
    truncated: bool

    @property
    def cell_count(self) -> int:
        return int(self.ids.size)

    def occupied_cells(self) -> np.ndarray:
        """Occupied cell indices, shape (k, 2), lexicographically sorted."""
        return np.stack(np.divmod(self.ids, self.occupied.shape[1]), axis=1)

    def cell_centers(self) -> np.ndarray:
        """Centres (bounds[0] + (i + 0.5) res, bounds[2] + (j + 0.5) res), shape (k, 2)."""
        res = self.config.resolution
        return np.array(self.config.bounds[::2]) + (self.occupied_cells() + 0.5) * res


def _reach(rs: ReducedSpec, x0, cfg: GridConfig, direction: int, cover=None) -> ReachSet:
    """Grid fixed point of one-step flows from x0 in the given direction.

    cover, if given and nonempty, holds flat cell ids: the rounds then also
    stop as soon as every one of them is occupied.  The check runs between
    rounds, so the result is a round-prefix of the fixed point.
    """
    x0 = np.asarray(x0, dtype=float).reshape(2)
    if not cfg.in_bounds(x0):
        raise ValueError("seed point lies outside the grid bounds")
    lo, hi = rs.omega
    if cfg.controls[0] < lo - 1e-12 or cfg.controls[-1] > hi + 1e-12:
        raise ValueError("control grid exceeds the system's control range")

    nx, ny = cfg.shape
    xmin, _, ymin, _ = cfg.bounds
    res = cfg.resolution
    occ = np.zeros((nx, ny), dtype=np.bool_)
    i0, j0 = cfg.cell_of(x0)
    occ[i0, j0] = True

    consts = _control_constants(rs, cfg, direction)
    occ_flat = occ.reshape(-1)

    cur_ids = np.array([np.int64(i0) * ny + j0], dtype=np.int64)
    cur_px = np.array([x0[0]])
    cur_py = np.array([x0[1]])
    claimed, xs, ys = [cur_ids], [cur_px], [cur_py]
    total = 1
    rounds = 0
    stop = cover is not None and cover.size > 0
    while cur_ids.size and total < cfg.max_cells:
        if stop and occ_flat[cover].all():
            break
        cur_ids, cur_px, cur_py = _expand_round(
            occ_flat, nx, ny, xmin, ymin, res, cur_px, cur_py, consts
        )
        if cur_ids.size:
            claimed.append(cur_ids)
            xs.append(cur_px)
            ys.append(cur_py)
            total += cur_ids.size
        rounds += 1

    # Each round's claims are sorted by id, so a stable sort merges the runs.
    ids = np.concatenate(claimed)
    order = np.argsort(ids, kind="stable")
    return ReachSet(
        config=cfg,
        occupied=occ,
        ids=ids[order],
        rep_x=np.concatenate(xs)[order],
        rep_y=np.concatenate(ys)[order],
        direction=direction,
        rounds=rounds,
        truncated=bool(cur_ids.size and total >= cfg.max_cells),
    )


def reach_forward(rs: ReducedSpec, x0, cfg: GridConfig, cover=None) -> ReachSet:
    """Grid fixed point of one-step forward flows from x0.

    cover (flat cell ids, internal) ends the rounds early once all of its
    cells are occupied; see _reach.
    """
    return _reach(rs, x0, cfg, +1, cover)


def reach_backward(rs: ReducedSpec, x0, cfg: GridConfig) -> ReachSet:
    """Grid fixed point of one-step backward flows from x0 (points that reach x0)."""
    return _reach(rs, x0, cfg, -1)


# ---------------------------------------------------------------------------
# Control-set estimation
# ---------------------------------------------------------------------------


def default_seed_control(rs: ReducedSpec) -> float:
    """An interior control away from mu to seed the estimate from."""
    lo, hi = rs.omega
    for u in (0.5 * hi, 0.5 * lo, 0.25 * hi, 0.25 * lo, 0.75 * hi, 0.75 * lo):
        if abs(u - rs.mu) > 0.05 * max(1.0, abs(rs.mu)):
            return float(u)
    return 0.5 * hi  # unreachable for a nondegenerate omega


@dataclass
class ControlSetEstimate:
    """Grid estimate of the unique control set with nonempty interior."""

    case: str  # "all_plane" | "closed_bounded" | "open"
    seed_control: float | None
    region: ReachSet
    coverage: dict = field(default_factory=dict)
    ball_check: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "seed_control": self.seed_control,
            "coverage": self.coverage,
            "ball_check": self.ball_check,
            "diagnostics": self.diagnostics,
            "grid": self.region.config.to_dict(),
            "cells": self.region.cell_count,
            "truncated": self.region.truncated,
            "direction": "forward" if self.region.direction > 0 else "backward",
        }


def _disk_radius(rs: ReducedSpec) -> float:
    """Radius of the trace-zero test disk, max(|eta|, MIN_DISK_RADIUS)."""
    return max(rs.length, MIN_DISK_RADIUS)


def _distances(points: np.ndarray, center) -> np.ndarray:
    """|points - center| by rows, as np.linalg.norm gives it; rows whose
    squares overflow there take np.hypot, which does not overflow."""
    with np.errstate(over="ignore"):
        diff = points - center
        dist = np.linalg.norm(diff, axis=1)
    big = np.isinf(dist)
    dist[big] = np.hypot(diff[big, 0], diff[big, 1])
    return dist


def _disk_cells(cfg: GridConfig, center, radius: float) -> tuple:
    """(cover, inside): flat ids of the cells whose centre lies within radius +
    cell_diagonal/2 of a closed disk's centre, and of those whose centre lies in it.

    The cover holds every cell that meets the disk, so once it is occupied,
    so is every point of the disk; it is empty when part of the disk lies off
    the grid, as such a disk is never covered.  Both come from one pass over
    the disk's bounding box of cells, widened by one cell on every side and
    clipped to the grid, with centres bounds[0] + (i + 0.5) * res.
    """
    nx, ny = cfg.shape
    xmin, _, ymin, _ = cfg.bounds
    res = cfg.resolution
    cx, cy = (float(c) for c in center)
    # Clip in floats first: a huge radius spans the whole grid.
    i_lo, i_hi, j_lo, j_hi = (
        int(math.floor(min(max(z, 0.0), n - 1.0)))
        for z, n in (
            ((cx - radius - xmin) / res - 1.0, nx),
            ((cx + radius - xmin) / res + 1.0, nx),
            ((cy - radius - ymin) / res - 1.0, ny),
            ((cy + radius - ymin) / res + 1.0, ny),
        )
    )
    ii = np.arange(i_lo, i_hi + 1)
    jj = np.arange(j_lo, j_hi + 1)
    xs = xmin + (ii + 0.5) * res
    ys = ymin + (jj + 0.5) * res
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    dist = _distances(centers, np.array([cx, cy]))
    ids = (ii[:, None] * ny + jj[None, :]).reshape(-1)
    inside = ids[dist <= radius]
    extremes = ((cx - radius, cy), (cx + radius, cy), (cx, cy - radius), (cx, cy + radius))
    if not all(map(cfg.in_bounds, extremes)):
        return np.zeros(0, dtype=np.int64), inside
    return ids[dist <= radius + 0.5 * cfg.cell_diagonal], inside


def _occupied_share(region: ReachSet, ids: np.ndarray) -> float:
    """Share of the cells `ids` that are occupied, 0 for no cells."""
    return float(np.count_nonzero(region.occupied.reshape(-1)[ids])) / ids.size if ids.size else 0.0


def _ball_containment(region: ReachSet, rs: ReducedSpec) -> dict:
    ball = rs.ball
    centers = region.cell_centers()
    d = _distances(centers, ball.center)
    allowed = ball.radius + region.config.cell_diagonal
    return {
        "ball": ball.to_dict(),
        "max_center_distance": float(np.max(d)) if d.size else 0.0,
        "allowed": allowed,
        "violations": int(np.sum(d > allowed)),
    }


def estimate_control_set(
    rs: ReducedSpec,
    cfg: GridConfig,
    seed_control: float | None = None,
) -> ControlSetEstimate:
    """Estimate the control set with nonempty interior for the planar system.

    trace = 0: the system is controllable; a forward reach run from the
    origin provides a coverage certificate over a test disk of radius
    max(|eta|, MIN_DISK_RADIUS).  The run stops between rounds
    once every cell of the cover set is occupied: the cells whose centre
    lies within radius + cell_diagonal/2 of the origin, which include every
    cell that meets the closed disk.  So every point of the disk then lies in
    an occupied cell, and the cells and representatives are those of the
    same cells in the full fixed point.  If part of the disk lies off the
    grid, or the fixed point or max_cells comes first, the run is the full
    one.  coverage["fraction"] counts the cells whose centre is in the disk.
    trace < 0: the set is the closure of the forward orbit of an
    equilibrium.  trace > 0: the set is the backward orbit of an equilibrium.
    A seed_control outside rs.omega (or NaN) raises ValueError.
    """
    lo, hi = rs.omega
    if seed_control is None:
        seed_control = default_seed_control(rs)
    elif not lo <= seed_control <= hi:  # also NaN
        raise ValueError(f"seed control {seed_control} lies outside the control range [{lo}, {hi}]")

    if rs.lam == 0.0:
        radius = _disk_radius(rs)
        cover, inside = _disk_cells(cfg, np.zeros(2), radius)
        region = reach_forward(rs, np.zeros(2), cfg, cover=cover)
        coverage = {
            "disk_center": [0.0, 0.0],
            "disk_radius": radius,
            "fraction": _occupied_share(region, inside),
        }
        return ControlSetEstimate(
            case="all_plane",
            seed_control=None,
            region=region,
            coverage=coverage,
            diagnostics={
                "note": "controllable: estimate certifies disk coverage; the forward "
                "rounds stop once every cell meeting the disk is occupied"
            },
        )

    x0 = equilibrium(rs, seed_control)
    if rs.lam < 0.0:
        region = reach_forward(rs, x0, cfg)
        case = "closed_bounded"
    else:
        region = reach_backward(rs, x0, cfg)
        case = "open"
    return ControlSetEstimate(
        case=case,
        seed_control=float(seed_control),
        region=region,
        ball_check=_ball_containment(region, rs),
    )


# ---------------------------------------------------------------------------
# Degenerate case (A = 0): structure checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Steering:
    """What a steering leg needs that does not depend on the pair, formed once per system.

    Every pair's arcs start at angle 0, so the arcs' end angles and
    translation increments, the dwell rates at the two dwell angles and the
    dwell solver's coefficients depend only on the epsilons.  The arrays
    hold the usable epsilons (those whose first dwell pushes along +xi and
    whose second pushes along -xi), in order.
    """

    exponent: int  # 2**exponent puts xi's largest component in [1, 2)
    xi: complex  # the spec's xi times 2**exponent: translations are in these units
    n2: float  # |xi|^2, in [1, 8)
    u_max: float  # min(-lo, hi) of the rescaled control range [lo, hi]
    arc1: np.ndarray  # duration of the first and last arc; the middle one lasts twice as long
    turns: tuple  # translation increments of the three arcs
    rates: tuple  # dwell rates Lambda_t xi at the angles the first and second arcs end at
    # (sin1, sin2, w1, w2, det): <rate, xi> / |xi|^2 and <rate, i xi> / |xi|^2
    # (negative values cleared) of each dwell, and sin1 w2 - sin2 w1.
    solver: tuple
    end_angle: np.ndarray  # the angle every leg ends at
    end_dist: np.ndarray  # its distance to angle 0


def _prepare_steering(spec: SystemSpec) -> _Steering:
    """The pair-independent steering data of `spec` (see :class:`_Steering`).

    It works in the A = 0 normal-form chart: flow_detA0 with the control
    rescaled to alpha u, over alpha * Omega, in units of xi: xi times the
    power of two that puts its largest component in [1, 2), exactly, as in
    :func:`system.larc`.  There each dwell drift w is about 2 sin^2(t/2) >=
    4e-20, far above rounding, so det > 0.  Raises ValueError unless A = 0
    and the rank condition holds.  A system with no usable epsilon gets
    empty arrays, and its legs raise.
    """
    if not spec.a_is_zero:
        raise ValueError("the A = 0 chart requires A = 0")
    if not larc(spec):
        raise ValueError("degenerate analysis requires alpha != 0 and alpha xi != 0")
    exponent = 1 - math.frexp(float(np.abs(spec.xi).max()))[1]
    xi_pair = np.ldexp(spec.xi, exponent)
    xi, n2 = complex(*xi_pair), float(xi_pair @ xi_pair)
    lo, hi = reduced_range(spec)
    u_max = min(-lo, hi)
    u_d = 0.9 * u_max
    arc1 = STEER_EPSILONS / u_d
    t1, turn1 = _detA0_increments(xi, arc1, 0.0, u_d)
    t2, turn2 = _detA0_increments(xi, 2.0 * arc1, t1, -u_d)
    t3, turn3 = _detA0_increments(xi, arc1, t2, u_d)
    # The dwell rates exactly as the flow applies them at the realized angles.
    rate1, rate2 = dwell_rate(t1, xi), dwell_rate(t2, xi)
    proj1 = xi.conjugate() * rate1
    proj2 = xi.conjugate() * rate2
    sin1 = proj1.real / n2
    sin2 = proj2.real / n2
    # The dwell drift cannot point along -i xi; tiny negative values are
    # rounding noise from the chart arithmetic, and feeding them to the
    # solver would fabricate huge dwells that ride the noise.
    w1 = proj1.imag / n2
    w2 = proj2.imag / n2
    w1 = np.where(w1 < 0.0, 0.0, w1)
    w2 = np.where(w2 < 0.0, 0.0, w2)
    use = ~((sin1 <= 0.0) | (sin2 >= 0.0))
    sin1, sin2, w1, w2 = sin1[use], sin2[use], w1[use], w2[use]
    return _Steering(
        exponent=exponent,
        xi=xi,
        n2=n2,
        u_max=u_max,
        arc1=arc1[use],
        turns=(turn1[use], turn2[use], turn3[use]),
        rates=(rate1[use], rate2[use]),
        solver=(sin1, sin2, w1, w2, sin1 * w2 - sin2 * w1),
        end_angle=t3[use],
        end_dist=angle_dist(t3[use], 0.0),
    )


def _dwell(xi: complex, z, tau, rate) -> np.ndarray:
    """Translations z after dwelling for tau at control 0 with the dwell rate `rate`.

    The increment is the one :func:`flow._detA0_increments` forms for
    control 0; a dwell of tau <= 0 (or NaN) leaves z as it is.
    """
    return np.where(tau > 0.0, z + ((tau - tau) * (1j * xi) + tau * rate), z)


def _steer_leg(steering: _Steering, v_from, v_to) -> tuple:
    """:func:`steer_degenerate` on the prepared data of its system, in its units of xi."""
    xi, n2 = steering.xi, steering.n2
    v_from, v_to = np.broadcast_arrays(np.asarray(v_from, dtype=float), np.asarray(v_to, dtype=float))
    v_from, v_to = v_from.reshape(-1, 2), v_to.reshape(-1, 2)
    # conj(xi) w holds <w, xi> and <w, i xi> as its real and imaginary parts.
    step = to_complex(v_to) - to_complex(v_from)
    proj = xi.conjugate() * step
    a_t = (proj.real / n2)[:, None]
    b_t = (proj.imag / n2)[:, None]
    u_d = 0.9 * steering.u_max
    if not len(steering.arc1):
        raise ValueError("degenerate steering has no usable dwell angle for this xi")

    # The arcs add their prepared increments to each pair's translation;
    # their durations eps / u_d are positive, so every arc moves.
    arc1, (turn1, turn2, turn3), (rate1, rate2) = steering.arc1, steering.turns, steering.rates
    z0 = to_complex(v_from)[:, None]
    z1 = z0 + turn1
    arc = xi.conjugate() * (((z1 + turn2) + turn3) - z0)
    a_rem = a_t - arc.real / n2
    b_rem = b_t - arc.imag / n2
    sin1, sin2, w1, w2, det = steering.solver

    with np.errstate(divide="ignore", invalid="ignore"):
        along1 = a_rem / sin1
        along2 = a_rem / sin2
        tau1 = (a_rem * w2 - sin2 * b_rem) / det
        tau2 = (sin1 * b_rem - a_rem * w1) / det
    # A negative dwell is dropped, and the other one alone covers the xi-component.
    back1 = tau1 < 0.0
    back2 = ~back1 & (tau2 < 0.0)
    tau1 = np.where(back2, np.where(along1 > 0.0, along1, 0.0), np.where(back1, 0.0, tau1))
    tau2 = np.where(back1, np.where(along2 > 0.0, along2, 0.0), np.where(back2, 0.0, tau2))

    segments = np.empty(tau1.shape + (5, 2))
    segments[..., 0] = np.stack(np.broadcast_arrays(arc1, tau1, 2.0 * arc1, tau2, arc1), -1)
    segments[..., 1] = (u_d, 0.0, -u_d, 0.0, u_d)
    still = step == 0.0
    if not np.isfinite(segments[~still]).all():  # as PiecewiseControl rejects them
        raise ValueError("segment durations must be finite and >= 0")
    # The five segments in flow order: each arc adds its increment, each
    # dwell its own, and every leg ends at the arcs' end angle.
    z_end = _dwell(xi, _dwell(xi, z1, tau1, rate1) + turn2, tau2, rate2) + turn3
    residuals = np.abs(z_end - to_complex(v_to)[:, None]) + steering.end_dist
    # The first of equals wins, as min() picks it.
    best = np.array([min(range(len(r)), key=r.__getitem__) for r in residuals.tolist()], dtype=int)
    rows = np.arange(len(best))
    segments, residuals = segments[rows, best], residuals[rows, best]
    ends = np.empty((len(best), 3))
    ends[:, 0] = steering.end_angle[best]
    ends[:, 1:] = to_pairs(z_end[rows, best])
    segments[still] = 0.0
    ends[still] = 0.0
    ends[still, 1:] = v_from[still]
    residuals[still] = 0.0
    return segments, ends, residuals


def steer_degenerate(spec: SystemSpec, v_from, v_to) -> tuple:
    """Best-effort steering of the normalized degenerate system, one pair per row.

    Moves (0, v_from) toward (0, v_to) with a drive/dwell/drive/dwell/drive
    control built from small angle excursions +-eps: dwelling at angle t
    pushes v at the fixed rate sin(t) xi + (1 - cos t) theta xi, so shrinking
    eps trades time for precision along +-xi while the unavoidable drift
    (along +theta xi) vanishes like eps.  Motion along -theta xi is
    impossible, so targets with a negative theta-xi component keep an
    irreducible residual.

    The dwell durations are solved against the *realized* dwell angles of the
    arc segments and the dwell rates the flow itself will use, so feasible
    targets are hit to arithmetic rounding.  Every pair tries 30 epsilons
    from 0.3 down to 3e-10, as rows of (pairs x 30) arrays, and the one of
    least evaluated residual wins (the first of equals).  The arcs start at
    angle 0 whatever the pair, so their angles and translation increments,
    the dwell rates and the solver's coefficients are formed once per call
    (:func:`_prepare_steering`); each pair adds the increments to its own
    translation, in flow order, and evaluates its end exactly as the flow
    of its five segments would.

    v_from and v_to have shape (n, 2) or (2,) and broadcast.  Returns
    (segments, ends, residuals) of shapes (n, 5, 2), (n, 3) and (n,): the
    winning (duration, u) segments, the exactly evaluated end state
    [t, v_x, v_y] and its residual |v_end - v_to| + |t_end|.  A pair with
    |v_to - v_from| = 0 keeps zero durations, the end (0, v_from) and
    residual 0.  Each row equals its one-row call bit for bit.  The leg runs
    in the units of xi of :func:`_prepare_steering`, 2**k times the spec's,
    which move no segment: v_from and v_to are scaled in, the end
    translations and residuals (so |t_end| counts 2**-k per radian) back out.
    """
    steering = _prepare_steering(spec)
    k = steering.exponent
    segments, ends, residuals = _steer_leg(steering, np.ldexp(v_from, k), np.ldexp(v_to, k))
    ends[:, 1:] = np.ldexp(ends[:, 1:], -k)
    return segments, ends, np.ldexp(residuals, -k)


def _monotone_draws(rng, umin: float, umax: float) -> tuple:
    """(u, duration) of DEGENERATE_TRAJECTORIES trajectories of 6 segments, each (n, 6).

    One rng.random block gives each segment, in order, doubles d: u = +-(umin
    + (umax - umin) d0), + for d1 < 0.5, and duration 0.1 + 1.4 d2, the
    values of scalar draws rng.uniform(umin, umax), rng.uniform() and
    rng.uniform(0.1, 1.5), as rng.uniform(a, b) is a + (b - a) rng.random().
    """
    d = rng.random((DEGENERATE_TRAJECTORIES, 6, 3))
    u = (umin + (umax - umin) * d[..., 0]) * np.where(d[..., 1] < 0.5, 1.0, -1.0)
    return u, 0.1 + (1.5 - 0.1) * d[..., 2]


def _functional_increments(u, dur) -> np.ndarray:
    """Growth over |xi|^2 of H(v) = <v - v0, i xi> on 8 equal sub-arcs per segment, shape (..., n, 8).

    u (none 0) and dur, of shape (..., n), are n segments flowed in order
    from angle 0.  As dH/dt = Im(conj(xi) Lambda_t xi) = |xi|^2 (1 - cos t),
    a sub-arc of length h at control u from angle t adds |xi|^2 (h - k cos m)
    with x = u h / 2, k = 2 sin(x) / u and m = t + x.  It is formed as
    (2/u) ((x - sin x) + 2 sin x sin^2(m/2)), terms of one sign, so it is
    positive wherever sin^2(m/2) does not underflow.
    """
    t = np.zeros(u.shape)
    for j in range(1, u.shape[-1]):
        t[..., j] = _detA0_angle(dur[..., j - 1], t[..., j - 1], u[..., j - 1])
    u, hu = u[..., None], (dur / 8.0 * u)[..., None]
    x, m = 0.5 * hu, t[..., None] + (np.arange(8) + 0.5) * hu
    sin_x = np.sin(x)
    return 2.0 * ((x - sin_x) + 2.0 * sin_x * np.sin(0.5 * m) ** 2) / u


@dataclass
class DegenerateReport:
    """Structure verification for the A = 0 case."""

    n_trajectories: int
    min_functional_increment: float
    pairs: list
    n_mutual: int
    counterexamples: int
    irreversible_confirmed: int
    seed: int

    @property
    def passed(self) -> bool:
        return (
            self.min_functional_increment > 0.0
            and self.counterexamples == 0
            and self.n_mutual > 0
        )


def degenerate_structure_check(spec: SystemSpec, seed: int = 0) -> DegenerateReport:
    """Verify the two structural facts of the A = 0 case numerically, in units of xi.

    (a) The functional H(v) = <v - v0, i xi> strictly increases along
    DEGENERATE_TRAJECTORIES trajectories of 6 segments (which hold every
    shorter one as a prefix) whose control never vanishes: the report holds
    the least growth over |xi|^2 on a sub-arc, in closed form
    (:func:`_functional_increments`), which does not depend on xi.
    (b) Points mutually reachable with (0, v0) stay on the line v0 + R xi at
    angle 0: of DEGENERATE_PAIRS targets, steering succeeds in both
    directions only for those with no theta-xi offset, and every verified
    mutual pair satisfies |<v0 - v1, i xi>| < LINE_TOL.  A pair is mutual
    when both steering residuals are below PAIR_TOL.  Translation
    equivariance makes v0 irrelevant; the check uses v0 = 0.  The pairs run
    in the steering's units of xi (:func:`_prepare_steering`), |xi| in
    [1, 2 sqrt 2), with targets 0.3 to 1.5 along xi / |xi| and up to 0.5
    across it, so a power-of-two scaling of xi leaves the report unchanged.

    All random draws come first, in a fixed order, and the pairs are
    steered in one batched leg forward and one in reverse.  Raises
    ValueError when a steering value is not finite.
    """
    steering = _prepare_steering(spec)
    xi, u_max = steering.xi, steering.u_max
    rng = np.random.default_rng(seed)

    # (a) strict growth of the monotone functional.
    u, dur = _monotone_draws(rng, 0.05 * u_max, u_max)
    min_inc = float(_functional_increments(u, dur).min())

    # (b) constructive mutual-reachability pairs.
    xin = xi / abs(xi)
    offsets = []
    for k in range(DEGENERATE_PAIRS):
        c = rng.uniform(0.3, 1.5) * (1.0 if k % 2 == 0 else -1.0)
        off_line = k % 4 >= 2
        d = rng.uniform(0.05, 0.5) * (1.0 if rng.uniform() < 0.5 else -1.0) if off_line else 0.0
        offsets.append((c, d))
    c, d = np.array(offsets, dtype=float).reshape(-1, 2).T
    _, end_f, res_f = _steer_leg(steering, np.zeros(2), to_pairs(c * xin + d * (1j * xin)))
    p = end_f[:, 1:]
    _, _, res_r = _steer_leg(steering, p, np.zeros(2))
    if not (np.isfinite(end_f).all() and np.isfinite(res_f).all() and np.isfinite(res_r).all()):
        raise ValueError("degenerate check: steering values are not finite")
    mutual = (res_f < PAIR_TOL) & (res_r < PAIR_TOL)
    functional = np.abs((xi.conjugate() * to_complex(p)).imag)
    angle_dev = angle_dist(end_f[:, 0], 0.0)
    off_line = np.arange(len(c)) % 4 >= 2
    bad = (functional >= LINE_TOL) | (angle_dev >= 1e-9)
    keys = ("target_along", "target_offset", "forward_residual", "reverse_residual",
            "mutual", "functional", "angle_deviation")
    columns = (c, d, res_f, res_r, mutual, functional, angle_dev)
    pairs = [dict(zip(keys, row)) for row in zip(*(col.tolist() for col in columns))]

    return DegenerateReport(
        n_trajectories=DEGENERATE_TRAJECTORIES,
        min_functional_increment=min_inc,
        pairs=pairs,
        n_mutual=int(mutual.sum()),
        counterexamples=int((mutual & bad).sum()),
        irreversible_confirmed=int((~mutual & off_line).sum()),
        seed=int(seed),
    )
