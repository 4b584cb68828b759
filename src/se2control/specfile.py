"""System spec files, control files, and machine-readable output writers.

A system spec is a JSON object with keys alpha, xi, A, eta1, omega; A is
either {"lambda": ..., "mu": ...} or a full 2x2 matrix (validated for the
rotation-commuting form).  Controls are {"segments": [{"duration", "u"}]}.
All numbers are written back with 17 significant digits so values round-trip
exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .flow import PiecewiseControl, Trajectory
from .system import SystemSpec, matrix_from_lambda_mu

FLOAT_FMT = "%.17g"
CSV_BLOCK_ROWS = 512


class SpecFileError(ValueError):
    """Raised for malformed or invalid spec/control files."""


def _fail(path: str, msg: str):
    raise SpecFileError(f"{path}: {msg}")


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(where, f"expected a number, got {type(obj).__name__}")
    val = float(obj)
    if not np.isfinite(val):
        _fail(where, "value must be finite")
    return val


def _vec2(obj, where: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        _fail(where, "expected a 2-element array")
    return np.array([_number(obj[0], where + "[0]"), _number(obj[1], where + "[1]")])


def _matrix(obj, where: str) -> np.ndarray:
    if isinstance(obj, dict):
        extra = set(obj) - {"lambda", "mu"}
        if extra:
            _fail(where, f"unknown keys {sorted(extra)}; expected lambda, mu")
        if "lambda" not in obj or "mu" not in obj:
            _fail(where, "matrix dict needs both 'lambda' and 'mu'")
        return matrix_from_lambda_mu(
            _number(obj["lambda"], where + ".lambda"), _number(obj["mu"], where + ".mu")
        )
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return np.array([_vec2(obj[0], where + "[0]"), _vec2(obj[1], where + "[1]")])
    _fail(where, "expected {'lambda', 'mu'} or a 2x2 matrix")


def parse_system_spec(data: dict, where: str = "spec") -> SystemSpec:
    if not isinstance(data, dict):
        _fail(where, "top level must be a JSON object")
    required = {"alpha", "xi", "A", "eta1", "omega"}
    missing = required - set(data)
    if missing:
        _fail(where, f"missing keys {sorted(missing)}")
    extra = set(data) - required
    if extra:
        _fail(where, f"unknown keys {sorted(extra)}")
    alpha = _number(data["alpha"], where + ".alpha")
    xi = _vec2(data["xi"], where + ".xi")
    a_mat = _matrix(data["A"], where + ".A")
    eta1 = _vec2(data["eta1"], where + ".eta1")
    omega = _vec2(data["omega"], where + ".omega")
    try:
        return SystemSpec(alpha, xi, a_mat, eta1, (float(omega[0]), float(omega[1])))
    except ValueError as exc:
        _fail(where, str(exc))


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc


def load_system_spec(path: str) -> SystemSpec:
    return parse_system_spec(_read_json(path), where=path)


def parse_control(data: dict, where: str = "control") -> PiecewiseControl:
    if not isinstance(data, dict) or "segments" not in data:
        _fail(where, "expected an object with a 'segments' array")
    segs = data["segments"]
    if not isinstance(segs, list):
        _fail(where + ".segments", "expected an array")
    out = []
    for k, seg in enumerate(segs):
        w = f"{where}.segments[{k}]"
        if not isinstance(seg, dict) or set(seg) != {"duration", "u"}:
            _fail(w, "expected {'duration', 'u'}")
        out.append((_number(seg["duration"], w + ".duration"), _number(seg["u"], w + ".u")))
    try:
        return PiecewiseControl(out)
    except ValueError as exc:
        _fail(where, str(exc))


def load_control(path: str) -> PiecewiseControl:
    return parse_control(_read_json(path), where=path)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def format_float(x) -> str:
    return FLOAT_FMT % float(x)


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(payload: dict, stream) -> None:
    """Write a report dict as deterministic, round-trip-safe JSON."""
    json.dump(_jsonable(payload), stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    """CSV columns s,t,v_x,v_y,u; planar runs leave t empty."""
    t_fmt = FLOAT_FMT if traj.kind == "group" else ""
    row = f"{FLOAT_FMT},{t_fmt},{FLOAT_FMT},{FLOAT_FMT},%s\n"
    table = np.column_stack([traj.times, traj.states])
    # A control holds for a whole segment, so each value is formatted once.
    controls = _formatted_once(np.ascontiguousarray(traj.controls, dtype=float))
    stream.write("s,t,v_x,v_y,u\n")
    # Blocks of rows keep the formatted text small next to the trajectory.
    for k in range(0, len(table), CSV_BLOCK_ROWS):
        block = slice(k, k + CSV_BLOCK_ROWS)
        stream.write("".join([row % r for r in zip(*table[block].T.tolist(), controls[block])]))


def _formatted_once(values: np.ndarray) -> list:
    """FLOAT_FMT text of each value, formatting each distinct bit pattern once."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [FLOAT_FMT % v for v in bits.view(np.float64).tolist()]
    return [text[k] for k in inverse.tolist()]


def write_cells_csv(reach, stream) -> None:
    """CSV of occupied cell centers: i,j,x,y."""
    cells = reach.occupied_cells()
    # Centers repeat along the grid lines, so most values are formatted once.
    xs, ys = (_formatted_once(c) for c in reach.cell_centers().T)
    stream.write("i,j,x,y\n")
    # Blocks of rows keep the formatted text small next to the grid.
    for k in range(0, len(cells), CSV_BLOCK_ROWS):
        block = slice(k, k + CSV_BLOCK_ROWS)
        rows = zip(*cells[block].T.tolist(), xs[block], ys[block])
        stream.write("".join([f"{i},{j},{x},{y}\n" for i, j, x, y in rows]))
