"""System spec files, control files, and machine-readable output writers.

A system spec is a JSON object with keys alpha, xi, A, eta1, omega; A is
either {"lambda": ..., "mu": ...} or a full 2x2 matrix (validated for the
rotation-commuting form).  Controls are {"segments": [{"duration", "u"}]}.
All numbers are written back with 17 significant digits so values round-trip
exactly.

Every number in a CSV is the bytes of Python's ``'%.17g' % x``.  The
trajectory CSV forms them in blocks of rows with one numpy kernel: for
1e-4 <= |x| < 1e16 it rounds x to 17 significant digits exactly (Dekker's
error-free product of x and a power of ten, then round half to even) and
writes the digits in fixed notation, as ``%.17g`` does in that range; +-0
print as "0" and "-0".  Every other value (smaller, larger, subnormal, inf
or nan) is formatted by ``FLOAT_FMT % x`` itself and spliced in.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .flow import PiecewiseControl, Trajectory
from .system import SystemSpec, matrix_from_lambda_mu

FLOAT_FMT = "%.17g"
CSV_BLOCK_ROWS = 512
# Separator bytes after each CSV column, one row per byte; 0 writes nothing.
# A planar trajectory has no angle, so its time is followed by ",,".
_TRAJ_SEPS = {
    "group": np.array([[44, 44, 44, 44, 10]], np.uint8),
    "planar": np.array([[44, 44, 44, 10], [44, 0, 0, 0]], np.uint8),
}


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


def dump_json(payload: dict, stream) -> None:
    """Write a report dict as deterministic, round-trip-safe JSON, in one write.

    numpy arrays and scalars go out as their Python values; np.float64 is a
    float, so json prints it with float.__repr__ like any other float.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
    stream.write(text + "\n")


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    """CSV columns s,t,v_x,v_y,u; planar runs leave t empty."""
    table = np.column_stack([traj.times, traj.states, traj.controls])
    seps = np.tile(_TRAJ_SEPS[traj.kind], min(len(table), CSV_BLOCK_ROWS))
    stream.write("s,t,v_x,v_y,u\n")
    # Blocks of rows keep the kernel's temporaries small next to the trajectory.
    for k in range(0, len(table), CSV_BLOCK_ROWS):
        values = table[k : k + CSV_BLOCK_ROWS].ravel()
        stream.write(_format_values(values, seps[:, : values.size]))


# ---------------------------------------------------------------------------
# The %.17g kernel
# ---------------------------------------------------------------------------
#
# For a value a = |x| in [1e-4, 1e16) with E = floor(log10 a), %.17g writes
# the integer m = round_half_even(a * 10**(16 - E)), 1e16 <= m <= 1e17, in
# fixed notation: the decimal point goes after digit E of m (after "0." and
# -E - 1 zeros when E < 0), and trailing zeros after the point are dropped,
# with the point itself if nothing follows it.  With the 17 digits written
# after "0000", digit j0 = E + 4 of that string is the last one before the
# point, and the first one written is digit min(j0, 4).
#
# The kernel works on position-major byte matrices: row j holds character j
# of every value, so each numpy call runs over one long row.  Characters
# that are not written are NUL bytes, deleted once at the end.

_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e16
_J = np.arange(22, dtype=np.int8)[:, None]  # positions in "0000" + 17 digits + 1


def _split(a):
    """(hi, lo) with hi + lo == a exactly and each half of at most 26 bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


def _scales():
    """Rows p, p_hi, p_lo of 10**(24 - j) for j = E + 8; exact doubles for j >= 2."""
    p = np.array([float(10 ** min(24 - j, 22)) for j in range(25)])
    return np.stack([p, *_split(p)])


_SCALE = _scales()


@functools.cache
def _digit_table() -> np.ndarray:
    """The 4 ASCII digits of each n < 10**4 as one little-endian uint32."""
    t = np.empty((10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(48, 58, dtype=np.uint8)
    t[..., 0] = digit[:, None, None, None]
    t[..., 1] = digit[:, None, None]
    t[..., 2] = digit[:, None]
    t[..., 3] = digit
    return t.reshape(-1).view("<u4")


def _scaled(a, e8):
    """a * 10**(16 - E) as hi + lo exactly, with e8 = E + 8 (Dekker's product)."""
    p, p_hi, p_lo = np.take(_SCALE, e8, axis=1)
    hi = a * p
    a_hi, a_lo = _split(a)
    lo = a_hi * p_hi - hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    return hi, lo


def _rounded(hi, lo):
    """round_half_even(hi + lo) as int64, for 1e16 <= hi + lo <= 1e17.

    There hi >= 2**53 is an even integer and |lo| <= ulp(hi) / 2, so rounding
    lo alone to even rounds the sum half to even."""
    m = hi.astype(np.int64)
    m += np.rint(lo).astype(np.int64)
    return m


def _digits17(a):
    """m (17 digits) and e8 = E + 8 of each a in [1e-4, 1e16)."""
    e8 = np.empty(a.size, np.intp)
    np.add(np.log10(a), 8.0, out=e8, casting="unsafe")  # floor, as the sum is > 0
    hi, lo = _scaled(a, e8)
    m = _rounded(hi, lo)
    # log10 can put E one off next to a power of ten; then m leaves
    # [1e16, 1e17).  No double a in range lies within 5e-17 of it below a power
    # of ten (the nearest, below 0.1, lies 8.3e-17 below), so no a * 10**k
    # rounds up to 1e16 or 1e17 and m alone tells.
    (off,) = np.nonzero((m - 10**16).view(np.uint64) >= 9 * 10**16)
    if off.size:
        h, r = hi[off], lo[off]  # the exact h + r sets E
        e = e8[off] - ((h < 1e16) | ((h == 1e16) & (r < 0.0)))
        e += (h > 1e17) | ((h == 1e17) & (r >= 0.0))
        m[off] = _rounded(*_scaled(a[off], e))
        e8[off] = e
    return m, e8


def _format_values(x: np.ndarray, seps: np.ndarray) -> str:
    """``FLOAT_FMT % x[i]`` then the separator bytes seps[:, i] (0 writes nothing), for every i."""
    n = x.size
    a = np.abs(x)
    # A value outside [1e-4, 1e16) (nan too) is formed as 1e-4 with m = 0,
    # which prints "0" after its sign: that is +-0 itself, and the place of a
    # value spliced in below.
    clipped = np.where(a < _FIXED_MAX, np.fmax(a, _FIXED_MIN), _FIXED_MIN)
    fixed = clipped == a
    m, e8 = _digits17(clipped)
    m *= fixed
    j0 = np.empty(n, np.int8)
    np.subtract(e8, 4, out=j0, casting="unsafe")

    # Digits: m = g0 g1 g2 g3 g4 in groups of 1 and 4 digits.
    groups = np.empty((4, n), np.int64)
    for k in range(3):
        np.floor_divide(m, 10 ** (12 - 4 * k), out=groups[k])
    groups[3] = m
    high = groups // 10**4
    groups -= high * 10**4
    # z: a NUL row, then "0000", g0 and the 16 digits of g1..g4, and a spare "0".
    z = np.full((23, n), 48, np.uint8)
    z[0] = 0
    np.add(high[0], 48, out=z[5], casting="unsafe")
    digits = _digit_table().take(groups).view(np.uint8).reshape(4, n, 4)
    z[6:22].reshape(4, 4, n)[...] = digits.transpose(0, 2, 1)

    # keep: the characters written.  Digits after the point are kept while a
    # nonzero digit follows; leading zeros only from position j0 on.
    keep = z[1:] != 48
    for step in (1, 2, 4, 8):
        keep[5 : 21 - step] |= keep[5 + step : 21]  # numpy reads the right side first
    before = _J <= j0
    keep |= before
    keep[:4] |= keep[4]
    keep[:4] &= _J[:4] >= j0
    z[1:] *= keep

    # Rows of out: the sign, 22 characters with the point after position j0,
    # then the separator bytes.
    out = np.empty((23 + len(seps), n), np.uint8)
    np.multiply(np.signbit(x), 45, out=out[0], casting="unsafe")
    body = out[1:23]
    np.subtract(z[:-1], z[1:], out=body)
    body *= ~before
    body += z[1:]  # character c is z[c] up to the point, z[c - 1] after it
    point = e8 * n
    point += np.arange(-2 * n, -n)  # (j0 + 2) n + i
    out.ravel()[point] = keep.view(np.uint8).ravel()[point - n] * np.uint8(46)
    out[23:] = seps
    texts = []
    if not fixed.all():
        # The other nonzero values print "\x010" here, replaced by their own text.
        spliced = ~fixed & (x != 0.0)
        np.copyto(out[0], 1, where=spliced)
        texts = [FLOAT_FMT % v for v in x[spliced].tolist()]
    text = out.T.tobytes().translate(None, b"\0").decode("ascii")
    if not texts:
        return text
    parts = text.split("\x010")
    return "".join([p for pair in zip(parts, texts) for p in pair] + parts[-1:])


def _formatted_once(values: np.ndarray) -> list:
    """FLOAT_FMT text of each value, formatting each distinct bit pattern once."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [FLOAT_FMT % v for v in bits.view(np.float64).tolist()]
    return [text[k] for k in inverse.tolist()]


def _text_rows(texts: list) -> np.ndarray:
    """The ASCII texts as the rows of a NUL-padded uint8 matrix."""
    rows = np.array([t.encode("ascii") for t in texts], dtype=bytes)
    return rows.view(np.uint8).reshape(len(texts), -1)


def write_cells_csv(reach, stream) -> None:
    """CSV of occupied cell centers: i,j,x,y."""
    cells = reach.occupied_cells()
    centers = reach.cell_centers()
    # A center's x depends on i alone and its y on j alone, so the texts of
    # each distinct i and j are formed once, as NUL-padded byte rows that
    # the CSV rows gather; one bytes.translate per block drops the padding.
    tables, inverses = [], []
    for axis, end in ((0, ","), (1, "\n")):
        index, first, inverse = np.unique(cells[:, axis], return_index=True, return_inverse=True)
        values = _formatted_once(centers[first, axis])
        index_text = _text_rows([f"{k}," for k in index.tolist()])
        tables.append((index_text, _text_rows([v + end for v in values])))
        inverses.append(inverse)
    (i_text, x_text), (j_text, y_text) = tables
    stream.write("i,j,x,y\n")
    # Blocks of rows keep the byte matrix small next to the grid.
    for k in range(0, len(cells), CSV_BLOCK_ROWS):
        i, j = (inv[k : k + CSV_BLOCK_ROWS] for inv in inverses)
        rows = np.concatenate([i_text[i], j_text[j], x_text[i], y_text[j]], axis=1)
        stream.write(rows.tobytes().translate(None, b"\0").decode("ascii"))
