"""Occupancy-mask and reach-set helpers shared by the reach-set tests."""
import numpy as np


def binary_erode(occ: np.ndarray, layers: int = 1) -> np.ndarray:
    """Erode an occupancy mask by `layers` 8-neighborhood shells."""
    out = occ.copy()
    for _ in range(layers):
        padded = np.zeros((out.shape[0] + 2, out.shape[1] + 2), dtype=bool)
        padded[1:-1, 1:-1] = out
        eroded = padded[1:-1, 1:-1].copy()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                eroded &= padded[1 + di : padded.shape[0] - 1 + di, 1 + dj : padded.shape[1] - 1 + dj]
        out = eroded
    return out


def contains(region, v) -> bool:
    """Whether v lies in an occupied cell of a reach set; False off the grid."""
    cfg = region.config
    if not cfg.in_bounds(v):
        return False
    i, j = cfg.cell_of(v)
    return bool(region.occupied[i, j])


def representatives(region) -> np.ndarray:
    """A reach set's exact reachable points, row k in cell ids[k], shape (k, 2)."""
    return np.stack([region.rep_x, region.rep_y], 1)
