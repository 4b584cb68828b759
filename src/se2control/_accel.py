"""Numerical backend selection.

The grid reachability expansion comes in two flavors: a numba-jitted loop
and a pure-numpy implementation.  The env var
``SE2CONTROL_BACKEND=numpy`` forces the fallback; anything else uses numba
when it is importable.  Both paths execute the same floating-point operations
in the same order, so results are identical bit for bit.
"""

from __future__ import annotations

import os

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # numba is an optional extra
    numba = None
    HAS_NUMBA = False

_REQUESTED = os.environ.get("SE2CONTROL_BACKEND", "numba").strip().lower()

USE_NUMBA = HAS_NUMBA and _REQUESTED != "numpy"
BACKEND = "numba" if USE_NUMBA else "numpy"


def njit_if_available(func):
    """Always jit when numba is importable, regardless of the env flag.

    Used to expose the jitted variant to benchmarks even when the active
    backend is numpy.
    """
    if HAS_NUMBA:
        return numba.njit(cache=True)(func)
    return func
