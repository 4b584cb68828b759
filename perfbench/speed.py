"""Reference probes that measure how fast the host is running right now.

The host is shared: its speed switches between states up to 2x apart, for
seconds to tens of seconds at a time.  A probe runs before every job of a
round and after its last one, and the round's job times are scaled by
nominal / median probe time, which reports them at the speed the host has
in its fast state.  A single probe is noisy (a few percent to tens of
percent); the median over a round is not, and a round lasts 0.5 to 4 s, far
shorter than the host's states.

Code of different kinds slows by different factors, so each workload is
scaled by the probe that does the same kind of work.  Measured slow-state over
fast-state times in 100–150 s samples: the array probe 1.17, reach jobs
1.21–1.31; the mixed probe 1.6–1.8, plan and simulate jobs 1.63–1.73, verify
jobs 1.29–1.48.  The scaling removes most of the host's swings, not all.

The nominal times are the probes' 5th percentiles on the reference host
(2 cores, Python 3.11.7, numpy 2.4.6, 2026-10-17).  Changing a probe changes
the scale of every figure, so the probes stay fixed.
"""

import functools
import math
import time

import numpy as np

PROBE_NOMINAL_S = {"array": 0.00112, "mixed": 0.00091}

_EYE = np.eye(2)


@functools.cache
def _arrays() -> tuple:
    # Allocated once, on first use, so that probing neither churns the
    # allocator (which moved peak RSS by 5 %) nor burdens other workloads.
    x = np.random.default_rng(0).uniform(size=400_000)
    return x, np.empty_like(x), np.empty(x.shape, dtype=bool), np.empty(x.shape, dtype=bool)


def probe(kind: str) -> float:
    """Seconds taken by the fixed reference computation of this kind."""
    arrays = _arrays() if kind == "array" else None
    t = time.perf_counter()
    if kind == "array":
        x, f, below, above = arrays
        np.subtract(x, 0.1, out=f)
        np.divide(f, 0.003, out=f)
        np.floor(f, out=f)
        np.less(f, 300.0, out=below)
        np.greater_equal(f, 0.0, out=above)
        np.logical_and(below, above, out=below)
        np.count_nonzero(below)
    else:
        acc = 0.0
        for i in range(3000):
            acc += math.sin(i * 1e-3) * 1.0001
        a = np.ones(2)
        for _ in range(300):
            a = (a * 0.5 + 1.0) @ _EYE
    return time.perf_counter() - t
