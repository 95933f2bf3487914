"""Latency percentiles for the serving plane.

Latencies are *simulated* seconds, so the percentiles are exact
properties of the modelled system rather than noisy wall-clock
artifacts — the sim clock makes honest tail measurement cheap.  A
proxy keeps its most recent samples in a bounded deque
(``ClientProxy.latencies``) and counts every delivery in its registry.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def percentile(samples: Iterable[float], q: float) -> float:
    """The q-th percentile (0..100) of ``samples``; NaN when empty."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))
