"""The query-serving plane (Goal 4: answer queries during computation).

ElGA's fourth design goal is serving client queries concurrently with
analysis.  This package holds the proxy-side machinery that turns the
thin one-query-one-packet :class:`~repro.cluster.client.ClientProxy`
into a serving tier:

* :class:`ResultCache` — a TTL'd result cache fenced by the directory's
  placement-epoch token and a per-program result version, so a stale
  read is structurally impossible rather than probabilistically rare.
* :func:`percentile` — latency percentiles on the simulated clock.
* :class:`OpenLoopWorkload` — a synthetic open-loop generator (Zipf
  keys, diurnal arrivals, up to ~10⁶ simulated clients multiplexed over
  proxy entities) for the tail-latency benchmarks.
"""

from repro.serving.cache import CacheEntry, ResultCache
from repro.serving.stats import percentile
from repro.serving.workload import OpenLoopWorkload, zipf_keys

__all__ = [
    "CacheEntry",
    "ResultCache",
    "percentile",
    "OpenLoopWorkload",
    "zipf_keys",
]
