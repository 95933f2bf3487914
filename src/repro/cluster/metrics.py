"""Per-agent metric collection (§3.4.3).

ElGA's autoscaling API collects metrics from Agents — graph change
rates, client query rates, and superstep times — and passes them to the
autoscaler.  An Agent's metrics are its counter registry
(:class:`~repro.bench.counters.PerfCounters`, kind ``agent``); a
METRIC_REPORT carries a snapshot of it to the agent's Directory.
Counters are monotone; rate computation (deltas over a window) happens
in the autoscaler, matching how the paper's exponential moving average
consumes them.
"""

from __future__ import annotations

from typing import Dict


def combine_metrics(snapshots) -> Dict[str, int]:
    """Sum metric snapshots across agents (cluster-wide totals)."""
    total: Dict[str, int] = {}
    for snap in snapshots:
        for key, value in snap.items():
            total[key] = total.get(key, 0) + value
    return total
