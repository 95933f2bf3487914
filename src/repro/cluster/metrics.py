"""Per-agent metric collection (§3.4.3).

ElGA's autoscaling API collects metrics from Agents — graph change
rates, client query rates, and superstep times — and passes them to the
autoscaler.  Counters are monotone; rate computation (deltas over a
window) happens in the autoscaler, matching how the paper's exponential
moving average consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class AgentMetrics:
    """Monotone counters maintained by one Agent."""

    edges_processed: int = 0       # edge scans during compute
    messages_sent: int = 0         # data-plane messages
    updates_applied: int = 0       # edge changes applied
    updates_forwarded: int = 0     # stale-placement forwards
    queries_served: int = 0        # client queries answered
    edges_migrated: int = 0        # edges sent away on rebalance
    rebalance_adoptions: int = 0   # directory states adopted with changed weights
    # Post-adoption migration check: resident rows whose owner was
    # re-resolved, and adoptions that could not have moved any row
    # (rows re-examined ÷ rows resident per broadcast is the cost of an
    # adoption relative to the paper's full pass).
    migrate_rows_rechecked: int = 0
    migrate_rechecks_skipped: int = 0
    supersteps: int = 0
    replica_syncs: int = 0
    # Data-plane fast path: raw (dst, val) pairs the sender-side
    # combiner removed from the wire, emissions merged away by round
    # coalescing (emissions - packets), and VERTEX_MSG_ACK packets
    # saved by cumulative ack batching (credits - ack packets).
    pairs_combined: int = 0
    packets_coalesced: int = 0
    acks_batched: int = 0
    # Placement fast path (synced from the agent's PerfCounters when a
    # METRIC_REPORT is produced).
    placement_cache_hits: int = 0
    placement_cache_misses: int = 0
    placement_epoch_invalidations: int = 0
    # Reliable-transport recovery path (synced the same way): how often
    # the fabric had to retransmit this agent's sends, and how many
    # duplicate deliveries it suppressed on this agent's behalf.
    transport_retries: int = 0
    transport_dups_suppressed: int = 0
    # Crash-tolerance path: liveness signalling and durability work.
    heartbeats_sent: int = 0
    checkpoints_taken: int = 0
    checkpoints_restored: int = 0
    wal_records_logged: int = 0
    wal_records_replayed: int = 0
    recoveries_participated: int = 0
    # Incremental path: cumulative count of locally-hosted vertices that
    # were active at each barrier round — the area under the frontier
    # curve, so frontier collapse is visible in the exposition.
    frontier_size: int = 0
    # Serving plane: queries answered from a barrier-published snapshot
    # view (vs the persistent fixpoint store), and views published (one
    # per program per completed round).
    queries_from_snapshot: int = 0
    serving_views_published: int = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (what a METRIC_REPORT would carry).

        Derived from the dataclass fields so a newly added counter can
        never silently miss the export (field drift).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}


def combine_metrics(snapshots) -> Dict[str, int]:
    """Sum metric snapshots across agents (cluster-wide totals)."""
    total: Dict[str, int] = {}
    for snap in snapshots:
        for key, value in snap.items():
            total[key] = total.get(key, 0) + value
    return total
