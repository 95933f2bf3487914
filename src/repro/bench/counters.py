"""Every entity's counters: one declaration, one registry per entity.

An entity — Agent, Streamer, ClientProxy, Directory, DirectoryMaster —
counts what it does into its own :class:`PerfCounters` (``entity.perf``),
and nowhere else.  :data:`COUNTERS` declares each name once: what it
counts and the entity kinds that carry it.  A registry starts with its
kind's names at 0, so a snapshot, a METRIC_REPORT and the exposition
keep one shape; ``add`` of a name the registry does not carry raises.

Counts are plain monotone integers, one dict update per batch, never
per edge: cheap enough to leave on everywhere, and deterministic in any
replayed simulation.  The cluster keeps every registry it ever created,
so a total is a plain sum and nothing is merged when an entity leaves
or crashes (``ElGACluster.totals``).  What the fabric sees (messages,
bytes, drops, retransmissions) is counted by the fabric
(``NetworkStats``), not here.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

PARTICIPANTS = ("agent", "streamer", "client")
ENTITIES = PARTICIPANTS + ("directory", "master")


class Counter(NamedTuple):
    kinds: Tuple[str, ...]
    meaning: str


#: name -> (the entity kinds that carry it, what it counts).
COUNTERS: Dict[str, Counter] = {
    # -- agents: compute and the data plane
    "edges_processed": Counter(("agent",), "edge scans during compute"),
    "dataplane_pairs_emitted": Counter(("agent",), "raw (dst, val) pairs a round emitted"),
    "combine_pairs_in": Counter(("agent",), "pairs handed to the sender-side combiner"),
    "combine_pairs_out": Counter(("agent",), "pairs the sender-side combiner kept"),
    "pairs_combined": Counter(("agent",), "pairs the sender-side combiner removed from the wire"),
    "packets_coalesced": Counter(("agent",), "round emissions merged into one packet"),
    "messages_sent": Counter(("agent",), "data-plane packets sent"),
    "data_ack_credits": Counter(("agent",), "data-plane packets acknowledged by VERTEX_MSG_ACK"),
    "acks_batched": Counter(("agent",), "VERTEX_MSG_ACK packets saved by cumulative acks"),
    "supersteps": Counter(("agent",), "supersteps computed"),
    "replica_syncs": Counter(("agent",), "split-vertex replica syncs sent or applied"),
    "frontier_size": Counter(("agent",), "hosted vertices active at each barrier round, summed"),
    # -- agents: ingest and elasticity
    "updates_applied": Counter(("agent",), "edge changes applied to the stores"),
    "updates_forwarded": Counter(("agent",), "edge changes forwarded on a stale placement"),
    "edges_migrated": Counter(("agent",), "edge copies sent away on a re-home"),
    "rebalance_adoptions": Counter(("agent",), "adopted states whose ring weights changed"),
    "migrate_rows_rechecked": Counter(("agent",), "resident rows re-resolved after an adoption"),
    "migrate_rechecks_skipped": Counter(("agent",), "adoptions that could not have moved a row"),
    # -- agents: serving
    "queries_served": Counter(("agent",), "client queries answered"),
    "queries_from_snapshot": Counter(("agent",), "queries answered from a published snapshot view"),
    "serving_views_published": Counter(("agent",), "snapshot views published at a barrier"),
    # -- agents: crash tolerance
    "heartbeats_sent": Counter(("agent",), "HEARTBEATs pushed to the home directory"),
    "checkpoints_taken": Counter(("agent",), "durable checkpoints written"),
    "checkpoints_restored": Counter(("agent",), "checkpoints restored by a replacement"),
    "wal_records_logged": Counter(("agent",), "edge rows appended to the WAL"),
    "wal_records_replayed": Counter(("agent",), "WAL rows replayed by a replacement"),
    "recoveries_participated": Counter(("agent",), "cluster recoveries this agent took part in"),
    # -- participants: placement fast path and the term fence
    "placement_cache_hits": Counter(PARTICIPANTS, "edge placements answered from the cache"),
    "placement_cache_misses": Counter(PARTICIPANTS, "edge placements resolved on the ring"),
    "placement_epoch_invalidations": Counter(PARTICIPANTS, "caches dropped by a new epoch"),
    "placement_ring_memo_hits": Counter(PARTICIPANTS, "vertex ring owners answered from the memo"),
    "stale_term_drops": Counter(
        PARTICIPANTS + ("directory",), "control packets dropped for carrying a superseded term"
    ),
    # -- every entity: what the reliable transport did on its behalf
    "transport_retries": Counter(ENTITIES, "retransmissions of this entity's sends"),
    "transport_dups_suppressed": Counter(ENTITIES, "duplicate deliveries suppressed for it"),
    # -- client proxies
    "client_queries_sent": Counter(("client",), "queries accepted"),
    "client_queries_delivered": Counter(("client",), "queries delivered (one latency sample each)"),
    "client_replies_received": Counter(("client",), "CLIENT_REPLY packets received"),
    "client_queries_retried": Counter(("client",), "queries re-issued by failover or a term bump"),
    "client_queries_coalesced": Counter(("client",), "queries that shared another's fan-out"),
    "client_queries_shed": Counter(("client",), "queries shed by admission control"),
    "client_fanouts_dispatched": Counter(("client",), "fan-outs sent to agents"),
    "client_snapshot_retries": Counter(("client",), "fan-outs retried on a torn snapshot"),
    "client_snapshot_value_merges": Counter(("client",), "fan-outs merged on equal values"),
    "serving_cache_hits": Counter(("client",), "result-cache hits"),
    "serving_cache_misses": Counter(("client",), "result-cache misses"),
    "serving_cache_expirations": Counter(("client",), "result-cache entries past their TTL"),
    "serving_cache_version_invalidations": Counter(("client",), "entries fenced by a version"),
    "serving_cache_epoch_invalidations": Counter(("client",), "entries fenced by an epoch"),
    "serving_cache_negative_invalidations": Counter(("client",), "negative entries dropped"),
    "serving_cache_evictions": Counter(("client",), "entries evicted at capacity"),
    # -- directories: failure detection and the control plane
    "heartbeats_missed": Counter(("directory",), "heartbeats the failure detector found overdue"),
    "lease_expirations": Counter(("directory",), "agent leases that expired into suspicion"),
    "lead_elections": Counter(("directory",), "lead elections this directory won"),
    "rebalance_plans_adopted": Counter(("directory",), "ring re-weight plans the lead adopted"),
}

#: kind -> the names a registry of that kind carries, in declaration order.
KIND_COUNTERS: Dict[str, Tuple[str, ...]] = {
    kind: tuple(name for name, c in COUNTERS.items() if kind in c.kinds) for kind in ENTITIES
}


class PerfCounters:
    """One entity's named monotone counters.

    ``kind`` fixes the names it carries (all at 0 from the start); a
    registry without a kind — a cache built on its own, a total —
    starts empty and takes any declared name.

    Examples
    --------
    >>> c = PerfCounters("streamer")
    >>> c.add("placement_cache_hits", 3)
    >>> c.add("placement_cache_hits")
    >>> c.counts["placement_cache_hits"], c.counts["placement_cache_misses"]
    (4, 0)
    >>> c.add("edges_migrated")
    Traceback (most recent call last):
    ...
    KeyError: "'edges_migrated' is not a counter of a streamer registry"
    """

    __slots__ = ("kind", "counts")

    def __init__(self, kind: Optional[str] = None):
        self.kind = kind
        self.counts: Dict[str, int] = dict.fromkeys(KIND_COUNTERS[kind], 0) if kind else {}

    def add(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n`` (a Python int)."""
        try:
            self.counts[name] += n
        except KeyError:
            if self.kind is not None or name not in COUNTERS:
                raise KeyError(
                    f"{name!r} is not a counter of a {self.kind or 'kindless'} registry"
                ) from None
            self.counts[name] = n

    def __getattr__(self, name: str) -> int:
        # Read-only attribute access to one count: the end-to-end
        # harness reads ``agent.metrics.edges_migrated``.
        if name == "counts":  # not yet set (copy / unpickle)
            raise AttributeError(name)
        try:
            return self.counts[name]
        except KeyError:
            raise AttributeError(name) from None

    def merge(self, other: "PerfCounters") -> None:
        """Add another counter set into this one (for aggregation)."""
        for name, value in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def snapshot(self) -> Dict[str, int]:
        """A flat copy of all counters."""
        return dict(self.counts)


def aggregate_counters(counter_sets: Iterable[PerfCounters]) -> PerfCounters:
    """Merge many :class:`PerfCounters` into a fresh one."""
    total = PerfCounters()
    for counters in counter_sets:
        total.merge(counters)
    return total
