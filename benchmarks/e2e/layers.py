"""The per-layer table of one traced repetition.

Self times come from the spans; counts come from the spans' ``work``
field where a seam is the place the work happens, and otherwise from
the difference of two :meth:`Workload.counters` snapshots taken around
the repetition.
"""

from __future__ import annotations

from typing import Dict, List

from . import spans as sp
from .specs import LAYERS, PER_LAYER


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[list],
    before: Dict[str, float],
    after: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
    delta_share: float,
    load_skew: float,
) -> Dict[str, float]:
    def d(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    seams = sp.tally(spans)

    def calls(layer: str, *names: str) -> int:
        return sum(seams.get((layer, name), (0, 0))[0] for name in names)

    def rows(layer: str, name: str) -> int:
        return seams.get((layer, name), (0, 0))[1]

    out = {f"{layer}.self_s": t for layer, t in sp.self_times(spans).items()}
    for layer in LAYERS:
        out.setdefault(f"{layer}.self_s", 0.0)
    # Time inside timed windows but outside every operation root.
    out["harness.self_s"] += traced_wall - sp.root_time(spans)
    out["harness.trace_overhead_ratio"] = _ratio(traced_wall, untraced_wall)

    out["hashing.keys_hashed"] = rows("hashing", "wang64")
    # Participants rebuild their ring from the directory state, so a
    # membership change shows as constructions, not add/remove calls.
    out["hashing.ring_updates"] = calls(
        "hashing", *(f"ConsistentHashRing.{m}" for m in ("__init__", "add", "remove")))
    out["sketch.keys_added"] = rows("sketch", "CountMinSketch.add")
    out["sketch.keys_queried"] = rows("sketch", "CountMinSketch.query")
    out["sketch.merges"] = calls("sketch", "CountMinSketch.merge")
    out["partition.edges_resolved"] = rows("partition", "PlacementCache.owner_of_edges")
    hits, misses = d("placement_cache_hits"), d("placement_cache_misses")
    out["partition.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["partition.epoch_invalidations"] = d("placement_epoch_invalidations")
    out["cluster.streamer.edges_routed"] = rows("cluster.streamer", "Streamer.stream_batch")
    applied = rows("cluster.edgestore", "EdgeStore.apply")
    out["cluster.edgestore.apply_calls"] = calls("cluster.edgestore", "EdgeStore.apply")
    out["cluster.edgestore.rows_applied"] = applied
    out["cluster.edgestore.effective_row_ratio"] = _ratio(d("updates_applied"), applied)
    out["cluster.recovery.wal_rows"] = d("wal_records_logged")
    out["kernels.rows"] = sum(r for (layer, _), (_, r) in seams.items() if layer == "kernels")
    out["cluster.dataplane.pairs_emitted"] = d("dataplane_pairs_emitted")
    out["cluster.dataplane.combine_ratio"] = _ratio(d("combine_pairs_out"), d("combine_pairs_in"))
    out["cluster.dataplane.packets_coalesced"] = d("packets_coalesced")
    for name in ("edges_processed", "updates_forwarded", "replica_syncs", "edges_migrated"):
        out[f"cluster.agent.{name}"] = d(name)
    out["cluster.agent.load_skew"] = load_skew
    out["cluster.directory.barrier_rounds"] = d("run_rounds")
    out["cluster.directory.broadcasts"] = calls("net", "PubSubSocket.publish")
    out["sim.events"] = d("events")
    for name in ("messages", "bytes", "retransmits", "drops"):
        out[f"net.{name}"] = d(name)
    out["cluster.client.queries"] = d("client_queries_sent")
    out["cluster.client.fanouts"] = d("client_fanouts_dispatched")
    out["cluster.client.coalesced"] = d("client_queries_coalesced")
    out["cluster.client.shed"] = d("client_queries_shed")
    out["cluster.client.snapshot_retries"] = d("client_snapshot_retries")
    hits, misses = d("serving_cache_hits"), d("serving_cache_misses")
    out["serving.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["serving.version_invalidations"] = d("serving_cache_version_invalidations")
    out["serving.ttl_expirations"] = d("serving_cache_expirations")
    out["core.supersteps"] = d("run_supersteps")
    out["core.rounds"] = d("run_rounds")
    out["core.delta_share"] = delta_share

    declared = [name for name, _, _ in PER_LAYER]
    if sorted(out) != sorted(declared):
        odd = sorted(set(out) ^ set(declared))
        raise RuntimeError(f"per-layer table and specs.PER_LAYER disagree on {odd}")
    return {name: float(out[name]) for name in declared}
