"""Calibrated per-operation compute costs (simulated seconds).

The simulation executes every algorithm and protocol step exactly, but
charges *time* through these constants instead of measuring the Python
interpreter, so results are deterministic and reflect the mechanisms the
paper attributes performance to (load balance, lookup overhead, message
latency, parallelism) rather than CPython's speed.

Calibration anchors, all taken from the paper itself or the systems it
cites:

* §3.5: MPI ≈ 1 µs, raw TCP ≈ 4 µs, ZeroMQ > 20 µs per send — these
  live in :class:`repro.net.latency.TransportModel`.
* §4.7: Blogel's CSR scan is faster per edge than ElGA's flat hash
  maps, but Blogel only profits from 8 MPI ranks/node while ElGA uses
  every core (32/node); ElGA still wins end-to-end.
* §4.8: GAPbs runs LiveJournal-scale WCC in ~0.94 s including CSR
  build; STINGER's median dynamic batch is ~0.032 s vs ElGA's 0.027 s.
* GraphX carries JVM + Spark stage overheads of tens of seconds per
  run (Figure 15: never under 49.45 s even for one-edge changes).

The absolute values are order-of-magnitude estimates for the paper's
2.1 GHz Xeon E5-2683v4; EXPERIMENTS.md compares shapes, not absolutes.

Charges follow the modelled cluster, not this process.  When the Python
here stops redoing work the paper's implementation does — an adoption
that re-examines only the rows a directory change can have moved — the
charge stays what the paper's straightforward pass costs
(``elga_migrate_check`` × resident edges on every adoption).  A wall
clock optimisation may therefore only move simulated time where the
model itself says the work got cheaper: a placement lookup answered by
a memo is charged ``elga_lookup_cached`` instead of the full
``placement_lookup_cost``, so an optimisation that keeps memos alive
longer must show *more* hits than before, never fewer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Per-operation simulated compute costs, in seconds."""

    # --- ElGA agent costs -------------------------------------------------
    # Processing one edge in a superstep: flat-hash-map access + message
    # buffer write.  Slower than a CSR scan (Blogel) by design (§4.7).
    elga_edge_op: float = 80e-9
    # One placement lookup: CountMinSketch query (d=8 rows) plus two
    # O(log(P·V)) binary searches (§3.4.1).
    elga_lookup: float = 55e-9
    # One placement lookup served from a participant's epoch-versioned
    # PlacementCache: a hash-probe into a memo table instead of the
    # sketch query + ring searches.  Participants charge hits at this
    # reduced rate and misses at the full ``placement_lookup_cost``;
    # the cache is only consulted while its directory epoch matches, so
    # the answer is bit-identical to the uncached path.
    elga_lookup_cached: float = 8e-9
    # Applying one vertex update / aggregating one received value.
    elga_vertex_op: float = 25e-9
    # Sender-side combining: folding one (dst, val) pair into the
    # per-destination partial before the packet ships.  A streaming
    # ufunc reduction over a sorted buffer — cheaper than the
    # receive-side ``elga_vertex_op`` it replaces (no hash-map probe),
    # and the per-packet ``elga_msg_op`` savings ride on coalescing.
    elga_combine_op: float = 6e-9
    # Ingesting one edge change (hash-map insert + sketch update).
    elga_ingest_op: float = 180e-9
    # Packing/unpacking one aggregated message buffer (per message, the
    # per-value cost rides on bandwidth via message size).
    elga_msg_op: float = 1.5e-6
    # Re-evaluating ownership of one resident edge after a directory
    # update (migration check, §3.4.3).
    elga_migrate_check: float = 60e-9
    # Moving one edge to another agent (erase + buffer write).
    elga_migrate_op: float = 150e-9
    # Serving one client query.
    elga_query_op: float = 1.5e-6
    # One proxy-side serving-cache operation (TTL'd result-cache probe,
    # coalescing-table probe, or cached-reply delivery).  Like
    # ``elga_lookup_cached`` this is a memo-table access, orders of
    # magnitude below the agent-side ``elga_query_op`` it saves — the
    # asymmetry the serving bench's QPS headroom comes from.
    elga_serving_cache_op: float = 2e-7

    # --- Streamer costs -----------------------------------------------------
    # Producing and routing one edge change at a streamer.
    streamer_edge_op: float = 140e-9

    # --- Blogel (C++/MPI BSP, CSR) -------------------------------------------
    # CSR scan + message write per edge; faster than ElGA's hash maps.
    blogel_edge_op: float = 70e-9
    # Receive-side combiner aggregation per incoming edge message.
    blogel_combine_op: float = 25e-9
    blogel_vertex_op: float = 25e-9
    # Per-superstep MPI allreduce term: latency × log2(P) plus a
    # saturation term linear in P (the paper observed allreduces
    # saturating the network past 8 ranks/node).
    blogel_allreduce_base: float = 25e-6
    blogel_allreduce_per_rank: float = 1.2e-6

    # --- GraphX (Spark/JVM) -----------------------------------------------------
    # JVM + RDD overhead per edge per iteration.
    graphx_edge_op: float = 520e-9
    graphx_vertex_op: float = 180e-9
    # Per-iteration stage scheduling + shuffle setup.
    graphx_stage_overhead: float = 0.35
    # Job startup/teardown (executor launch, DAG setup): the reason
    # GraphX never beats ~49 s on Twitter-2010 even for one-edge batches
    # (Figure 15).  Includes graph re-load into RDDs.
    graphx_job_overhead: float = 38.0
    graphx_load_per_edge: float = 7e-9

    # --- Single-node systems (Figure 13) -------------------------------------------
    # STINGER: shared-memory dynamic batch insert + component repair.
    stinger_edge_op: float = 55e-9
    stinger_batch_overhead: float = 0.012
    # GAPbs: CSR build + Shiloach-Vishkin per edge, already amortized
    # over the node's 32 cores.  Calibrated so LiveJournal (~69 M
    # directed edges, ~3 hook/compress passes) lands at the paper's
    # 0.94 s including the CSR build (§4.8).
    gapbs_edge_op: float = 1.2e-9
    gapbs_build_per_edge: float = 3e-9

    # -- derived costs ---------------------------------------------------------

    def sketch_query_cost(self, width: int, depth: int) -> float:
        """Per-query CountMinSketch cost as a function of table size.

        The Figure 7a inflection comes from the sketch falling out of
        cache: each query touches ``depth`` rows, and a row's access
        cost steps up as the row outgrows L1/L2/L3 (per-core slice)
        on the paper's Xeon E5-2683v4.
        """
        row_bytes = width * 8
        if row_bytes <= 32 * 1024:
            per_row = 3e-9
        elif row_bytes <= 256 * 1024:
            per_row = 6e-9
        elif row_bytes <= 2 * 1024 * 1024:
            per_row = 14e-9
        else:
            per_row = 45e-9
        return depth * per_row

    def placement_lookup_cost(
        self, width: int, depth: int, ring_positions: int, cached: bool = False
    ) -> float:
        """One edge-to-Agent resolution: sketch query + two ring
        binary searches of O(log(P · virtual_factor)) (§3.4.1–2).

        With ``cached=True``, the reduced memo-table charge for a
        PlacementCache hit (see ``elga_lookup_cached``) — the only
        simulated-time change the cache introduces.
        """
        if cached:
            return self.elga_lookup_cached
        search = 2 * max(1.0, math.log2(max(ring_positions, 2))) * 1.6e-9
        return self.sketch_query_cost(width, depth) + search

    def combine_cost(self, pairs_in: int) -> float:
        """Sender-side combining charge for pre-reducing ``pairs_in``
        raw (dst, val) pairs into per-destination partials.

        The savings are accounted where they occur: the receiver
        charges ``elga_msg_op`` per *packet* and ``elga_vertex_op``
        per *delivered pair*, both of which shrink when combining and
        coalescing reduce the traffic — so total simulated time
        reflects the smaller wire volume without any special-casing.
        """
        return self.elga_combine_op * pairs_in


DEFAULT_COSTS = CostModel()
"""The calibrated defaults used by all experiments."""
