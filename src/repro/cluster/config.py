"""Cluster-wide configuration.

Everything a Participant needs to agree on with every other Participant
is fixed here: the hash function, the virtual-agent factor, sketch
dimensions, and the replication threshold.  In the real system these are
compile-time CONFIG flags (Appendix); changing one requires the whole
cluster to share it, which is why they are configuration rather than
directory state.

A field exists only where some test, benchmark or example runs the
cluster at a second value.  Protocol timings with one value in use are
constants beside the code that reads them: retransmission backoff in
:mod:`repro.net.network`, the cumulative-ack window in
:mod:`repro.cluster.dataplane`, master re-query policy in
:mod:`repro.cluster.participant`, proxy cache capacity and retry hints in
:mod:`repro.cluster.client`, ring-weight clamps on
:class:`~repro.rebalance.RebalancePlanner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.costmodel import CostModel, DEFAULT_COSTS
from repro.hashing.hashes import HASH_FUNCTIONS
from repro.net.latency import TransportModel


@dataclass
class ClusterConfig:
    """Shared configuration for one ElGA cluster.

    Parameters mirror the paper's defaults scaled to this repo's graph
    sizes.  The paper replicates vertices above an estimated degree of
    10⁷ on graphs of 10⁹–10¹¹ edges; at our ~10⁻⁴ scale the equivalent
    default threshold is ~10³.

    Attributes
    ----------
    nodes:
        Number of physical machines (the paper's cluster has 64).
    agents_per_node:
        Agents per machine — one per core in the paper (32).
    hash_name:
        Key of :data:`repro.hashing.hashes.HASH_FUNCTIONS` (Figure 5;
        ``wang`` is the paper's choice).
    virtual_factor:
        Virtual agents per Agent (Figure 6; 100).
    sketch_width, sketch_depth:
        CountMinSketch dimensions (Figure 7; the paper uses width
        ~10^4.2 with a high threshold).
    replication_threshold:
        Estimated degree above which a vertex splits across Agents.
    n_directories:
        Directory servers; Participants spread across them.
    sketch_broadcast_interval:
        Minimum simulated seconds between directory broadcasts caused
        by sketch deltas alone (membership changes broadcast at once).
    sketch_flush_every:
        Applied streamed rows after which an Agent pushes its
        accumulated degree delta to its Directory (and checkpoints);
        runs flush whatever is pending before they start.
    seed:
        Experiment root seed (drives every entity's RNG stream).
    reliable_transport:
        Run the fabric in reliable mode (sequenced + acknowledged +
        retransmitted delivery).  Off by default: the perfect simulated
        fabric needs none of it, and classic benchmarks keep their
        exact traffic counts.  Chaos runs (an installed ``FaultPlan``)
        switch it on so dropped messages are recovered rather than
        deadlocking the barrier protocol.
    max_retries:
        Reliable-mode retransmissions per message before the fabric
        gives up.
    heartbeat_interval:
        Simulated seconds between an Agent's HEARTBEAT pushes to its
        Directory while a synchronous run is live.  ``0`` disables
        failure detection entirely (the default: classic benchmarks
        keep their exact traffic counts, and a perfect fabric can
        never lose an agent).
    lease_timeout:
        How long a Directory lets an agent's liveness lease go stale
        before suspecting it.  Must exceed ``heartbeat_interval`` when
        detection is enabled.
    checkpoint_every:
        Take a coordinated value checkpoint every N supersteps during a
        synchronous run.  ``0`` disables checkpointing; a crash then
        degrades to WAL-only recovery (the run restarts from persisted
        pre-run state instead of rolling back to a mid-run barrier).
    tracing:
        Attach a :class:`~repro.obs.trace.Tracer` to the fabric:
        every entity records spans (superstep compute, flush, barrier
        wait, checkpoint, recovery) and message-causality events on the
        simulated clock.  Off by default — the instrument sites then
        cost one attribute check each, keeping benchmark throughput.
    serving_coalesce_window:
        Simulated seconds a ClientProxy buffers queries before shipping
        the buffered fan-outs, so queries for the same (program, vertex)
        arriving within the window collapse into one fan-out with shared
        reply delivery.  ``0`` dispatches every fan-out immediately
        (queries still join an identical fan-out already in flight).
    serving_cache_ttl:
        Simulated seconds a proxy-side result-cache entry stays fresh.
        Entries are additionally fenced by the directory's placement
        epoch token and the per-program result version, so the TTL only
        bounds staleness the version plane cannot see (it never
        overrides an epoch/version invalidation).  ``0`` disables the
        result cache entirely.
    serving_max_inflight:
        Admission control: maximum queries a proxy will hold open
        (waiting on cache-hit delivery or fan-out replies) at once.
        Excess queries are shed with a retry-after hint instead of
        queueing unboundedly.
    serving_latency_window:
        Per-proxy bound on recorded latency samples (a ring of the most
        recent N); also bounds the shed/retry bookkeeping deques.
    dir_lease_interval:
        Simulated seconds between the lead Directory's DIR_LEASE pushes
        to its peer Directories (the control-plane liveness lease that
        backs lead failover).  ``0`` disables directory failover
        entirely — the default, so single-directory clusters and classic
        benchmarks keep their exact traffic counts.
    dir_lease_timeout:
        How stale a peer lets the lead's lease go before starting an
        election.  Must exceed ``dir_lease_interval`` when failover is
        enabled.  The lowest-index live Directory succeeds (a
        deterministic rule — no randomized votes — so the same seed
        always produces the same term sequence).
    rebalance_skew_threshold:
        Per-agent load skew (max/mean) below which the rebalance
        planner holds still.  1.0 would chase every wobble; the default
        tolerates 15% imbalance before moving anything.
    transport:
        The fabric's latency/bandwidth model
        (:class:`~repro.net.latency.TransportModel`; the ZeroMQ
        preset by default, MPI / raw TCP for the §3.5 comparisons).
    costs:
        Simulated seconds charged per operation
        (:class:`~repro.cluster.costmodel.CostModel`; the calibrated
        ``DEFAULT_COSTS`` unless an experiment rescales them).
    """

    nodes: int = 4
    agents_per_node: int = 4
    hash_name: str = "wang"
    virtual_factor: int = 100
    sketch_width: int = 4096
    sketch_depth: int = 8
    replication_threshold: int = 1000
    n_directories: int = 1
    sketch_broadcast_interval: float = 0.05
    sketch_flush_every: int = 512
    seed: int = 0
    reliable_transport: bool = False
    max_retries: int = 30
    heartbeat_interval: float = 0.0
    lease_timeout: float = 0.025
    checkpoint_every: int = 0
    tracing: bool = False
    serving_coalesce_window: float = 2e-5
    serving_cache_ttl: float = 5e-3
    serving_max_inflight: int = 1024
    serving_latency_window: int = 65536
    dir_lease_interval: float = 0.0
    dir_lease_timeout: float = 0.02
    rebalance_skew_threshold: float = 1.15
    transport: TransportModel = field(default_factory=TransportModel.zeromq)
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        if self.hash_name not in HASH_FUNCTIONS:
            raise ValueError(
                f"unknown hash {self.hash_name!r}; known: {sorted(HASH_FUNCTIONS)}"
            )
        if self.nodes < 1 or self.agents_per_node < 1:
            raise ValueError("need at least one node and one agent per node")
        if self.n_directories < 1:
            raise ValueError("need at least one directory")
        if self.replication_threshold < 1:
            raise ValueError("replication_threshold must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0")
        if self.heartbeat_interval > 0 and self.lease_timeout <= self.heartbeat_interval:
            raise ValueError("lease_timeout must exceed heartbeat_interval")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.serving_coalesce_window < 0 or self.serving_cache_ttl < 0:
            raise ValueError("serving windows must be >= 0")
        if self.serving_max_inflight < 1:
            raise ValueError("serving_max_inflight must be >= 1")
        if self.serving_latency_window < 1:
            raise ValueError("serving_latency_window must be >= 1")
        if self.dir_lease_interval < 0:
            raise ValueError("dir_lease_interval must be >= 0")
        if self.dir_lease_interval > 0 and self.dir_lease_timeout <= self.dir_lease_interval:
            raise ValueError("dir_lease_timeout must exceed dir_lease_interval")
        if self.rebalance_skew_threshold < 1.0:
            raise ValueError("rebalance_skew_threshold must be >= 1")

    @property
    def hash_fn(self) -> Callable:
        """The configured hash function."""
        return HASH_FUNCTIONS[self.hash_name]

    @property
    def total_agents(self) -> int:
        """Initial Agent count (nodes × agents per node)."""
        return self.nodes * self.agents_per_node
