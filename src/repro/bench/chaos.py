"""Chaos scenario harness: fault injection with cluster invariants.

The chaos fabric's correctness claim is strong: with a
:class:`~repro.net.faults.FaultPlan` misbehaving underneath a reliable
fabric, every algorithm run must produce results *bit-identical* to a
fault-free run of the same cluster shape — not merely close.  The
reliable layer provides exactly-once delivery and the agents fold
message aggregates in a canonical order, so floating-point sums are a
pure function of the message multiset and the comparison can be exact.

This module packages that claim as a reusable scenario runner:

* :func:`build_engine_pair` — a fault-free reference engine and a
  chaos engine (same seed, same shape; the chaos one runs the reliable
  fabric with the plan installed);
* :func:`run_chaos_scenario` — ingest the same graph into both, run
  the same programs (the plan's crash schedule becomes a mid-run scale
  plan on *both* engines so their step structure matches), check
  invariants after every settle, and return a :class:`ChaosReport`;
* :func:`check_cluster_invariants` — the per-settle assertions: no
  resident edge lost or double-counted, directory versions monotone,
  migration quiescent;
* :func:`fault_matrix` — the named fault plans the chaos test-suite
  sweeps.

``tests/chaos/harness.py`` wraps these in pytest assertions; the
functions themselves raise :class:`InvariantViolation` so benchmark
scripts can use them without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.faults import CrashEvent, FaultPlan
from repro.net.message import Message, PacketType


class InvariantViolation(AssertionError):
    """A cluster invariant did not hold after a settle."""


def _control_plane_defaults(plan: FaultPlan, config_overrides: dict) -> None:
    """Arm failover machinery when ``plan`` targets control entities.

    A plan that kills the lead Directory needs peer directories and the
    lease/election protocol; one that kills either control entity needs
    agent heartbeats (so participants homed on a dead directory re-home)
    and checkpoints.  Applied via ``setdefault`` so callers can still
    pin their own values — and applied to BOTH engines of the pair
    (``build_engine_pair`` shares the overrides), keeping the reference
    and chaos configurations identical.
    """
    targets = {crash.target for crash in plan.crashes if crash.abrupt}
    if "directory" in targets:
        config_overrides.setdefault("n_directories", 3)
        config_overrides.setdefault("dir_lease_interval", 2e-3)
        config_overrides.setdefault("dir_lease_timeout", 6e-3)
    if targets & {"directory", "master"}:
        config_overrides.setdefault("heartbeat_interval", 0.005)
        config_overrides.setdefault("lease_timeout", 0.025)
        config_overrides.setdefault("checkpoint_every", 2)


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario (one plan, one graph, N programs).

    ``bit_equal`` maps program name -> whether the chaos run's value
    dict compared equal (``==``, i.e. bitwise on floats) to the
    fault-free reference run's.  The traffic counters come from the
    chaos engine's fabric and quantify how much abuse the plan actually
    delivered — a scenario that injected nothing proves nothing, so
    tests should assert on these too.
    """

    plan_seed: int
    steps: Dict[str, int] = field(default_factory=dict)
    bit_equal: Dict[str, bool] = field(default_factory=dict)
    drops_chaos: int = 0
    drops_partition: int = 0
    messages_duplicated: int = 0
    messages_retried: int = 0
    duplicates_suppressed: int = 0
    scale_plan: Dict[int, int] = field(default_factory=dict)
    crash_plan: Dict[int, dict] = field(default_factory=dict)
    # Rebalance scenarios: the mid-run re-weight plan both engines ran,
    # the migration traffic it generated on the chaos engine, and the
    # post-run ring weights on each side (must match).
    rebalance_plan: Dict[int, Dict[int, float]] = field(default_factory=dict)
    migrate_messages: int = 0
    weights_reference: Dict[int, float] = field(default_factory=dict)
    weights_chaos: Dict[int, float] = field(default_factory=dict)
    recovery_log: List[dict] = field(default_factory=list)
    #: (publisher, term, version) of every DIRECTORY_UPDATE seen on the
    #: wire — versions alone are non-monotone across lead elections.
    directory_versions: List[Tuple[int, int, int]] = field(default_factory=list)
    lead_elections: int = 0
    stale_term_drops: int = 0
    # Populated when the scenario ran with ``tracing=True``: immutable
    # Trace snapshots keyed "reference" / "chaos", ready for
    # :func:`repro.obs.diff.diff_traces`.
    traces: Dict[str, object] = field(default_factory=dict)

    @property
    def recoveries(self) -> int:
        """How many crash-recovery cycles the chaos engine completed."""
        return sum(1 for e in self.recovery_log if e.get("event") == "recover")

    @property
    def elections(self) -> int:
        """How many lead-directory elections the chaos engine logged."""
        return sum(1 for e in self.recovery_log if e.get("event") == "lead_elected")

    @property
    def ok(self) -> bool:
        """All programs matched the fault-free reference bit-for-bit."""
        return bool(self.bit_equal) and all(self.bit_equal.values())

    @property
    def faults_injected(self) -> int:
        """Total abuse delivered (drops + duplicate copies)."""
        return self.drops_chaos + self.drops_partition + self.messages_duplicated


def build_engine_pair(
    plan: FaultPlan,
    nodes: int = 2,
    agents_per_node: int = 2,
    seed: int = 9,
    **config_overrides,
):
    """A (reference, chaos) engine pair of identical shape and seed.

    The reference runs the classic perfect fabric; the chaos engine
    runs the reliable fabric with ``plan`` installed underneath it.
    Everything else — seed, hash, sketch dimensions — is shared, so any
    divergence between the two is the fault plan's doing.
    """
    from repro.core.engine import ElGA

    reference = ElGA(
        nodes=nodes, agents_per_node=agents_per_node, seed=seed, **config_overrides
    )
    chaos = ElGA(
        nodes=nodes,
        agents_per_node=agents_per_node,
        seed=seed,
        reliable_transport=True,
        **config_overrides,
    )
    chaos.cluster.network.install_faults(plan)
    return reference, chaos


def check_cluster_invariants(engine, versions_seen: Optional[List[int]] = None) -> None:
    """Assert the always-true cluster properties; raise on violation.

    Run after every settle point (post-ingest, post-run):

    * every reference edge resident exactly once as an out-copy and
      once as an in-copy (no loss, no double-count);
    * resident copy total == 2 x reference edge count;
    * directory (term, version) fences observed on the wire are
      monotone — raw versions are non-monotone across lead elections
      (a successor rebuilds state from its mirror), but the
      lexicographic fence must never go backwards — and the lead's
      current fence is their maximum;
    * no migration traffic outstanding and every agent on the latest
      directory state;
    * the reliable fabric holds no forgotten in-flight sends.
    """
    cluster = engine.cluster
    if not engine.validate_against_reference():
        raise InvariantViolation(
            "edge residency diverged from the reference graph "
            "(an edge was lost, duplicated, or misplaced)"
        )
    resident = cluster.total_resident_edges()
    expected = 2 * engine.reference.num_edges
    if resident != expected:
        raise InvariantViolation(
            f"resident edge copies {resident} != 2 x {engine.reference.num_edges} "
            "reference edges"
        )
    if versions_seen is not None:
        # Monotone per *publisher*: with peer directories re-publishing
        # adopted states, independent link latencies can interleave two
        # publishers' streams on the wire, but no single publisher may
        # ever send a fence lower than one it already sent.
        last_fence: Dict[int, Tuple[int, int]] = {}
        for src, term, version in versions_seen:
            fence = (term, version)
            previous = last_fence.get(src)
            if previous is not None and fence < previous:
                raise InvariantViolation(
                    f"directory fence went backwards on the wire: publisher "
                    f"{src} sent {fence} after {previous}"
                )
            last_fence[src] = fence
        if versions_seen and cluster.lead.state.fence < max(last_fence.values()):
            raise InvariantViolation(
                "lead directory fence is behind a broadcast fence"
            )
    if not cluster.consistent():
        raise InvariantViolation(
            "cluster settled while inconsistent (stale directory state "
            "or outstanding migration acks)"
        )
    if cluster.network.pending_reliable:
        raise InvariantViolation(
            f"{cluster.network.pending_reliable} reliable sends still pending "
            "after settle"
        )


def _watch_directory_versions(network) -> List[Tuple[int, int, int]]:
    """Tap the fabric and record every broadcast directory fence.

    Entries are ``(publisher address, term, version)``; the invariant
    check asserts per-publisher (term, version) monotonicity.
    """
    versions: List[Tuple[int, int, int]] = []

    def tap(message: Message) -> None:
        if message.ptype == PacketType.DIRECTORY_UPDATE:
            version = getattr(message.payload, "version", None)
            if version is not None:
                term = int(getattr(message.payload, "term", 0) or 0)
                versions.append((int(message.src), term, int(version)))

    network.add_tap(tap)
    return versions


def run_chaos_scenario(
    us,
    vs,
    plan: FaultPlan,
    programs: Optional[Sequence] = None,
    nodes: int = 2,
    agents_per_node: int = 2,
    seed: int = 9,
    rebalance_plan: Optional[Dict[int, Dict[int, float]]] = None,
    **config_overrides,
) -> ChaosReport:
    """Run the full invariant scenario for one fault plan.

    Both engines ingest ``(us, vs)``; each program in ``programs``
    (default: PageRank then WCC) runs on both with the plan's crash
    schedule applied as a mid-run scale plan, so the reference
    experiences the same membership changes — minus the faults.
    Invariants are checked on the chaos engine after ingest and after
    every run; results are compared bit-for-bit.

    ``rebalance_plan`` adds migration atomicity under fire: both
    engines run the first program with the SAME mid-run re-weight (a
    legitimate control action both sides share, exactly like the
    graceful-crash scale mirroring), while the chaos engine's plan
    drops and duplicates EDGE_MIGRATE/EDGE_MIGRATE_ACK too and may
    kill someone around the migration window.  The claim: the chaos
    run converges bit-identical to the fault-free run and *both* rings
    end up carrying the adopted weights.

    Use partition-independent programs (WCC's min-fold) when such a
    plan crashes someone: an abrupt crash after a mid-run reshape forces
    restart-mode recovery, which recomputes every superstep under the
    new partition, while the reference computed its early steps under
    the old one — bit-identical for order-insensitive folds, ULP-level
    different for float sums (the data plane's documented grouping
    sensitivity).  Crash-free plans can run PageRank: both engines then
    share the same partition timeline.
    """
    from repro.core import PageRank
    from repro.core.algorithms import WCC

    if programs is None:
        programs = [PageRank(max_iters=15), WCC()]
    _control_plane_defaults(plan, config_overrides)
    reference, chaos = build_engine_pair(
        plan, nodes=nodes, agents_per_node=agents_per_node, seed=seed, **config_overrides
    )
    versions = _watch_directory_versions(chaos.cluster.network)
    before = chaos.cluster.network.stats.snapshot()
    counted_before = chaos.cluster.totals()
    reference.ingest_edges(us, vs)
    chaos.ingest_edges(us, vs)
    check_cluster_invariants(chaos, versions)

    report = ChaosReport(plan_seed=plan.seed)
    report.rebalance_plan = {k: dict(w) for k, w in (rebalance_plan or {}).items()}
    for i, program in enumerate(programs):
        # Crashes and the re-weight are one-time events: they reshape
        # the first run; later programs run on the reshaped cluster.
        # Graceful crashes mirror onto the reference as scale plans (a
        # drain is a legitimate membership change both sides share);
        # abrupt crashes hit ONLY the chaos engine — recovery's whole
        # claim is converging bit-identical to the fault-free run.
        scale = plan.scale_plan(len(chaos.cluster.agents)) if i == 0 else {}
        crashes = plan.crash_plan() if i == 0 else {}
        reweight = rebalance_plan if i == 0 else None
        report.scale_plan.update(scale)
        report.crash_plan.update(crashes)
        ref_result = reference.run(program, scale_plan=dict(scale), rebalance_plan=reweight)
        chaos_result = chaos.run(
            program,
            scale_plan=dict(scale),
            rebalance_plan=reweight,
            crash_plan=dict(crashes) or None,
        )
        check_cluster_invariants(chaos, versions)
        report.steps[program.name] = chaos_result.steps
        report.bit_equal[program.name] = ref_result.values == chaos_result.values
    after = chaos.cluster.network.stats
    report.migrate_messages = (
        after.by_type_count[PacketType.EDGE_MIGRATE]
        - before.by_type_count[PacketType.EDGE_MIGRATE]
    )
    report.weights_reference = reference.cluster.current_weights()
    report.weights_chaos = chaos.cluster.current_weights()
    report.drops_chaos = after.drops_chaos - before.drops_chaos
    report.drops_partition = after.drops_partition - before.drops_partition
    report.messages_duplicated = after.messages_duplicated - before.messages_duplicated
    report.messages_retried = after.messages_retried - before.messages_retried
    report.duplicates_suppressed = (
        after.duplicates_suppressed - before.duplicates_suppressed
    )
    counted = chaos.cluster.totals()
    report.lead_elections = counted["lead_elections"] - counted_before["lead_elections"]
    report.stale_term_drops = counted["stale_term_drops"] - counted_before["stale_term_drops"]
    report.directory_versions = list(versions)
    report.recovery_log = list(chaos.cluster.recovery_log)
    # With tracing=True in config_overrides both engines carry a Tracer;
    # snapshot them so callers can diff faulted vs. fault-free.
    if reference.tracer is not None:
        report.traces["reference"] = reference.tracer.trace()
    if chaos.tracer is not None:
        report.traces["chaos"] = chaos.tracer.trace()
    return report


@dataclass
class ServingChaosReport:
    """Outcome of one serving-under-chaos scenario.

    A Zipf query stream runs through client proxies *while* the engine
    executes PageRank under a faulty data plane with one abrupt
    mid-run crash.  The claims bundled here:

    * **no query lost** — every accepted query was answered
      (``outstanding == 0``) and no shed query ran out of resubmits
      (``dropped == 0``);
    * **every reply snapshot-consistent** — torn fan-outs were retried,
      never delivered (``snapshot_retries`` counts the catches);
    * **zero stale reads after the run** — re-querying every vertex
      post-run matches the converged fixpoint exactly
      (``post_run_mismatches == 0``);
    * **the run itself still converges bit-identical** to a fault-free
      reference (``bit_equal``).
    """

    plan_seed: int
    bit_equal: bool = False
    steps: Optional[int] = None
    submitted: int = 0
    delivered: int = 0
    shed: int = 0
    resubmitted: int = 0
    dropped: int = 0
    outstanding: int = 0
    snapshot_retries: int = 0
    snapshot_value_merges: int = 0
    queries_retried: int = 0
    post_run_mismatches: int = 0
    serving_metrics: Dict[str, float] = field(default_factory=dict)
    drops_chaos: int = 0
    messages_duplicated: int = 0
    lead_elections: int = 0
    stale_term_drops: int = 0
    recovery_log: List[dict] = field(default_factory=list)

    @property
    def recoveries(self) -> int:
        return sum(1 for e in self.recovery_log if e.get("event") == "recover")

    @property
    def ok(self) -> bool:
        return (
            self.bit_equal
            and self.outstanding == 0
            and self.dropped == 0
            and self.post_run_mismatches == 0
        )


def serving_chaos_plan(
    seed: int = 0,
    after_step: int = 3,
    drop_p: float = 0.05,
    dup_p: float = 0.05,
    target: str = "agent",
) -> FaultPlan:
    """Data-plane chaos that also abuses the serving plane's packets.

    ``DATA_PTYPES`` deliberately excludes client traffic (queries must
    not perturb algorithm-content digests), so the serving scenario
    opts the query/reply/notice types in explicitly.  ``target``
    selects the mid-run victim — ``"directory"`` makes this the
    zero-stale-reads-across-lead-failover scenario.
    """
    from repro.net.faults import DATA_PTYPES

    return FaultPlan.data_plane_chaos(
        seed=seed,
        drop_p=drop_p,
        dup_p=dup_p,
        crashes=[CrashEvent(after_step=after_step, abrupt=True, target=target)],
        ptypes=DATA_PTYPES
        | {PacketType.CLIENT_QUERY, PacketType.CLIENT_REPLY, PacketType.RESULT_NOTICE},
    )


def run_serving_chaos_scenario(
    us,
    vs,
    plan: FaultPlan,
    program=None,
    nodes: int = 2,
    agents_per_node: int = 2,
    seed: int = 9,
    n_proxies: int = 2,
    rate: float = 2000.0,
    duration: float = 0.5,
    n_clients: int = 10_000,
    zipf_s: float = 1.0,
    workload_seed: int = 1,
    **config_overrides,
) -> ServingChaosReport:
    """Serve a Zipf query stream while the engine crashes and recovers.

    The workload starts immediately before the chaos run, so arrivals
    interleave with supersteps, the crash window, eviction, and the
    rollback — exactly when torn reads and lost replies would happen if
    the serving plane allowed them.  The fault-free reference engine
    runs the same program with no queries; recovery must still converge
    bit-identical (queries are read-only — they must not perturb the
    run).
    """
    from repro.core import PageRank
    from repro.serving import OpenLoopWorkload

    if program is None:
        program = PageRank(max_iters=12)
    _control_plane_defaults(plan, config_overrides)
    config_overrides.setdefault("heartbeat_interval", 0.005)
    config_overrides.setdefault("lease_timeout", 0.025)
    config_overrides.setdefault("checkpoint_every", 2)
    reference, chaos = build_engine_pair(
        plan, nodes=nodes, agents_per_node=agents_per_node, seed=seed, **config_overrides
    )
    before = chaos.cluster.network.stats.snapshot()
    counted_before = chaos.cluster.totals()
    reference.ingest_edges(us, vs)
    chaos.ingest_edges(us, vs)
    check_cluster_invariants(chaos)

    proxies = [chaos.cluster.new_client(node=i % nodes) for i in range(n_proxies)]
    import numpy as np

    vertices = np.unique(np.concatenate([np.asarray(us), np.asarray(vs)]))
    workload = OpenLoopWorkload(
        proxies,
        vertices,
        program.name,
        rate=rate,
        duration=duration,
        n_clients=n_clients,
        zipf_s=zipf_s,
        seed=workload_seed,
    )

    report = ServingChaosReport(plan_seed=plan.seed)
    ref_result = reference.run(program)
    workload.start()
    chaos_result = chaos.run(program, crash_plan=plan.crash_plan() or None)
    chaos.cluster.settle()  # drain late arrivals, resubmits, retries
    check_cluster_invariants(chaos)

    report.bit_equal = ref_result.values == chaos_result.values
    report.steps = chaos_result.steps
    report.submitted = workload.submitted
    report.delivered = workload.delivered
    report.shed = workload.shed
    report.resubmitted = workload.resubmitted
    report.dropped = workload.dropped
    report.outstanding = workload.outstanding
    report.serving_metrics = chaos.cluster.collect_client_metrics()
    report.snapshot_retries = int(report.serving_metrics.get("client_snapshot_retries", 0))
    report.snapshot_value_merges = int(
        report.serving_metrics.get("client_snapshot_value_merges", 0)
    )
    report.queries_retried = int(report.serving_metrics.get("client_queries_retried", 0))

    # Zero-stale acceptance: after the run, every vertex read through
    # the serving plane must equal the converged fixpoint.
    for i, vertex in enumerate(map(int, vertices)):
        proxy = proxies[i % len(proxies)]
        out: List[Optional[float]] = []
        proxy.query(vertex, program.name, out.append)
        chaos.cluster.settle()
        if not out or out[0] != chaos_result.values.get(vertex):
            report.post_run_mismatches += 1

    after = chaos.cluster.network.stats
    report.drops_chaos = after.drops_chaos - before.drops_chaos
    report.messages_duplicated = after.messages_duplicated - before.messages_duplicated
    counted = chaos.cluster.totals()
    report.lead_elections = counted["lead_elections"] - counted_before["lead_elections"]
    report.stale_term_drops = counted["stale_term_drops"] - counted_before["stale_term_drops"]
    report.recovery_log = list(chaos.cluster.recovery_log)
    return report


def fault_matrix(seed: int = 0) -> Dict[str, FaultPlan]:
    """The named fault plans the chaos suite sweeps.

    Keyed by scenario name; all derive their randomness from ``seed``
    so the whole matrix is reproducible from one number.
    """
    return {
        "data-loss": FaultPlan.data_plane_chaos(seed=seed, drop_p=0.08, dup_p=0.0),
        "data-dup-reorder": FaultPlan.data_plane_chaos(
            seed=seed + 1, drop_p=0.0, dup_p=0.10, reorder_p=0.25
        ),
        "data-chaos-crash": FaultPlan.data_plane_chaos(
            seed=seed + 2, crashes=[CrashEvent(after_step=3)]
        ),
        "control-chaos": FaultPlan.control_plane_chaos(seed=seed + 3),
        "full-chaos": FaultPlan.full_chaos(
            seed=seed + 4, crashes=[CrashEvent(after_step=4)]
        ),
        "lead-crash": FaultPlan.data_plane_chaos(
            seed=seed + 5,
            crashes=[CrashEvent(after_step=3, abrupt=True, target="directory")],
        ),
        "master-crash": FaultPlan.data_plane_chaos(
            seed=seed + 6,
            crashes=[CrashEvent(after_step=3, abrupt=True, target="master")],
        ),
    }
