"""The ElGA facade — the library's main entry point.

Wraps a simulated cluster behind the operations a user of the real
system performs: ingest a stream of edge changes, run algorithms
(static, incremental, sync or async), query results with ClientProxies,
and scale the cluster up or down — including during a computation
(Figure 17).

Example
-------
>>> import numpy as np
>>> from repro.core import ElGA, PageRank
>>> elga = ElGA(nodes=2, agents_per_node=2, seed=7)
>>> us = np.array([0, 1, 2, 3]); vs = np.array([1, 2, 3, 0])
>>> _ = elga.ingest_edges(us, vs)
>>> result = elga.run(PageRank(max_iters=5))
>>> abs(sum(result.values.values()) - 1.0) < 1e-6
True
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Dict, Iterable, List, Optional, Set

import numpy as np

from repro.cluster.cluster import ElGACluster, sorted_agents
from repro.cluster.config import ClusterConfig
from repro.core.program import RunSpec, VertexProgram
from repro.core.superstep import RunResult, SyncRunController
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import EdgeBatch, REMOVE

#: Simulated seconds after an injected master crash before the master is
#: restarted (the operator's MTTR in the simulation).
MASTER_RESTART_DELAY = 5e-3


class ElGA:
    """An elastic, dynamic graph-analysis deployment.

    Parameters
    ----------
    nodes, agents_per_node:
        Cluster shape (defaults are laptop-sized; the paper runs 64
        nodes × 32 agents).
    seed:
        Experiment root seed; drives every entity's randomness.
    config:
        A full :class:`~repro.cluster.config.ClusterConfig`, overriding
        the shape arguments.
    keep_reference:
        Maintain a single-process mirror of the graph.  It is never
        used for computation — only for ``global_n`` (which the real
        system tracks through directory statistics) and for test
        validation against ground truth.
    config_overrides:
        Extra :class:`ClusterConfig` fields (hash_name, sketch_width,
        replication_threshold, ...).
    """

    def __init__(
        self,
        nodes: int = 2,
        agents_per_node: int = 2,
        seed: int = 0,
        config: Optional[ClusterConfig] = None,
        keep_reference: bool = True,
        **config_overrides,
    ):
        if config is None:
            config = ClusterConfig(
                nodes=nodes, agents_per_node=agents_per_node, seed=seed, **config_overrides
            )
        self.config = config
        self.cluster = ElGACluster(config)
        self.reference: Optional[DynamicGraph] = DynamicGraph() if keep_reference else None
        self._run_counter = 0
        # Per-program incremental bookkeeping.  ``_batch_log`` records
        # each applied mutation batch (touched vertices, whether it
        # deleted anything); ``_program_meta`` records, per program,
        # how much of the log its last completed run consumed plus the
        # conditions its fixpoint was computed under (|V|, membership).
        # The log prefix every known program has consumed is trimmed.
        self._batch_log: List[dict] = []
        self._batch_base = 0
        # ((store id, version) per store, the stores, |V|) behind
        # ``global_n`` when there is no reference mirror: recounted only
        # after a store changed.
        self._global_n_cache: Optional[tuple] = None
        self._program_meta: Dict[str, dict] = {}
        self.ingest_reports: List[dict] = []
        self._active_controller: Optional[SyncRunController] = None
        # Recovery-mode bookkeeping for the current sync run: who was a
        # member when it started, and whether a mid-run elastic scale
        # already reshaped membership (which invalidates rollback).
        self._run_members: Set[int] = set()
        self._scaled_mid_run = False
        # High-water mark (spans, events) into the trace consumed by
        # maybe_rebalance.  Round ids reset per run, so TraceSummary
        # rows from successive runs merge; planning from the cumulative
        # trace would mix pre- and post-migration load.  Each planning
        # pass therefore only reads the window recorded since the last.
        self._rebalance_trace_mark = (0, 0)

    # ------------------------------------------------------------------
    # graph mutation
    # ------------------------------------------------------------------

    def ingest_edges(self, us, vs, n_streamers: int = 1, flush: bool = True) -> dict:
        """Insert an edge list (convenience over :meth:`apply_batch`)."""
        return self.apply_batch(EdgeBatch.insertions(us, vs), n_streamers, flush)

    def quiesce(self) -> None:
        """Advance simulated time until every agent is idle.

        After an update batch, agents still owe charged background work
        (sketch maintenance, the post-broadcast migration check over
        resident edges).  That backlog otherwise drains inside the next
        run's measured window, which blurs ingest-side maintenance into
        analysis time; benchmarks that want to time *analysis* call
        this between the batch and the run.
        """
        self.cluster.settle()
        kernel = self.cluster.kernel
        horizon = max(
            (agent.available_at() for agent in sorted_agents(self.cluster.agents)),
            default=kernel.now,
        )
        if horizon > kernel.now:
            kernel.run(until=horizon)
            self.cluster.settle()

    def apply_batch(self, batch: EdgeBatch, n_streamers: int = 1, flush: bool = True) -> dict:
        """Stream one change batch in and wait for acknowledgement.

        With ``flush`` (default), degree deltas are pushed into the
        global sketch and broadcast afterwards, so the next run's
        placement sees current degrees.
        """
        if self.reference is not None:
            self.reference.apply_batch(batch)
        report = self.cluster.ingest(batch, n_streamers=n_streamers)
        # The directory's batch clock is the monotonically increasing
        # consistency marker of §3.3; every applied batch bumps it.
        report["batch_id"] = self.cluster.lead.advance_batch_clock()
        if flush:
            self.cluster.flush_sketches()
        else:
            self.cluster.settle()
        self._batch_log.append(
            {
                "touched": batch.touched_vertices,
                "deletions": bool((batch.actions == REMOVE).any()),
            }
        )
        self.ingest_reports.append(report)
        return report

    @property
    def global_n(self) -> int:
        """Number of vertices currently in the graph."""
        if self.reference is not None:
            return self.reference.num_vertices
        stores = [
            store
            for agent in sorted_agents(self.cluster.agents)
            for store in (agent.shard.out_store, agent.shard.in_store)
        ]
        # The cache keeps the stores alive, so their ids stay theirs.
        key = [(id(store), store.version) for store in stores]
        cached = self._global_n_cache
        if cached is None or cached[0] != key:
            keyed = [store.unique_keys for store in stores]
            n = len(np.unique(np.concatenate(keyed))) if keyed else 0
            cached = self._global_n_cache = (key, stores, n)
        return cached[2]

    @property
    def global_m(self) -> int:
        """Number of edges currently in the graph."""
        if self.reference is not None:
            return self.reference.num_edges
        # Each edge is resident twice (out-copy + in-copy).
        return self.cluster.total_resident_edges() // 2

    # ------------------------------------------------------------------
    # incremental strategy resolution
    # ------------------------------------------------------------------

    def _pending_batches(self, name: str) -> List[dict]:
        """Batches applied since ``name``'s last completed run."""
        mark = self._program_meta.get(name, {}).get("watermark", self._batch_base)
        return self._batch_log[max(0, mark - self._batch_base):]

    def _pending_touched(self, name: str) -> np.ndarray:
        """Sorted distinct vertices touched since ``name``'s last run."""
        touched = [entry["touched"] for entry in self._pending_batches(name)]
        if not touched:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(touched))

    def _resolve_strategy(self, program: VertexProgram, activate) -> str:
        """Pick how an ``incremental=True`` run actually executes.

        * ``"scratch"`` — full recompute: no prior fixpoint exists, or
          pending deletions invalidate the program's monotone reuse
          (and the caller didn't pin an explicit frontier).
        * ``"dense"`` — warm start from the previous fixpoint with a
          conservative activation: the program can reuse values but the
          conditions for exact delta propagation don't hold (membership
          changed, |V| changed under a stable-n program, the frontier
          touches a split vertex, or the program has no delta protocol).
        * ``"delta"`` — converge from the previous fixpoint: agents seed
          the frontier from their dirty mutation rows and propagate only
          residuals (delta-message programs) or repaired labels.
        """
        meta = self._program_meta.get(program.name)
        if meta is None:
            return "scratch"
        pending = self._pending_batches(program.name)
        if (
            activate is None
            and program.deletions_invalidate
            and any(entry["deletions"] for entry in pending)
        ):
            return "scratch"
        if not program.supports_delta:
            return "dense"
        if program.requires_stable_n and self.global_n != meta["n"]:
            return "dense"
        if meta["members"] != frozenset(self.cluster.agents):
            # Reshaped (or crash-replaced by a *different* id set)
            # since the fixpoint: per-agent dirty logs and baselines
            # may have moved under the program; play it safe.
            return "dense"
        split = self.cluster.lead.state.split_vertices
        if split and np.isin(
            self._pending_touched(program.name),
            np.fromiter(split, dtype=np.int64, count=len(split)),
        ).any():
            # Split vertices scatter via replica choreography whose
            # local degrees delta seeding cannot reconstruct.
            return "dense"
        return "delta"

    def _record_program_meta(self, name: str) -> None:
        """A run of ``name`` just completed and persisted its fixpoint:
        it consumed every batch applied so far, under the current
        vertex count and membership."""
        self._program_meta[name] = {
            "watermark": self._batch_base + len(self._batch_log),
            "n": self.global_n,
            "members": frozenset(self.cluster.agents),
        }
        cut = min(m["watermark"] for m in self._program_meta.values()) - self._batch_base
        if cut > 0:
            del self._batch_log[:cut]
            self._batch_base += cut

    # ------------------------------------------------------------------
    # running algorithms
    # ------------------------------------------------------------------

    def run(
        self,
        program: VertexProgram,
        mode: str = "sync",
        incremental: bool = False,
        activate: Optional[np.ndarray] = None,
        scale_plan: Optional[Dict[int, int]] = None,
        crash_plan: Optional[Dict[int, dict]] = None,
        rebalance_plan: Optional[Dict[int, Dict[int, float]]] = None,
    ) -> RunResult:
        """Execute a vertex program to convergence.

        Parameters
        ----------
        mode:
            ``"sync"`` (BSP, Figure 2 barriers) or ``"async"``
            (monotone programs relaxed on message arrival).
        incremental:
            Continue from the previous run of the same program,
            activating only ``activate`` (defaults to the vertices
            touched by batches applied since the last run) — the
            dynamic algorithm of Definition 2.5.
        scale_plan:
            Mid-run manual scaling: ``{superstep: agent_count}``
            reshapes the cluster after that superstep completes
            (Figure 17's operator action).  Sync mode only.
        crash_plan:
            Injected abrupt failures: ``{superstep: {"agents": n,
            "lead": bool, "master": bool}}`` (absent keys mean 0 /
            False) fires shortly after the barrier for that superstep
            completes, crashing ``n`` agents (no drain), the lead
            Directory and/or the DirectoryMaster (the master is
            restarted after ``MASTER_RESTART_DELAY``).  Agent
            detection and recovery run through the normal
            heartbeat/checkpoint machinery (requires
            ``heartbeat_interval > 0``); a lead crash requires directory
            failover (``dir_lease_interval > 0`` and at least two
            directories).  Sync mode only.
        rebalance_plan:
            Mid-run ring re-weighting: ``{superstep: {agent_id:
            weight}}`` adopts the weight map after that superstep
            completes, through the same apply-only/suspend/resume
            choreography as ``scale_plan`` (and composable with it at
            the same step).  The directory adoption is term-fenced and
            epoch-bumping; misplaced edges re-home over EDGE_MIGRATE
            before the run resumes.  Sync mode only.

        Notes
        -----
        How an incremental run executes is resolved per program (see
        :meth:`_resolve_strategy`): exact delta propagation from the
        previous fixpoint where the program supports it and conditions
        allow, a dense warm start otherwise, and a from-scratch run
        when reuse is invalid — e.g. incremental WCC with deletions is
        undoable territory [31]; as in the paper's experiments, a batch
        containing deletions forces a full recompute.
        """
        strategy = "scratch"
        if incremental:
            strategy = self._resolve_strategy(program, activate)
            if strategy == "scratch":
                incremental = False
                activate = None
            elif strategy == "dense" and activate is None and not program.supports_delta:
                # Warm start for programs without a delta protocol:
                # activate the touched frontier.
                activate = self._pending_touched(program.name)
        self._run_counter += 1
        spec = RunSpec(
            run_id=self._run_counter,
            program=program,
            incremental=incremental,
            global_n=self.global_n,
            mode=mode,
            activate=activate,
            strategy=strategy,
        )
        if self.cluster.rehome_orphans():
            # Agents whose home directory died since the last run could
            # not hear RUN_START; the barrier would wait on them forever.
            self.cluster.settle()
        if mode == "async":
            if crash_plan:
                raise ValueError("crash_plan requires synchronous mode")
            if rebalance_plan:
                raise ValueError("rebalance_plan requires synchronous mode")
            result = self._run_async(spec)
        elif mode != "sync":
            raise ValueError(f"unknown mode {mode!r}")
        else:
            result = self._run_sync(spec, scale_plan, crash_plan, rebalance_plan)
        self._record_program_meta(program.name)
        return result

    def _run_sync(
        self,
        spec: RunSpec,
        scale_plan: Optional[Dict[int, int]],
        crash_plan: Optional[Dict[int, dict]] = None,
        rebalance_plan: Optional[Dict[int, Dict[int, float]]] = None,
    ) -> RunResult:
        if crash_plan:
            if not all(isinstance(e, dict) for e in crash_plan.values()):
                raise TypeError(
                    'crash_plan entries must be {"agents": n, "lead": bool, '
                    '"master": bool} dicts'
                )
            if any(e.get("agents", 0) > 0 for e in crash_plan.values()) and (
                self.config.heartbeat_interval <= 0
            ):
                raise ValueError(
                    "crash_plan needs failure detection: set heartbeat_interval > 0"
                )
            if any(e.get("lead") for e in crash_plan.values()) and (
                self.config.dir_lease_interval <= 0 or self.config.n_directories < 2
            ):
                raise ValueError(
                    "a lead-directory crash needs failover: set "
                    "dir_lease_interval > 0 and n_directories >= 2"
                )
        kernel = self.cluster.kernel
        controller = SyncRunController(
            spec,
            kernel,
            scale_plan=scale_plan,
            on_suspended=self._on_run_suspended,
            crash_plan=crash_plan,
            on_crash=self._on_crash_due,
            tracer=self.tracer,
            rebalance_plan=rebalance_plan,
        )
        self._active_controller = controller
        self._run_members = set(self.cluster.agents)
        self._scaled_mid_run = False
        # Installed through the cluster, not pinned on one Directory
        # object: a lead election mid-run re-homes the controller onto
        # the successor.  ``cluster.lead`` is likewise re-read at every
        # use below — never captured in a local.
        self.cluster.install_run_controller(controller, self._on_agent_evicted)
        start = kernel.now
        self.cluster.lead.send_run_start(spec)
        self.cluster.settle()
        self.cluster.uninstall_run_controller()
        self._active_controller = None
        # Restart-mode recovery may have reissued the run under a fresh
        # run_id; prune whatever id actually completed.
        self.cluster.recovery.prune_run(controller.spec.run_id)
        if not controller.done:
            raise RuntimeError(
                "run ended without halting — barrier deadlock or lost messages"
            )
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                "engine",
                f"run:{spec.program.name}",
                "run",
                start,
                kernel.now,
                {
                    "run_id": controller.spec.run_id,
                    "mode": "sync",
                    "steps": controller.final_step,
                },
            )
        return RunResult(
            program_name=spec.program.name,
            run_id=controller.spec.run_id,
            mode="sync",
            values=self._collect(spec.program.name),
            steps=controller.final_step,
            sim_seconds=kernel.now - start,
            round_durations=controller.round_durations,
            stats_history=controller.stats_history,
            strategy=spec.strategy,
        )

    def _on_run_suspended(
        self,
        round_id: int,
        step: int,
        target_agents: Optional[int],
        weights: Optional[Dict[int, float]] = None,
    ) -> None:
        """Mid-run elastic scaling and/or re-weighting: reshape, wait
        for quiescence, resume.

        Runs inside the simulator (scheduled from the barrier callback),
        so the whole sequence happens in simulated time, like the
        paper's operator issuing pdsh/SIGINT commands mid-computation.
        Either plan invalidates rollback recovery: checkpoints were
        taken under the pre-reshape partition, and rolling values back
        under the new one would resurrect a residency the migration
        already moved.
        """
        controller = self._active_controller
        self._scaled_mid_run = True
        if weights:
            self.cluster.rebalance(weights, settle=False)
        if target_agents is not None:
            self.cluster.scale_to(target_agents, settle=False)
        self._run_members = set(self.cluster.agents)

        def superseded() -> bool:
            # Recovery restarted (or halt ended) the run while the
            # suspension was draining — e.g. an agent died with
            # migrations in flight and eviction forced a restart.  The
            # restarted run owns the barrier now; a late resume from the
            # pre-crash suspension would replay a stale round into it.
            return controller.done or controller.phase != "apply_only"

        def resume() -> None:
            if not superseded():
                self.cluster.lead.send_advance(
                    controller.resume_payload(round_id + 1, step)
                )

        self._when(lambda: superseded() or self._reshaped(), resume)

    def _when(self, ready: Callable[[], bool], then: Callable[[], None]) -> None:
        """Run ``then`` at the first simulated millisecond tick, counted
        from now, at which ``ready()`` holds."""
        kernel = self.cluster.kernel

        def poll() -> None:
            if ready():
                then()
            else:
                kernel.schedule(1e-3, poll)

        kernel.schedule(1e-3, poll)

    def _reshaped(self) -> bool:
        """Whether a mid-run reshape has landed everywhere: every agent
        adopted the lead's state and no migration is outstanding.  A
        suspended agent has no heartbeat tick to notice a dead home
        directory from, so orphans are sent to re-home first."""
        self.cluster.rehome_orphans()
        return self.cluster.consistent()

    def _on_crash_due(self, entry: dict) -> None:
        """Controller-scheduled fault injection: fire ``entry`` a beat
        after the superstep's ADVANCE goes out, so the failure lands
        mid-superstep with messages in flight.

        A crashed master is restarted after ``MASTER_RESTART_DELAY``; a
        crashed lead Directory is *not* — the peers' election replaces
        it."""

        def crash() -> None:
            if entry.get("lead"):
                self.cluster.crash_directory()
            if entry.get("master"):
                self.cluster.crash_master()
                self.cluster.kernel.schedule(
                    MASTER_RESTART_DELAY, self.cluster.restart_master
                )
            for _ in range(entry.get("agents", 0)):
                if len(self.cluster.agents) > 1:
                    self.cluster.crash_agent()

        self.cluster.kernel.schedule(5e-4, crash)

    def _on_agent_evicted(self, agent_id: int) -> None:
        """Directory-driven recovery, end to end (runs in simulated time).

        Called by the lead the moment it evicts a crashed agent.  The
        sequence:

        1. Decide the recovery mode from the *durable* store: roll the
           whole cluster back to the newest checkpoint step every
           member (including the victim) holds, or — when there is no
           such step, checkpointing is off, or membership already
           changed mid-run — restart the run (WAL-only degradation).
        2. Broadcast RECOVER; every surviving agent rolls back (or
           drops the run) and bumps its data-incarnation fence.
        3. Once all survivors acknowledge (observed via their recovery
           epoch), bring up the replacement: it restores the victim's
           checkpoint, replays the WAL suffix, and joins — the
           membership broadcast then migrates every edge to where the
           new ring says it lives.
        4. When migration quiesces, re-open the barrier: resume at the
           checkpoint step, or re-issue RUN_START.
        """
        controller = self._active_controller
        cluster = self.cluster
        if controller is None or controller.done:
            return
        run_id = controller.spec.run_id
        step = 0
        if (
            self.config.checkpoint_every > 0
            and not self._scaled_mid_run
            and self._run_members - {agent_id} == set(cluster.agents)
        ):
            common: List[int] = []
            for member in sorted(set(cluster.agents) | {agent_id}):
                steps = cluster.recovery.slot(member).checkpoints.steps_for(run_id)
                common.append(max(steps) if steps else 0)
            step = min(common) if common else 0
        mode = "rollback" if step >= 1 else "restart"
        incarnation = cluster.bump_incarnation()
        cluster.recovery_log.append(
            {
                "event": "recover",
                "mode": mode,
                "crashed": agent_id,
                "step": step,
                "incarnation": incarnation,
            }
        )
        cluster.lead.broadcast_recover(
            {"mode": mode, "run_id": run_id, "step": step, "incarnation": incarnation}
        )

        def rolled_back() -> bool:
            return all(
                agent.recover_epoch >= incarnation for agent in cluster.agents.values()
            )

        def replace() -> None:
            cluster.replace_crashed_agent(
                agent_id,
                run_id=run_id if mode == "rollback" else None,
                step=step if mode == "rollback" else None,
            )
            self._run_members = set(cluster.agents)
            self._when(self._reshaped, reopen)

        def reopen() -> None:
            if mode == "rollback":
                cluster.lead.send_advance(
                    controller.resume_payload(controller.next_round(), step)
                )
            else:
                # Restart under a *fresh* run_id: any straggling control
                # traffic from the aborted attempt (same old run_id,
                # possibly retransmitted much later by the reliable
                # transport) is then rejected by the agents' run_id
                # guard instead of corrupting the new run.
                cluster.recovery.prune_run(run_id)
                self._run_counter += 1
                controller.spec = dc_replace(controller.spec, run_id=self._run_counter)
                controller.mark_restarted()
                cluster.lead.send_run_start(controller.spec)

        self._when(rolled_back, replace)

    def _run_async(self, spec: RunSpec) -> RunResult:
        if not spec.program.supports_async:
            raise ValueError(
                f"{spec.program.name} is not monotone; asynchronous execution "
                "is only safe for min/max programs"
            )
        kernel = self.cluster.kernel
        start = kernel.now
        self.cluster.lead.send_run_start(spec)
        self.cluster.settle()  # quiescence = termination for monotone programs
        for agent in sorted_agents(self.cluster.agents):
            agent.finalize_run(persist=True)
        # Async runs have no barrier rounds to piggyback result notices
        # on; tell the serving plane the fixpoint landed so proxy caches
        # drop anything filled mid-relaxation.
        self.cluster.lead.note_results_changed(spec.program.name)
        self.cluster.settle()
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                "engine",
                f"run:{spec.program.name}",
                "run",
                start,
                kernel.now,
                {"run_id": spec.run_id, "mode": "async"},
            )
        return RunResult(
            program_name=spec.program.name,
            run_id=spec.run_id,
            mode="async",
            values=self._collect(spec.program.name),
            steps=None,
            sim_seconds=kernel.now - start,
            strategy=spec.strategy,
        )

    def _collect(self, program_name: str) -> Dict[int, float]:
        merged: Dict[int, float] = {}
        for agent in sorted_agents(self.cluster.agents):
            merged.update(agent.local_results(program_name))
        return merged

    # ------------------------------------------------------------------
    # queries and elasticity
    # ------------------------------------------------------------------

    def query(self, vertex: int, program: str) -> Optional[float]:
        """One blocking client query through a ClientProxy."""
        if not self.cluster.clients:
            self.cluster.new_client()
        client = self.cluster.clients[0]
        out: List[Optional[float]] = []
        client.query(vertex, program, out.append)
        self.cluster.settle()
        if not out:
            raise RuntimeError("query lost: no reply arrived")
        return out[0]

    def serving_stats(self) -> Dict[str, float]:
        """Aggregate serving-plane counters across all client proxies."""
        return self.cluster.collect_client_metrics()

    def scale_to(self, n_agents: int) -> dict:
        """Elastically scale between computations; returns move stats."""
        stats_before = self.cluster.network.stats.snapshot()
        start = self.cluster.kernel.now
        self.cluster.scale_to(n_agents)
        from repro.net.message import PacketType

        moved = (
            self.cluster.network.stats.by_type_count[PacketType.EDGE_MIGRATE]
            - stats_before.by_type_count[PacketType.EDGE_MIGRATE]
        )
        return {
            "agents": len(self.cluster.agents),
            "sim_seconds": self.cluster.kernel.now - start,
            "migrate_messages": int(moved),
        }

    def rebalance(self, weights: Dict[int, float]) -> dict:
        """Adopt a ring re-weight plan between runs; returns move stats."""
        from repro.net.message import PacketType

        stats_before = self.cluster.network.stats.snapshot()
        start = self.cluster.kernel.now
        self.cluster.rebalance(weights)
        moved = (
            self.cluster.network.stats.by_type_count[PacketType.EDGE_MIGRATE]
            - stats_before.by_type_count[PacketType.EDGE_MIGRATE]
        )
        return {
            "weights": dict(weights),
            "sim_seconds": self.cluster.kernel.now - start,
            "migrate_messages": int(moved),
        }

    def maybe_rebalance(self, summary=None) -> Optional[dict]:
        """Close the loop: observed load -> plan -> fenced adoption.

        Builds a :class:`~repro.rebalance.RebalancePlanner` at the
        configured ``rebalance_skew_threshold`` and feeds it the
        per-agent compute totals of ``summary``.  With tracing on and no
        explicit summary, the load signal is the trace *window* recorded since
        the previous call — round ids reset per run, so summarising the
        cumulative trace would merge pre- and post-migration rows and
        feed the planner stale load.  Without any trace signal it falls
        back to resident edge counts.  When the planner emits a plan,
        the lead directory adopts it — term-fenced, epoch-bumping — and
        the call blocks (in simulated time) until the resulting
        EDGE_MIGRATE traffic drains.

        Returns the adoption report (plan + move stats), or None when
        balance is already within threshold.  Results are unaffected up
        to the data plane's partition-dependent float grouping: the
        persistent fixpoint moves with the edges.
        """
        from repro.rebalance import RebalancePlanner, normalize_loads

        planner = RebalancePlanner(skew_threshold=self.config.rebalance_skew_threshold)
        if summary is None and self.tracer is not None:
            summary = self.trace_summary_window()
        live = set(self.cluster.agents)
        loads: Dict[int, float] = {}
        if summary is not None:
            loads = {
                aid: load
                for aid, load in normalize_loads(
                    summary.per_agent_compute_totals()
                ).items()
                if aid in live
            }
        if len(loads) < len(live):
            # No (or partial) trace signal: fall back to edge residency.
            loads = {aid: float(n) for aid, n in self.cluster.edge_loads().items()}
        plan = planner.plan(loads, self.cluster.current_weights())
        if plan is None:
            return None
        report = self.rebalance(plan.weights)
        report.update(
            skew_before=plan.skew_before,
            skew_predicted=plan.skew_predicted,
            reason=plan.reason,
        )
        return report

    @property
    def n_agents(self) -> int:
        return len(self.cluster.agents)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        """The fabric's :class:`~repro.obs.trace.Tracer` (None unless
        the engine was built with ``tracing=True``)."""
        return self.cluster.network.tracer

    def trace(self):
        """Immutable snapshot of everything traced so far.

        Raises if tracing is off — a silently empty trace would read as
        "nothing happened".
        """
        tracer = self.tracer
        if tracer is None:
            raise RuntimeError("tracing is disabled; build the engine with tracing=True")
        return tracer.trace()

    def trace_summary(self):
        """Per-superstep compute/wait/comms timeline of the trace."""
        from repro.obs.summary import TraceSummary

        return TraceSummary.from_trace(self.trace())

    def trace_summary_window(self):
        """Summary of the trace recorded since the previous window.

        Each call consumes the spans/events appended since the last
        one (the first consumes everything so far).  Because round ids
        restart at zero for every run, :class:`TraceSummary` rows from
        different runs share keys and merge; windowing is the only way
        to read one run's — or one planning interval's — load in
        isolation.  Used by :meth:`maybe_rebalance` so each planning
        pass sees current load, and by benchmarks to score runs
        individually.
        """
        from repro.obs.summary import TraceSummary
        from repro.obs.trace import Trace

        trace = self.trace()
        spans_mark, events_mark = self._rebalance_trace_mark
        self._rebalance_trace_mark = (len(trace.spans), len(trace.events))
        window = Trace(
            spans=trace.spans[spans_mark:], events=trace.events[events_mark:]
        )
        return TraceSummary.from_trace(window)

    def prometheus_text(self) -> str:
        """Prometheus text exposition of cluster metrics, fabric stats
        and cost-model charges.  Works with tracing on or off (the
        metric sources are always live)."""
        from repro.obs.prom import render_engine_metrics

        return render_engine_metrics(self)

    def placement_counters(self):
        """Cluster-wide placement fast-path counters.

        Sums every participant's (agents, streamers, clients)
        :class:`~repro.bench.counters.PerfCounters` — cache hit/miss
        totals, epoch invalidations, vectorized-batch sizes — into one
        fresh ``PerfCounters`` for the bench runner and tests.  Agents
        that left or crashed stay counted (``cluster.retired_perf``),
        so the totals never step backwards across a scale-down.
        """
        from repro.bench.counters import aggregate_counters

        cluster = self.cluster
        participants = cluster.departing_agents() + sorted_agents(cluster.agents)
        participants += list(cluster.streamers)
        participants += list(cluster.clients)
        return aggregate_counters(
            [cluster.retired_perf]
            + [p.perf for p in participants if getattr(p, "perf", None) is not None]
        )

    def validate_against_reference(self) -> bool:
        """Check the distributed edge stores against the mirror graph.

        Every reference edge must be resident exactly once as an
        out-copy and once as an in-copy, and nothing extra may exist.
        """
        if self.reference is None:
            raise RuntimeError("engine was built with keep_reference=False")
        out_copies: Set = set()
        in_copies: Set = set()
        for agent in self.cluster.agents.values():
            for u, nbrs in agent.shard.out_store.items():
                for v in nbrs:
                    edge = (u, v)
                    if edge in out_copies:
                        return False  # duplicate residency
                    out_copies.add(edge)
            for v, srcs in agent.shard.in_store.items():
                for u in srcs:
                    edge = (u, v)
                    if edge in in_copies:
                        return False
                    in_copies.add(edge)
        ref_edges = set()
        for u in self.reference.vertices():
            for v in self.reference.out_neighbors(u):
                ref_edges.add((u, v))
        return out_copies == ref_edges and in_copies == ref_edges
