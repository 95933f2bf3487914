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

from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.cluster.cluster import ElGACluster, sorted_agents
from repro.cluster.config import ClusterConfig
from repro.core.program import RunSpec, VertexProgram
from repro.core.superstep import RunResult, SyncRunController, step_plan
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import EdgeBatch, REMOVE
from repro.net.message import PacketType
from repro.obs.prom import render_engine_metrics
from repro.obs.summary import TraceSummary
from repro.obs.trace import Trace
from repro.rebalance import RebalancePlanner, normalize_loads


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
        # The log prefix every known program has consumed is trimmed,
        # and nothing is logged while no program is known: a first run
        # resolves as scratch and never reads it.
        self._batch_log: List[dict] = []
        self._batch_base = 0
        # ((store id, version) per store, the stores, |V|) behind
        # ``global_n`` when there is no reference mirror: recounted only
        # after a store changed.
        self._global_n_cache: Optional[tuple] = None
        self._program_meta: Dict[str, dict] = {}
        self.ingest_reports: List[dict] = []
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
        if self._program_meta:
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
            restarted after ``superstep.MASTER_RESTART_DELAY``).  Agent
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

        The three plans merge into one ``{superstep: events}`` plan
        (:func:`~repro.core.superstep.step_plan`) that the run's
        :class:`~repro.core.superstep.SyncRunController` pops once per
        superstep; a plan that could never fire raises here, before
        anything runs.

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
        plan = step_plan(mode, self.config, scale_plan, crash_plan, rebalance_plan)
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
        # Agents whose home directory died since the last run could not
        # hear RUN_START; the barrier would wait on them forever.
        self.cluster.rehome_orphans(settle=True)
        kernel = self.cluster.kernel
        start = kernel.now
        steps, rounds, stats = None, [], []
        if mode == "sync":
            controller = self._run_sync(spec, plan)
            spec, steps = controller.spec, controller.final_step
            rounds, stats = controller.round_durations, controller.stats_history
        elif mode == "async":
            self._run_async(spec)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        tracer = self.tracer
        if tracer is not None:
            args = {"run_id": spec.run_id, "mode": mode}
            if steps is not None:
                args["steps"] = steps
            tracer.complete("engine", f"run:{program.name}", "run", start, kernel.now, args)
        result = RunResult(
            program_name=program.name,
            run_id=spec.run_id,
            mode=mode,
            values=self._collect(program.name),
            steps=steps,
            sim_seconds=kernel.now - start,
            round_durations=rounds,
            stats_history=stats,
            strategy=spec.strategy,
        )
        self._record_program_meta(program.name)
        return result

    def _run_sync(self, spec: RunSpec, plan: Dict[int, dict]) -> SyncRunController:
        controller = SyncRunController(spec, self.cluster, plan)
        # Installed through the cluster, not pinned on one Directory
        # object: a lead election mid-run re-homes the controller onto
        # the successor.  ``cluster.lead`` is likewise re-read at every
        # use — never captured in a local.
        self.cluster.install_run_controller(controller)
        self.cluster.lead.send_run_start(spec)
        self.cluster.settle()
        self.cluster.uninstall_run_controller()
        # Restart-mode recovery reissues the run under fresh run ids:
        # prune whichever completed, and number the next run after it.
        self._run_counter = controller.spec.run_id
        self.cluster.recovery.prune_run(controller.spec.run_id)
        if not controller.done:
            raise RuntimeError(
                "run ended without halting — barrier deadlock or lost messages"
            )
        return controller

    def _run_async(self, spec: RunSpec) -> None:
        if not spec.program.supports_async:
            raise ValueError(
                f"{spec.program.name} is not monotone; asynchronous execution "
                "is only safe for min/max programs"
            )
        self.cluster.lead.send_run_start(spec)
        self.cluster.settle()  # quiescence = termination for monotone programs
        for agent in sorted_agents(self.cluster.agents):
            agent.finalize_run(persist=True)
        # Async runs have no barrier rounds to piggyback result notices
        # on; tell the serving plane the fixpoint landed so proxy caches
        # drop anything filled mid-relaxation.
        self.cluster.lead.note_results_changed(spec.program.name)
        self.cluster.settle()

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
        moves = self._migration_cost(lambda: self.cluster.scale_to(n_agents))
        return {"agents": len(self.cluster.agents), **moves}

    def rebalance(self, weights: Dict[int, float]) -> dict:
        """Adopt a ring re-weight plan between runs; returns move stats."""
        moves = self._migration_cost(lambda: self.cluster.rebalance(weights))
        return {"weights": dict(weights), **moves}

    def _migration_cost(self, reshape: Callable[[], None]) -> dict:
        """Simulated seconds and EDGE_MIGRATE packets a between-runs
        reshape (which settles before returning) cost."""
        stats = self.cluster.network.stats
        before = stats.snapshot()
        start = self.cluster.kernel.now
        reshape()
        moved = (
            stats.by_type_count[PacketType.EDGE_MIGRATE]
            - before.by_type_count[PacketType.EDGE_MIGRATE]
        )
        return {"sim_seconds": self.cluster.kernel.now - start, "migrate_messages": int(moved)}

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
        return render_engine_metrics(self)

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
