"""Agents: graph shards, vertex-centric compute, and elasticity (§3.4).

An Agent holds a shard of the dynamic graph in memory and runs the
vertex-centric model on it.  It operates as a state machine: it
continuously receives packets and either executes the algorithm on its
vertices, sends updates to other Agents, or receives updates.  Key
behaviors, each mapped to the paper:

* **Edge stores** — each edge is stored twice (the paper keeps both in-
  and out-edges): the *out-copy* of (u, v) lives with u's placement,
  the *in-copy* with v's.  For a non-split vertex both copies of all
  its edges land on a single Agent; a split (high-degree) vertex's
  copies are spread over its replica set.
* **Forwarding** — every incoming packet is checked against the current
  directory state; if this Agent is no longer (or never was) the
  correct destination, the packet is forwarded to the best known owner
  (§3, eventual consistency).
* **Future iterations** — messages for a future superstep are held
  until the computation catches up (§3.4).
* **Batching** — while a computation runs, edge changes are buffered
  and applied when the run ends (§3.4).
* **Replica synchronization** — between supersteps, split vertices
  reconcile: replicas send partial aggregates to the primary, which
  applies the update and pushes the new value (and global out-degree)
  back (§3.4, "updates that are sent to their replicas").
* **Elasticity** — on a directory update the Agent re-evaluates the
  owner of the resident edges the update can have moved (all of them
  when the ring changed) and forwards misplaced ones; a leaving Agent
  drains completely, waits, then disconnects (§3.4.3).

Compute is vectorized per superstep (numpy over the shard's edge
arrays) and *simulated time* is charged per operation through the
calibrated :class:`~repro.cluster.costmodel.CostModel`.

The Agent is split where its state separates.  What must survive it is
one :class:`~repro.cluster.shard.ShardState` (``agent.shard``); a run
executes on a :class:`~repro.cluster.vertextable._RunState` built by
cluster-free functions, its split vertices' replica round on a
:class:`~repro.cluster.replicas.ReplicaRound`; the barrier-round machine
that drives a run is :class:`~repro.cluster.rounds.RoundMixin`;
membership (join, leave, drain) and migration with its hop ledger are
:class:`~repro.cluster.migration.MigrationMixin`.  This module keeps
message dispatch, ingest and forwarding, serving, and crash tolerance.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
# ``combine_pairs`` is used by the round machine (rounds.py); the name
# stays bound here because the end-to-end harness checks that its
# tracing wrapper reaches ``repro.cluster.agent.combine_pairs``.
from repro.cluster.dataplane import ACK_BATCH_WINDOW, combine_pairs, segments_by  # noqa: F401
from repro.cluster.directory import DirectoryState
from repro.cluster.edgestore import distinct
from repro.cluster.migration import MigrationMixin
from repro.cluster.participant import Participant
from repro.cluster.recovery import Checkpoint, RecoveryStore, Rows
from repro.cluster.rounds import RoundMixin
from repro.cluster.shard import ProgramState, ShardState, StateSlice, copy_programs
from repro.cluster.vertextable import _RunState, hosted_vertex_ids, persist_table
from repro.net.message import Message, PacketType
from repro.sketch.countmin import CountMinSketch


class Agent(MigrationMixin, RoundMixin, Participant):
    """One ElGA Agent (one per core in the paper's deployment).

    Created by :class:`~repro.cluster.cluster.ElGACluster`; joins the
    system by subscribing to its Directory and announcing itself, after
    which the directory broadcast brings it the global state it needs.
    """

    KIND = "agent"
    TOPICS = (
        PacketType.DIRECTORY_UPDATE,
        PacketType.SUPERSTEP_ADVANCE,
        PacketType.RUN_START,
        PacketType.RECOVER,
    )

    def __init__(
        self,
        network,
        config: ClusterConfig,
        agent_id: int,
        node: int,
        directory_address: int,
        weight: float = 1.0,
        recovery: Optional[RecoveryStore] = None,
        recover_from: Optional[int] = None,
        restore_checkpoint: Optional[Tuple[int, int]] = None,
        incarnation: int = 0,
        master_address: Optional[int] = None,
    ):
        super().__init__(
            network, f"agent-{agent_id}", config, node, directory_address, master_address
        )
        self.agent_id = agent_id
        # Capacity weight (§3.4.2 heterogeneous extension): scales this
        # agent's virtual-position count on every participant's ring.
        self.weight = float(weight)
        # The same registry as ``perf``, under the name the end-to-end
        # harness (benchmarks/e2e/workloads.py) reads it by.
        self.metrics = self.perf

        # Everything durable — edge stores, un-flushed sketch delta,
        # dirty log, per-program algorithm state — is this one object:
        # what a checkpoint copies, the WAL replays onto, and a
        # replacement agent is handed back.
        self.shard = ShardState(
            CountMinSketch(config.sketch_width, config.sketch_depth, seed=config.seed)
        )

        # A broadcast that passed the fence while a superstep was in
        # flight, parked until placement may move.
        self._pending_state: Optional[DirectoryState] = None

        # Dynamic-update plumbing.
        self._delta_count = 0
        self._reported_split: Set[int] = set()
        self._buffered_updates: List[dict] = []
        # round -> (packet type, payload) data that arrived before its
        # round opened here (early, or before the run bootstrap or a
        # rollback's resume); dropped at a rollback and at the run's end.
        self._early_data: Dict[int, List[Tuple[PacketType, dict]]] = {}

        # Membership (MigrationMixin).  Edge updates that arrive before
        # any adopted state lists this agent wait here; None once one has.
        self.status = "joining"
        self._pre_state_buffer: Optional[List[Tuple[dict, bool]]] = []
        # Outbound hop ledger: token -> the (role, keys, others) batch
        # an unacked EDGE_MIGRATE removed from our stores, or None for
        # a forwarded segment.  The WAL removal is logged only on ack:
        # until the rows are durably *somewhere else*, a replacement
        # must restore them from its checkpoint + WAL and re-ship under
        # the current directory (receiver application is idempotent).
        # Logging the removal at send time lost edges when this agent
        # crashed abruptly with the EDGE_MIGRATE still in flight.
        self.ledger: Dict[int, Optional[Tuple[str, np.ndarray, np.ndarray]]] = {}
        self._migration_seq = 0

        self.run: Optional[_RunState] = None

        # Serving plane (Goal 4): the barrier-published snapshot views
        # client queries read from.  ``_serving[prog]`` is
        # (ids, values, run_id, step) copied at READY time — the last
        # complete superstep state, never the mid-mutation live table —
        # and ``_serving_final[prog]`` is the (run_id, step) tag the
        # persistent fixpoint store answers under once a run finalizes.
        self._serving: Dict[str, Tuple[np.ndarray, np.ndarray, int, int]] = {}
        self._serving_final: Dict[str, Tuple[int, int]] = {}

        # Crash tolerance: durable side-channel, liveness, and fencing.
        # ``_data_inc`` stamps every data-plane message with the cluster
        # incarnation it belongs to; after a recovery, stragglers from
        # the previous incarnation are silently dropped.
        self._recovery_store = recovery if recovery is not None else RecoveryStore()
        self._recovery = self._recovery_store.slot(self.agent_id)
        # Batched-ack credits: (sender address, incarnation) -> packets
        # received since the last cumulative VERTEX_MSG_ACK flush.
        self._ack_credits: Dict[Tuple[int, int], int] = {}
        self._ack_flush_scheduled = False
        self._heartbeat_pending = False
        self.recover_epoch = incarnation
        self._data_inc = incarnation
        # Tracing: when this agent last went quiet waiting on a barrier
        # (READY sent); the next ADVANCE closes the wait span.
        self._trace_wait_from: Optional[float] = None
        self.restored_from: Optional[dict] = None
        if recover_from is not None:
            self._restore_from_crash(recover_from, restore_checkpoint)

        self._announce()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    # Bound in this class body, not inherited: the end-to-end harness
    # wraps ``vars(Agent)["handle_message"]``.
    handle_message = Participant.handle_message

    def _on_round_packet(self, message: Message) -> None:
        self._on_round_data(message.ptype, message.payload, message.src)

    def _on_term_bump(self) -> None:
        """A successor lead took over: re-drive anything it must see.

        The new lead reconstructs in-flight barrier state by
        re-collecting READYs; an agent waiting at a barrier re-sends its
        last report verbatim (stats must merge bit-identically).
        """
        if not self.crashed:
            self._report_ready()

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------

    def _agent_address(self, agent_id: int) -> int:
        try:
            return self.dstate.agents[agent_id]
        except (KeyError, AttributeError):
            raise LookupError(f"agent {agent_id} not in directory state") from None

    def _lookup_rates(self) -> Tuple[float, float]:
        """Simulated seconds per edge-to-Agent resolution: (full sketch
        + ring rate, reduced memo-probe rate of a PlacementCache hit —
        see ``CostModel.elga_lookup_cached``)."""
        costs = self.config.costs
        width, depth = self.config.sketch_width, self.config.sketch_depth
        ring_positions = max(1, len(self.placer.ring) * self.config.virtual_factor)
        return (
            costs.placement_lookup_cost(width, depth, ring_positions),
            costs.placement_lookup_cost(width, depth, ring_positions, cached=True),
        )

    def _charge_lookups(self, misses: int, hits: int) -> None:
        """Charge one cached lookup batch honestly: misses at the full
        rate, hits at the cached one."""
        full, cached = self._lookup_rates()
        self.charge(misses * full + hits * cached)

    # ------------------------------------------------------------------
    # dynamic updates (ingest, forwarding, sketch maintenance)
    # ------------------------------------------------------------------

    def _on_edge_update(self, payload: dict, count_in_sketch: bool) -> None:
        if self._pre_state_buffer is not None:
            # A joining agent can receive edges (e.g. migration from
            # peers that already saw its join) before any state it
            # adopted lists it; hold them until one does.
            self._pre_state_buffer.append((payload, count_in_sketch))
            return
        if self._holds_graph() and count_in_sketch:
            # "While a batch is running, the graph does not change: any
            # edge changes are buffered."
            self._buffered_updates.append(payload)
            return
        self._apply_edge_update(payload, count_in_sketch)

    def _apply_edge_update(self, payload: dict, count_in_sketch: bool) -> None:
        costs = self.config.costs
        role = payload["role"]
        actions = np.asarray(payload["actions"], dtype=np.int8)
        us = np.asarray(payload["us"], dtype=np.int64)
        vs = np.asarray(payload["vs"], dtype=np.int64)
        own = us if role == "out" else vs
        other = vs if role == "out" else us
        n = len(own)
        if n == 0:
            return
        if not count_in_sketch:
            # Migration acks are hop-by-hop: acknowledge receipt to the
            # sending hop now; rows forwarded onward go out as our own
            # hops, under our own ledger tokens.
            reply_to = payload.get("reply_to")
            if reply_to is not None and reply_to >= 0:
                self.push.push(
                    reply_to,
                    PacketType.EDGE_MIGRATE_ACK,
                    {"token": payload.get("token")},
                )
        owners = self.placer.owner_of_edges(own, other)
        self._charge_lookups(self.placer.last_misses, self.placer.last_hits)
        mine = owners == self.agent_id
        # Forward misplaced changes to the best known destination.
        if (~mine).any():
            self.perf.add("updates_forwarded", int((~mine).sum()))
            elsewhere = np.flatnonzero(~mine)
            order, segments = segments_by(owners[elsewhere])
            for target, start, end in segments:
                rows = elsewhere[order[start:end]]
                fwd = {"role": role, "actions": actions[rows], "us": us[rows], "vs": vs[rows]}
                if "state" in payload:
                    fwd["state"] = payload["state"]
                if not count_in_sketch:
                    self._send_hop(target, fwd, None)
                    continue
                # Updates carry the original requester: the final
                # applier acks it.
                fwd["reply_to"] = payload["reply_to"]
                fwd["token"] = payload["token"]
                self.push.push(self._agent_address(target), PacketType.EDGE_UPDATE, fwd)

        # Apply local changes (one vectorized batch over the store).
        shard = self.shard
        store = shard.out_store if role == "out" else shard.in_store
        rows = np.nonzero(mine)[0]
        app_k, app_o, app_a = store.apply(own[rows], other[rows], actions[rows])
        n_applied = len(app_k)
        self.charge(costs.elga_ingest_op * max(n_applied, 1))
        self.perf.add("updates_applied", n_applied)

        if count_in_sketch and n_applied:
            # Streaming mutations dirty their locally-keyed endpoints:
            # these rows seed the activation frontier of the next delta
            # run (and survive crashes — they are re-derived from the
            # WAL's sketched suffix at restore).
            shard.log_dirty([(role, app_k, app_o, app_a)])
            # One sketch update per distinct endpoint, weighted by its
            # rows: the same table as a per-row walk, hashed once per
            # endpoint instead of once per row.
            inserted, n_inserted = np.unique(app_k[app_a > 0], return_counts=True)
            removed, n_removed = np.unique(app_k[app_a < 0], return_counts=True)
            shard.sketch_delta.add(inserted, n_inserted)
            shard.sketch_delta.remove(removed, n_removed)
            self._delta_count += n_applied
            self._check_split_threshold(inserted)
            if self._delta_count >= self.config.sketch_flush_every:
                self.flush_sketch()

        # Migrated vertex state rides along with the edges — but only
        # the final owner keeps it (a forwarding hop that merged values
        # for edges passing through would hoard stale state).
        merged: Dict[str, StateSlice] = {}
        if len(rows):
            kept = distinct(own[rows])
            for prog, pairs in payload.get("state", {}).items():
                part = shard.programs.setdefault(prog, ProgramState()).absorb(pairs, kept)
                if part:
                    merged[prog] = part

        # Durability: every applied mutation — and any migrated-in
        # vertex state — hits the write-ahead log before this handler
        # returns, so a replacement can reconstruct the shard exactly.
        self._wal_log(role, (app_k, app_o, app_a), sketched=count_in_sketch, state=merged)

        # Update acks go end-to-end to the original requester, counting
        # edges terminally handled here (forwarded rows are acked by
        # their final applier).  Migration acks were already sent
        # hop-by-hop above.
        if count_in_sketch:
            reply_to = payload.get("reply_to")
            if reply_to is not None and reply_to >= 0 and len(rows):
                self.push.push(
                    reply_to,
                    PacketType.EDGE_UPDATE_ACK,
                    {"token": payload.get("token"), "count": int(len(rows))},
                )

    def _check_split_threshold(self, vertices: np.ndarray) -> None:
        """Report vertices whose estimated degree crossed the split
        threshold so the directory can registry-broadcast them."""
        if len(vertices) == 0 or self.dstate is None:
            return
        est = self.dstate.sketch.query(vertices, plus=self.shard.sketch_delta)
        crossing = vertices[est >= self.config.replication_threshold]
        fresh = [
            int(v)
            for v in crossing
            if int(v) not in self._reported_split
            and int(v) not in self.dstate.split_vertices
        ]
        if fresh:
            self._reported_split.update(fresh)
            self.push.push(
                self.directory_address,
                PacketType.SPLIT_REPORT,
                np.asarray(fresh, dtype=np.int64),
            )

    def report_metrics(self) -> None:
        """Push the current metric snapshot to this agent's Directory.

        §3.4.3: ElGA's autoscaling API collects Agent metrics (graph
        change rates, client query rates, superstep times) through the
        Directories.  The cluster orchestrator (or an autoscaler
        driver) triggers reports at its sampling cadence.
        """
        self.push.push(
            self.directory_address,
            PacketType.METRIC_REPORT,
            {"agent_id": self.agent_id, "metrics": self.perf.snapshot()},
        )

    def flush_sketch(self) -> None:
        """Push accumulated degree deltas to the directory."""
        if self.home_lost():
            # Pushed at a dead directory the counts would be dropped and
            # every estimate from then on would miss them: the delta
            # stays pending until ``_on_rehomed``.
            return
        delta = self.shard.sketch_delta
        if delta.is_empty():
            return
        self.push.push(self.directory_address, PacketType.SKETCH_DELTA, delta.copy())
        delta.clear()
        self._delta_count = 0
        # The flushed delta is now the directory's; checkpoint so a
        # crash-restore cannot replay the WAL's sketched rows and
        # re-report degrees the directory already counted.
        self._recovery_store.snapshot_agent(self)
        self.perf.add("checkpoints_taken")

    # ------------------------------------------------------------------
    # client queries (low-latency path)
    # ------------------------------------------------------------------

    def _on_client_query(self, message: Message) -> None:
        self.charge(self.config.costs.elga_query_op)
        self.perf.add("queries_served")
        payload = message.payload
        vertex = int(payload["vertex"])
        prog = payload.get("program")
        value, run_id, step = self._serving_lookup(prog, vertex)
        reply = {
            "vertex": vertex,
            "value": value,
            "token": payload.get("token"),
            "run_id": run_id,
            "step": step,
            "inc": self._data_inc,
            "agent_id": self.agent_id,
        }
        self.push.push(message.src, PacketType.CLIENT_REPLY, reply)

    def _serving_lookup(self, prog: Optional[str], vertex: int):
        """Resolve one query against a *stable* snapshot.

        Never reads the live ``run.table``: between an ADVANCE and the
        next READY that table is mid-mutation, and two replicas of a
        split vertex could answer from different rounds (a torn read).
        Resolution order:

        1. The barrier-published serving view — the complete state of
           the last round this agent reported READY for, tagged with
           its (run_id, step).
        2. The persistent fixpoint store, tagged with the finalize-time
           (run_id, step) of the run that wrote it (``(-1, -1)`` for
           values restored by a replacement agent, whose proxies accept
           them by value equality).
        """
        if prog is None:
            return None, -1, -1
        view = self._serving.get(prog)
        if view is not None:
            ids, values, run_id, step = view
            idx = np.searchsorted(ids, vertex)
            if idx < len(ids) and ids[idx] == vertex:
                self.perf.add("queries_from_snapshot")
                return float(values[idx]), run_id, step
        # Not hosted in the live view (or no view): the persistent
        # fixpoint store.  Split vertices are always in every replica's
        # view while a run is live, so this fallback never mixes
        # per-replica rounds.
        run_id, step = self._serving_final.get(prog, (-1, -1))
        state = self.shard.programs.get(prog)
        value = state.values.get(vertex) if state is not None else None
        return value, run_id, step

    def _publish_serving_view(self, run: "_RunState") -> None:
        """Copy the completed round's table into the serving view.

        Called exactly once per barrier round, at READY time, when the
        local state for (run.step) is complete: all vertex messages are
        folded and every split-vertex replica value is applied.  Pure
        local mutation — no charge(), no messages — so enabling the
        serving plane perturbs neither simulated time nor delivery
        interleavings of existing runs.
        """
        table = run.table
        if table is None or len(table.ids) == 0:
            return
        self._serving[run.program.name] = (
            table.ids,
            table.values.copy(),
            run.spec.run_id,
            run.step,
        )
        self.perf.add("serving_views_published")

    # ------------------------------------------------------------------
    # data-plane acknowledgements (batched credits)
    # ------------------------------------------------------------------

    def _ack_data(self, src: int, payload: dict) -> None:
        """Acknowledge one data-plane packet as a credit; a single
        cumulative VERTEX_MSG_ACK per (sender, incarnation) covers the
        credits accrued within ``ACK_BATCH_WINDOW``."""
        key = (src, int(payload.get("inc", 0)))
        self._ack_credits[key] = self._ack_credits.get(key, 0) + 1
        if not self._ack_flush_scheduled:
            self._ack_flush_scheduled = True
            self.kernel.schedule(ACK_BATCH_WINDOW, self._flush_acks)

    def _flush_acks(self) -> None:
        self._ack_flush_scheduled = False
        if self.crashed or not self._ack_credits:
            return
        credits, self._ack_credits = self._ack_credits, {}
        for key in sorted(credits):
            src, inc = key
            count = credits[key]
            self.perf.add("data_ack_credits", count)
            self.perf.add("acks_batched", count - 1)
            self.push.push(src, PacketType.VERTEX_MSG_ACK, {"inc": inc, "count": count})

    # ------------------------------------------------------------------
    # crash tolerance: heartbeats, WAL, checkpoints, recovery
    # ------------------------------------------------------------------

    def _start_heartbeats(self) -> None:
        """(Re)arm the periodic HEARTBEAT push to this agent's Directory.

        The chain is tied to synchronous-run liveness: each tick
        re-schedules itself only while the run is live, so an idle (or
        suspended, or crashed) agent leaves the simulator quiescent.
        """
        if self.config.heartbeat_interval <= 0 or self._heartbeat_pending:
            return
        self._heartbeat_pending = True
        self.kernel.schedule(self.config.heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        self._heartbeat_pending = False
        run = self.run
        if self.crashed or run is None or run.status not in ("open", "ready"):
            return  # chain ends; the next run start / resume re-arms it
        # If this agent's directory died, re-home through the master
        # instead of heartbeating into the void.  The chain keeps
        # ticking so a failed re-home attempt is retried.
        if not self.home_lost():
            self.perf.add("heartbeats_sent")
            self.push.push(
                self.directory_address,
                PacketType.HEARTBEAT,
                {"agent_id": self.agent_id},
            )
        self._heartbeat_pending = True
        self.kernel.schedule(self.config.heartbeat_interval, self._heartbeat_tick)

    def _on_rehomed(self) -> None:
        super()._on_rehomed()
        self._announce()
        # The READY sent to the dead directory may never have been
        # forwarded; re-report through the new home.
        self._report_ready()
        if self.run is None:
            # Between runs: push what a flush held back while homeless
            # (mid-run the next pre-run flush picks it up, so a re-home
            # never moves the sketch under a running program).
            self.flush_sketch()

    def _wal_log(
        self,
        role: str,
        rows: Rows,
        sketched: bool,
        state: Optional[Dict[str, StateSlice]] = None,
    ) -> None:
        self._recovery.wal.append(role, rows, sketched, state)
        self.perf.add("wal_records_logged", len(rows[0]))

    def _take_value_checkpoint(self, run: _RunState) -> None:
        """Coordinated checkpoint at a barrier step.

        Taken exactly when this agent reports READY for a plain step:
        every apply for ``run.step`` — including the asynchronous
        split-vertex applies — has run, so the captured table is
        precisely what an apply-only drain at this step would persist.
        The WAL truncates: the checkpoint now covers everything before
        it.
        """
        tracer = self.network.tracer
        trace_from = self.available_at() if tracer is not None else 0.0
        table = run.table
        state = self.shard.copy()
        if table is not None and len(table):
            # Pre-scatter baselines: a rollback drops this round's
            # in-flight deltas, and the resume re-scatter regenerates
            # them only against the baseline from *before* the round's
            # sends advanced it.
            baselines = None
            if run.delta_msgs and table.last_sent is not None:
                baselines = (
                    run.prescatter_last_sent
                    if run.prescatter_last_sent is not None
                    else table.last_sent
                )
            persist_table(
                table, state.programs.setdefault(run.program.name, ProgramState()), baselines
            )
        checkpoint = Checkpoint(state, run_id=run.spec.run_id, step=run.step)
        self._recovery.checkpoints.save(checkpoint)
        self._recovery.wal.truncate()
        self.perf.add("checkpoints_taken")
        if tracer is not None:
            tracer.complete(
                self.name,
                "checkpoint",
                "durability",
                trace_from,
                self.available_at(),
                {"run_id": run.spec.run_id, "step": run.step, "round": run.round},
            )

    def _restore_from_crash(
        self, crashed_id: int, restore_checkpoint: Optional[Tuple[int, int]]
    ) -> None:
        """Rebuild a crashed agent's shard from its durable slot.

        Restore base (latest checkpoint) + WAL suffix reconstructs the
        exact edge stores and un-flushed sketch delta; persisted values
        come from the rollback checkpoint (mid-run recovery), the
        pre-run snapshot (restart-mode recovery from a mid-run base), or
        the base itself.  Edges the ring routes elsewhere are shipped by
        the migration pass of the first adopted state that lists this
        agent (none, when it rejoins the membership its victim left).
        """
        source = self._recovery_store.slot(crashed_id)
        base = source.checkpoints.latest
        rolled = None
        if restore_checkpoint is not None:
            rolled = source.checkpoints.checkpoint_for(*restore_checkpoint)
            if rolled is None:
                raise RuntimeError(
                    f"replacement for agent {crashed_id} needs checkpoint "
                    f"{restore_checkpoint} but the durable slot lacks it"
                )
        if base is not None:
            # The graph half comes from the *latest* base (the WAL
            # suffix is relative to it) — the dirty rows too: they never
            # change during a run, so the rollback checkpoint would
            # carry the same ones anyway.
            self.shard = base.state.copy()
            self.perf.add("checkpoints_restored")
        if rolled is not None:
            # Mid-run rollback: values from the common checkpoint step.
            self.shard.programs = copy_programs(rolled.state.programs)
        elif base is not None and base.run_id is not None:
            # Restart-mode recovery from a mid-run base: its values are
            # partially converged and must not seed the re-run; fall
            # back to the snapshot from before the run's first one.
            pre = source.checkpoints.pre_run
            self.shard.programs = copy_programs(pre.state.programs) if pre is not None else {}
        replayed = source.wal.replay(self.shard)
        # Streaming mutations logged after the base checkpoint were
        # dirty but unconsumed when the agent died; re-dirty them so the
        # next delta run still sees its full frontier seed.
        self.shard.log_dirty(source.wal.sketched_rows())
        self.perf.add("wal_records_replayed", replayed)
        self.perf.add("recoveries_participated")
        self.restored_from = {
            "agent_id": crashed_id,
            "checkpoint_step": restore_checkpoint[1] if restore_checkpoint else None,
            "wal_rows_replayed": replayed,
            "edges_restored": self.n_out_edges + self.n_in_edges,
        }
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(self.name, "restore", "recovery", dict(self.restored_from))
        # Seed this agent's own slot so it is itself recoverable from
        # the moment it joins (its WAL starts empty, so the snapshot is
        # the covering base).
        self._recovery_store.snapshot_agent(self)

    def _on_recover(self, payload: dict) -> None:
        """Cluster-wide recovery directive, broadcast after an eviction.

        ``mode`` is decided by the run controller from durable
        checkpoint coverage:

        * ``rollback`` — restore persisted values from the common
          checkpoint step and suspend; the controller resumes the barrier at
          that step once the replacement has joined and migration has
          quiesced.
        * ``restart`` — no usable common checkpoint (WAL-only
          degradation): drop the run entirely; the controller re-issues
          RUN_START and the algorithm re-runs from pre-run state.
        """
        incarnation = int(payload["incarnation"])
        if incarnation <= self.recover_epoch:
            return  # duplicate broadcast
        self.recover_epoch = incarnation
        self._data_inc = incarnation
        run = self.run
        if run is None or run.spec.run_id != payload.get("run_id"):
            return
        self.perf.add("recoveries_participated")
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name,
                "recover",
                "recovery",
                {
                    "mode": payload["mode"],
                    "step": payload.get("step"),
                    "incarnation": incarnation,
                },
            )
        if payload["mode"] == "restart":
            # The aborted run's serving view describes state the re-run
            # will recompute; fall back to the pre-run fixpoint store
            # (untouched in restart mode) under its existing final tag.
            self._serving.pop(run.program.name, None)
            self._end_run()
            return
        step = int(payload["step"])
        checkpoint = self._recovery.checkpoints.checkpoint_for(run.spec.run_id, step)
        if checkpoint is None:
            raise RuntimeError(
                f"agent {self.agent_id} told to roll back to step {step} "
                "but holds no such checkpoint"
            )
        # Only the program half rewinds.  A survivor's graph half is
        # current: edges may have migrated since the checkpoint, and the
        # dirty log does not change while a run is in flight.
        self.shard.programs = copy_programs(checkpoint.state.programs)
        # Serve the rolled-back checkpoint during the suspension: the
        # persistent store now holds exactly step-``step`` values, and
        # every survivor tags them identically, so reads during
        # recovery stay snapshot-consistent.  (A replacement agent's
        # restored values carry the default tag and are accepted by the
        # proxies' value-equality rule.)
        self._serving.pop(run.program.name, None)
        self._serving_final[run.program.name] = (run.spec.run_id, step)
        # Stragglers from the old incarnation are fenced by ``inc``.
        run.clear_progress()
        self._early_data = {}
        self._run_to("waiting")
        run.step = step
        self._adopt_pending()

    # ------------------------------------------------------------------
    # orchestrator-facing introspection (out-of-band, like the paper's
    # scripts reading results from the agents after a run)
    # ------------------------------------------------------------------

    def local_results(self, program_name: str) -> Dict[int, float]:
        """Persisted values for *currently hosted* vertices.

        Only hosted vertices are authoritative here: after migration an
        agent may retain persisted entries for vertices that moved away,
        and those must not shadow the new owner's values when the engine
        merges results.
        """
        if self.run is not None and self.run.table is not None and (
            self.run.program.name == program_name
        ):
            table = self.run.table
            return {int(v): float(x) for v, x in zip(table.ids, table.values)}
        hosted, _ = hosted_vertex_ids(
            self.shard,
            self.placer,
            self.dstate.split_vertices if self.dstate is not None else (),
            self.agent_id,
        )
        state = self.shard.programs.get(program_name, ProgramState())
        ids, vals = state.values.select(hosted)
        return {int(v): float(x) for v, x in zip(ids, vals)}

    @property
    def n_out_edges(self) -> int:
        """Resident out-copy edge count (derived from the store)."""
        return self.shard.out_store.n_edges

    @property
    def n_in_edges(self) -> int:
        """Resident in-copy edge count (derived from the store)."""
        return self.shard.in_store.n_edges

    @property
    def total_edges(self) -> int:
        """Resident edge copies (out + in)."""
        return self.n_out_edges + self.n_in_edges

    _DISPATCH = {
        **Participant._DISPATCH,
        PacketType.EDGE_UPDATE: (partial(_on_edge_update, count_in_sketch=True), False),
        PacketType.EDGE_MIGRATE: (partial(_on_edge_update, count_in_sketch=False), False),
        PacketType.EDGE_MIGRATE_ACK: (MigrationMixin._on_migrate_ack, False),
        PacketType.RUN_START: (RoundMixin._on_run_start, False),
        PacketType.SUPERSTEP_ADVANCE: (RoundMixin._on_advance, False),
        PacketType.VERTEX_MSG: (_on_round_packet, True),
        PacketType.REPLICA_SYNC: (_on_round_packet, True),
        PacketType.REPLICA_VALUE: (_on_round_packet, True),
        PacketType.VERTEX_MSG_ACK: (RoundMixin._on_data_ack, False),
        PacketType.RECOVER: (_on_recover, False),
        PacketType.CLIENT_QUERY: (_on_client_query, True),
    }
