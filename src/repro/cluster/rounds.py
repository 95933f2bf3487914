"""The Agent's barrier-round machine (§3.4, Figure 2).

A synchronous run is a sequence of *rounds*, each opened by the
directory (RUN_START, then one SUPERSTEP_ADVANCE per round) and closed
by this agent's AGENT_READY.  What a round does is a row of
:data:`PHASES`; :meth:`RoundMixin._begin_round` is the one body that
executes a row, and :meth:`RoundMixin._on_round_data` the one gate every
data-plane packet of a round passes.  Where a live run stands is one
field, ``run.status``, moved only along the rows of :data:`RUN_STATUS`.
Within a round:

1. apply the previous round's folded messages (non-split rows);
2. the replica round (:class:`~repro.cluster.replicas.ReplicaRound`) —
   replicas send partial aggregates to the primary, which applies and
   pushes the new value (and global out-degree) back;
3. scatter along the routing caches, coalesced into one packet per
   (destination, type) and gated on the choreography;
4. READY once every packet is acknowledged and every split value is in.

:class:`RoundMixin` is mixed into the Agent (it needs the entity:
``charge``, ``push``, timers); every ``kernel.schedule`` target is a
bound method of the Agent, so scheduled work is attributed to it.  The
state it runs on — :class:`~repro.cluster.vertextable._RunState`, its
replica round and :class:`~repro.cluster.shard.ShardState` — are plain
objects.
Asynchronous mode (monotone programs, no rounds) lives at the bottom.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, NamedTuple, Optional

import numpy as np

from repro import kernels
from repro.cluster.dataplane import combine_pairs, segments_by
from repro.cluster.edgestore import ValueColumn
from repro.cluster.leadstate import fold_stats
from repro.cluster.shard import ProgramState
from repro.cluster.vertextable import (
    _RunState,
    build_table,
    delta_seed_pairs,
    fixpoint_baseline,
    persist_table,
    scatter_segments,
)
from repro.graph.sortedids import members
from repro.net.message import PacketType

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.core.program import RunSpec


#: ``Phase.table`` values: build the vertex table from the program's
#: initial (or warm-start) state, or from what a suspension persisted.
FRESH, RESUMED = "fresh", "resumed"


class Phase(NamedTuple):
    """What one barrier round does."""

    #: Build the vertex table first (``FRESH`` / ``RESUMED``); ``None``
    #: keeps the live table.
    table: Optional[str] = None
    #: Fold the previous round's messages and apply them.
    applies: bool = False
    #: Active vertices send this round (split rows once their replica
    #: round lands).
    scatters: bool = False
    #: Emit a delta run's structural correction messages.
    seeds: bool = False
    #: The split choreography only establishes global degrees; values
    #: and activation were set at table build.
    degree_only: bool = False
    #: A coordinated value checkpoint may be taken at READY.
    checkpointable: bool = False
    #: READY persists the table and parks the run (scale drain).
    suspends: bool = False


#: Every round a directory can open.  The phase strings are on the wire
#: (SUPERSTEP_ADVANCE), in trace span names and in
#: ``RunResult.round_durations``; ``"halt"`` ends the run instead of
#: opening a round and has no row.
PHASES: Dict[str, Phase] = {
    "init": Phase(table=FRESH, scatters=True, degree_only=True),
    "delta_init": Phase(table=FRESH, scatters=True, seeds=True, degree_only=True),
    "resume": Phase(table=RESUMED, scatters=True, degree_only=True),
    "step": Phase(applies=True, scatters=True, checkpointable=True),
    "delta_step": Phase(applies=True, scatters=True, checkpointable=True),
    "apply_only": Phase(applies=True, suspends=True),
}

#: Where a live run stands -> the statuses it may move to.  A move
#: without a row raises; a run ends (halt or restart) by being dropped.
#:
#: * ``waiting`` — no round body has run since the run was created or a
#:   crash rollback rewound the program half: no READY is outstanding,
#:   and data for every round is held.
#: * ``open`` — the round body ran; acks, replica partials and values
#:   are being collected.
#: * ``ready`` — READY sent; the next ADVANCE opens the next round.
#: * ``parked`` — an ``apply_only`` READY persisted the table so
#:   placement may move.  The lead holds that READY, so a term bump
#:   re-sends it.
#: * ``async`` — no rounds, no READY, no heartbeats.
RUN_STATUS: Dict[str, FrozenSet[str]] = {
    "waiting": frozenset({"open"}),
    "open": frozenset({"ready", "parked", "waiting"}),
    "ready": frozenset({"open", "waiting"}),
    "parked": frozenset({"open", "waiting"}),
    "async": frozenset(),
}


class RoundMixin:
    """Run lifecycle of an Agent: rounds, choreography, barrier."""

    # ------------------------------------------------------------------
    # run lifecycle: opening a run, opening a round
    # ------------------------------------------------------------------

    def _run_to(self, status: str) -> None:
        """Move ``run.status`` along one row of :data:`RUN_STATUS`."""
        run = self.run
        if status not in RUN_STATUS[run.status]:
            raise RuntimeError(f"agent {self.agent_id} run cannot go {run.status} -> {status}")
        run.status = status

    def _holds_graph(self) -> bool:
        """Whether a live round or an async run pins the graph: edge
        changes wait and placement must not move."""
        return self.run is not None and self.run.status in ("open", "ready", "async")

    def _on_run_start(self, spec: "RunSpec") -> None:
        if self.run is not None and self.run.spec.run_id == spec.run_id:
            return  # duplicated RUN_START broadcast; the run is live
        run = self.run = _RunState(spec)
        if run.status == "async":
            self._build_table(run, resume=False)
            self._async_drive(self._async_scatter(np.flatnonzero(run.table.active)))
            return
        self._begin_round(run, run.phase, 0, 0)

    def _on_advance(self, payload: dict) -> None:
        run = self.run
        phase = payload["phase"]
        row = PHASES.get(phase)
        resumes = row is not None and row.table == RESUMED
        if run is None and resumes and "spec" in payload:
            # This agent joined during the suspension; bootstrap the run
            # from the spec the resume broadcast carries.
            run = self.run = _RunState(payload["spec"])
        if run is None or payload.get("run_id") != run.spec.run_id:
            return
        tracer = self.network.tracer
        if tracer is not None and self._trace_wait_from is not None:
            # The barrier released: close the wait span opened when this
            # agent reported READY (tagged with the round now starting).
            tracer.complete(
                self.name,
                "barrier_wait",
                "barrier",
                self._trace_wait_from,
                self.now,
                {
                    "round": int(payload.get("round", -1)),
                    "step": int(payload.get("step", -1)),
                    "phase": phase,
                },
            )
            self._trace_wait_from = None
        if phase == "halt":
            self.finalize_run(persist=True)
            return
        if run.status in ("parked", "waiting") and not resumes:
            # Parked (scale drain) or waiting (crash rollback): only a
            # resume re-opens the run.  A straggling pre-crash step
            # ADVANCE (reliable-transport retransmit) must not reanimate it.
            return
        if run.status != "waiting" and int(payload["round"]) <= run.round:
            return  # duplicated or stale ADVANCE; this round already ran
        self._begin_round(run, phase, int(payload["round"]), int(payload["step"]))

    def _begin_round(self, run: _RunState, phase: str, round_id: int, step: int) -> None:
        """Execute one row of :data:`PHASES`, then try to report READY."""
        row = PHASES.get(phase)
        if row is None:
            raise ValueError(f"unknown advance phase {phase!r}")
        run.round = round_id
        run.step = step
        run.phase = phase
        run.round_stats = {}
        tracer = self.network.tracer
        trace_from = self.available_at() if tracer is not None else 0.0
        if row.table is not None:
            self._heartbeat.arm()
            self._build_table(run, resume=row.table == RESUMED)
        table = run.table
        if row.applies:
            # Fold the previous round's buffered messages into the
            # accumulators (canonical order) before applying them.
            self._flush_pending_msgs()
            self._apply_phase()
        # Split partials must be snapshotted before scatter refills
        # the accumulators with this round's local messages.
        self._split_round_begin()
        if row.scatters:
            if run.delta_msgs and self.config.checkpoint_every > 0 and table.last_sent is not None:
                # Stash the pre-scatter residual baselines so a
                # coordinated checkpoint can record baselines that still
                # precede this round's sends — see
                # ``prescatter_last_sent``.  Skipped when checkpointing
                # is off: nothing would consume it.
                run.prescatter_last_sent = table.last_sent.copy()
            # Split vertices always wait for the replica round, so only
            # active non-split rows go now.
            self._scatter_positions(np.flatnonzero(table.active & (table.split_k == 1)))
        if row.seeds:
            self._emit_delta_seeds(run)
        self._run_to("open")
        # Replay the data the gate held for this round.
        for ptype, data_payload in self._early_data.pop(run.round, []):
            self._ROUND_INGEST[ptype](self, data_payload)
        if tracer is not None:
            tracer.complete(
                self.name,
                f"superstep:{phase}",
                "compute",
                trace_from,
                self.available_at(),
                {
                    "round": run.round,
                    "step": run.step,
                    "phase": phase,
                    "run_id": run.spec.run_id,
                    "frontier": int(table.active.sum()),
                },
            )
        self._check_ready()

    def _build_table(self, run: _RunState, resume: bool) -> None:
        lookups = build_table(
            run, self.shard, self.placer, self.dstate.split_vertices, self.agent_id, resume
        )
        self.charge(self.config.costs.elga_vertex_op * len(run.table))
        if not run.is_delta:
            # A delta run defers the routing charge per source vertex
            # until it first scatters (see _scatter_positions).
            for misses, hits in lookups:
                self._charge_lookups(misses, hits)

    def _emit_delta_seeds(self, run: _RunState) -> None:
        seeds = delta_seed_pairs(run, self.shard)
        if seeds is None:
            return
        src, dst, val = seeds
        costs = self.config.costs
        owners = self.placer.owner_of_edges(dst, src)
        self._charge_lookups(self.placer.last_misses, self.placer.last_hits)
        order, segments = segments_by(owners)
        for owner, start, end in segments:
            rows = order[start:end]
            self.charge(len(rows) * costs.elga_edge_op)
            self.perf.add("edges_processed", len(rows))
            run.buffers.add(owner, PacketType.VERTEX_MSG, {"dst": dst[rows], "val": val[rows]})

    # ------------------------------------------------------------------
    # apply
    # ------------------------------------------------------------------

    def _apply_phase(self) -> None:
        """Apply the previous superstep's aggregates (non-split rows).

        Delta runs only touch the frontier — rows that received a
        message or were active; everything else keeps its fixpoint value
        and costs nothing, which is where the incremental speedup over a
        full recompute comes from."""
        run = self.run
        table = run.table
        costs = self.config.costs
        if len(table) == 0:
            return
        normal = table.split_k == 1
        mask = normal & (table.got | table.active) if run.is_delta else normal
        if mask.any():
            old, new, active = self._apply_rows(
                mask, table.ids[mask], table.accum[mask], table.got[mask]
            )
            self.charge(costs.elga_vertex_op * int(mask.sum()))
            fold_stats(run.round_stats, run.step_stats(old, new, active))
        table.accum[normal] = run.program.identity
        table.got[normal] = False
        # Split rows are applied by their primaries once partials arrive.

    def _apply_rows(self, at, ids: np.ndarray, accum: np.ndarray, got: np.ndarray):
        """Run the program's apply over the table rows ``at`` (a mask or
        positions); returns their (old, new, active)."""
        run = self.run
        table = run.table
        old = table.values[at]
        # Programs that need per-row identity (e.g. personalized
        # PageRank's teleport vector) read it from the context.
        run.ctx["_vertex_ids"] = ids
        new, active = run.apply(old, accum, got, run.ctx)
        table.values[at] = new
        table.active[at] = active
        return old, new, active

    # ------------------------------------------------------------------
    # split-vertex choreography
    # ------------------------------------------------------------------

    def _split_round_begin(self) -> None:
        """Start this round's replica round (§3.4): non-primary replicas
        send their partials to the primary; a primary that expects no
        remote partial applies at once (:meth:`_maybe_apply_split`)."""
        run = self.run
        for primary, payload in run.replicas.begin(run.table, run.program.identity):
            run.buffers.add(primary, PacketType.REPLICA_SYNC, payload)
            self.perf.add("replica_syncs")
        self._maybe_apply_split()

    def _ingest_replica_sync(self, payload: dict) -> None:
        self.run.replicas.receive(payload)
        self._maybe_apply_split()

    def _maybe_apply_split(self) -> None:
        """Primary side: apply any split vertex whose partials are all in,
        then push the new value (and degree total) to the replicas."""
        run = self.run
        folded = run.replicas.fold_ready(run.program.ufunc, run.program.identity)
        if folded is None:
            return
        rverts, agg, got, outdeg = folded
        table = run.table
        row = PHASES[run.phase]
        tpos = table.pos(rverts)
        table.out_deg_total[tpos] = outdeg
        # A split row's residual baseline waits for its global degree;
        # establish it now from the pre-apply value.
        self._establish_baselines(tpos, outdeg)
        if row.degree_only:
            new_vals = table.values[tpos].copy()
            act = table.active[tpos].copy()
        else:
            old, new_vals, act = self._apply_rows(tpos, rverts, agg, got)
            run.replicas.applied(rverts, old, new_vals, act)
        # Do NOT reset accum/got here: they already hold this round's
        # incoming messages (the snapshot was taken at round begin).
        for replica, payload in run.replicas.value_pushes(rverts, new_vals, act, outdeg):
            run.buffers.add(replica, PacketType.REPLICA_VALUE, payload)
        if row.scatters:
            self._scatter_positions(tpos)

    def _establish_baselines(self, pos: np.ndarray, outdeg: np.ndarray) -> None:
        """Delta-message runs: give the split rows at ``pos`` that have
        no residual baseline yet the fixpoint one — their current
        (pre-apply) value scattered over the global ``outdeg``."""
        run = self.run
        table = run.table
        if not run.delta_msgs or table.last_sent is None:
            return
        nan = np.isnan(table.last_sent[pos])
        if nan.any():
            p = pos[nan]
            table.last_sent[p] = fixpoint_baseline(run.program, table.values[p], outdeg[nan])

    def _ingest_replica_value(self, payload: dict) -> None:
        run = self.run
        table = run.table
        pos = table.pos(np.asarray(payload["verts"], dtype=np.int64))
        # Replica-side baseline: first push carries the vertex's
        # pre-run value and global degree — the fixpoint baseline.
        self._establish_baselines(pos, np.asarray(payload["outdeg"], dtype=np.float64))
        table.values[pos] = payload["values"]
        table.active[pos] = payload["active"]
        table.out_deg_total[pos] = payload["outdeg"]
        run.replicas.values_in(payload["verts"])
        if PHASES[run.phase].scatters:
            self._scatter_positions(pos)

    # ------------------------------------------------------------------
    # scatter
    # ------------------------------------------------------------------

    def _scatter_positions(self, positions: np.ndarray) -> None:
        """Send this round's messages for the given table rows."""
        run = self.run
        table = run.table
        if len(positions) == 0:
            return
        program = run.program
        costs = self.config.costs
        active_rows = positions[table.active[positions]]
        if len(active_rows) == 0:
            return
        rows = active_rows
        values = program.scatter_values(table.values[rows], table.out_deg_total[rows])
        if run.delta_msgs:
            # Residual scatter: emit only the change since the last
            # send, then advance the baseline.  Rows whose steady value
            # did not move send nothing at all — the wire traffic of a
            # delta round tracks true residuals, not frontier size.
            last = table.last_sent[rows]
            deltas = values - np.where(np.isnan(last), values, last)
            moved = deltas != 0.0
            rows = rows[moved]
            table.last_sent[rows] = values[moved]
            values = deltas[moved]
        full, cached = self._lookup_rates()
        if run.routing_uncharged is not None:
            # Deferred placement resolution: rows scattering for the
            # first time this run pay the full (uncached) lookup rate
            # for their local edges; every send below adds the cached
            # probe, so only the difference is owed here.
            owed = float(run.routing_uncharged[rows].sum())
            if owed:
                self.charge(owed * (full - cached))
                run.routing_uncharged[rows] = 0.0
        # Routing was resolved (and charged) once at table build; the
        # per-superstep re-resolution is a placement-cache probe and is
        # charged at the reduced cached rate.
        for agent_id, count, dst, val in scatter_segments(run, rows, values):
            # Per-edge work: hash-map access + lookup + buffer write.
            self.charge(count * (costs.elga_edge_op + cached))
            self.perf.add("edges_processed", count)
            self.perf.add("dataplane_pairs_emitted", count)
            run.buffers.add(agent_id, PacketType.VERTEX_MSG, {"dst": dst, "val": val})
        self.charge(costs.elga_vertex_op * len(active_rows))

    # ------------------------------------------------------------------
    # receive gate and message aggregation
    # ------------------------------------------------------------------

    def _on_round_data(self, ptype: PacketType, payload: dict, src: int) -> None:
        """The one gate every VERTEX_MSG / REPLICA_SYNC / REPLICA_VALUE
        passes: fence, hold what is early, ingest what is due, ack."""
        if int(payload.get("inc", 0)) < self._data_inc:
            # Fencing: data stamped with a pre-recovery incarnation is a
            # straggler from a rolled-back superstep — drop it silently
            # (its sender's ack accounting was reset by the rollback).
            return
        run = self.run
        if run is not None and run.status == "async":
            self._async_drive(self._async_relax(payload))
            return
        if run is None or run.status == "waiting" or payload["round"] != run.round:
            # "If it is for an iteration in the future, the packet is
            # stored until the computation can catch up."  So is data
            # that beat the run bootstrap (a delayed RUN_START, or the
            # resume broadcast that starts the run on an agent that
            # joined mid-suspension) or the resume after a rollback.
            self._early_data.setdefault(payload["round"], []).append((ptype, payload))
            self._ack_data(src, payload)
            return
        if ptype == PacketType.VERTEX_MSG:
            self.charge(self.config.costs.elga_msg_op)
        self._ROUND_INGEST[ptype](self, payload)
        self._ack_data(src, payload)
        self._check_ready()

    def _aggregate(self, payload: dict) -> None:
        """Buffer one message batch for this round.

        A batch is exactly one sender's full round emission, already
        reduced by its sender to level 1 of the canonical reduction
        (:meth:`_combine`): one partial per destination vertex, so peak
        buffer memory is O(unique dst) instead of O(pairs), and the
        accumulator floats are the same whether the fabric delivered in
        order, out of order, or via chaos-delayed retries.
        """
        dst = np.asarray(payload["dst"], dtype=np.int64)
        val = np.asarray(payload["val"], dtype=np.float64)
        self.charge(self.config.costs.elga_vertex_op * len(dst))
        self.run.pending_msgs.append((dst, val))

    #: The data-plane packet types of a round -> ingest of one due
    #: payload.
    _ROUND_INGEST = {
        PacketType.VERTEX_MSG: _aggregate,
        PacketType.REPLICA_SYNC: _ingest_replica_sync,
        PacketType.REPLICA_VALUE: _ingest_replica_value,
    }

    def _flush_pending_msgs(self) -> None:
        """Fold the buffered round's batches into the accumulators in
        canonical (dst, value) order — a deterministic reduction of the
        buffered per-sender partials."""
        run = self.run
        if not run.pending_msgs:
            return
        table = run.table
        batches, run.pending_msgs = run.pending_msgs, []
        dst = np.concatenate([b[0] for b in batches])
        val = np.concatenate([b[1] for b in batches])
        if run.is_delta and len(dst):
            # Structural seeds may target vertices the mutation batch
            # left unhosted here (a deletion removed their last edge);
            # they have no row to apply to and no influence to retract.
            hosted = members(table.ids, dst)
            if not hosted.all():
                dst, val = dst[hosted], val[hosted]
        if not len(dst):
            return
        kernels.fold_pairs(table.accum, table.got, table.ids, dst, val, run.program.ufunc)

    # ------------------------------------------------------------------
    # barrier (Figure 2)
    # ------------------------------------------------------------------

    def _flush_data_buffers(self) -> None:
        """Ship this round's coalesced packets, gated on choreography.

        REPLICA_SYNC flushes unconditionally (it *unblocks* primaries).
        REPLICA_VALUE waits until this primary has applied every split
        vertex (no partial due) so one packet per replica carries the
        whole round.  VERTEX_MSG additionally waits for every replica
        value due here: only then can no further scatter happen
        this round, making each packet's contents exactly "everything
        this sender produced for that destination this round" — the
        canonical batch boundary the two-level reduction relies on.
        The gates introduce no deadlock: sync/value choreography never
        depends on VERTEX_MSG delivery within a round.
        """
        run = self.run
        if run is None or run.buffers.empty:
            return
        tracer = self.network.tracer
        trace_from = self.available_at() if tracer is not None else 0.0
        sent_before = self.perf.counts["messages_sent"]
        self._ship_round_packets(run)
        shipped = self.perf.counts["messages_sent"] - sent_before
        if tracer is not None and shipped:
            tracer.complete(
                self.name,
                "flush",
                "comms",
                trace_from,
                self.available_at(),
                {"round": run.round, "step": run.step, "packets": shipped},
            )

    def _ship_round_packets(self, run: _RunState) -> None:
        buffers = run.buffers
        for agent_id, n_emits, payload in buffers.drain_replica(
            PacketType.REPLICA_SYNC, run.step, run.round
        ):
            self.perf.add("packets_coalesced", n_emits - 1)
            self._send_data(agent_id, PacketType.REPLICA_SYNC, payload)
        if run.replicas.expected_syncs:
            return
        for agent_id, n_emits, payload in buffers.drain_replica(
            PacketType.REPLICA_VALUE, run.step, run.round
        ):
            self.perf.add("packets_coalesced", n_emits - 1)
            self._send_data(agent_id, PacketType.REPLICA_VALUE, payload)
        if run.replicas.expected_values or not buffers.pending(PacketType.VERTEX_MSG):
            return
        for agent_id, n_emits, payload in buffers.drain_vertex_msgs(run.step, run.round):
            self.perf.add("packets_coalesced", n_emits - 1)
            self._combine(run.program, payload)
            if agent_id == self.agent_id:
                self._aggregate(payload)
            else:
                self._send_data(agent_id, PacketType.VERTEX_MSG, payload)

    def _combine(self, program, payload: dict) -> None:
        """Sender-side combining (§3.4: aggregators are commutative and
        associative precisely so replicas can pre-aggregate): fold a
        coalesced VERTEX_MSG packet to one partial per destination in
        (dst, val)-sorted order via ``combine_pairs`` before it ships."""
        pairs_in = len(payload["dst"])
        payload["dst"], payload["val"] = combine_pairs(
            payload["dst"], payload["val"], program.ufunc, program.identity
        )
        self.charge(self.config.costs.combine_cost(pairs_in))
        self.perf.add("combine_pairs_in", pairs_in)
        self.perf.add("combine_pairs_out", len(payload["dst"]))
        self.perf.add("pairs_combined", pairs_in - len(payload["dst"]))

    def _send_data(self, agent_id: int, ptype: PacketType, payload: dict) -> None:
        payload["inc"] = self._data_inc
        self.run.outstanding_acks += 1
        self.perf.add("messages_sent")
        self.push.push(self._agent_address(agent_id), ptype, payload)

    def _on_data_ack(self, payload: dict) -> None:
        run = self.run
        if run is None:
            return
        if int(payload["inc"]) != self._data_inc:
            return  # ack for a send the rollback already wrote off
        run.outstanding_acks -= int(payload["count"])
        self._check_ready()

    def _check_ready(self) -> None:
        run = self.run
        if run is None or run.status != "open":
            return
        self._flush_data_buffers()
        replicas = run.replicas
        if run.outstanding_acks > 0 or replicas.expected_syncs or replicas.expected_values:
            return
        self.perf.add("supersteps")
        stats = dict(run.round_stats)
        split = replicas.applied_rows()
        if split is not None:
            fold_stats(stats, run.step_stats(*split))
        # Area under the frontier curve: how many locally-hosted vertices
        # end this round active (collapses fast in a converging delta
        # run; ~|V| every round in a scratch run).
        self.perf.add("frontier_size", int(run.table.active.sum()))
        # The local state for this round is complete right here (all
        # messages folded, all replica values applied): publish it as
        # the snapshot client queries read until the next READY.
        self._publish_serving_view(run)
        run.last_ready = {
            "agent_id": self.agent_id,
            "round": run.round,
            "step": run.step,
            "stats": stats,
        }
        row = PHASES[run.phase]
        self._run_to("parked" if row.suspends else "ready")
        self._report_ready()
        if self.network.tracer is not None:
            # Quiet from the moment the READY can depart until the next
            # ADVANCE arrives: that interval is the barrier-wait span.
            self._trace_wait_from = self.available_at()
        if (
            row.checkpointable
            and self.config.checkpoint_every > 0
            and run.step >= 1
            and run.step % self.config.checkpoint_every == 0
        ):
            self._take_value_checkpoint(run)
        if row.suspends:
            # Park the run so directory updates / migration can proceed.
            self._persist_table()
            run.table = None
            self._adopt_pending()

    def _report_ready(self) -> None:
        """Send (or, after a lead election or a re-home, re-send) the
        last READY report, verbatim, if this agent is waiting on it."""
        run = self.run
        if run is not None and run.status in ("ready", "parked"):
            self.push.push(self.directory_address, PacketType.AGENT_READY, dict(run.last_ready))

    def _end_run(self) -> None:
        """Drop the run and the round data held for it; placement may
        move."""
        self.run = None
        self._early_data = {}
        self._adopt_pending()

    def _adopt_pending(self) -> None:
        """No round is in flight any more: placement may move."""
        if self._pending_state is not None:
            self._adopt(self._pending_state)

    # ------------------------------------------------------------------
    # persisting a table, ending a run
    # ------------------------------------------------------------------

    def _persist_table(self) -> None:
        run = self.run
        table = run.table
        if table is None:
            return
        state = self.shard.programs.setdefault(run.program.name, ProgramState())
        persist_table(table, state, table.last_sent if run.delta_msgs else None)
        if run.program.delta_messages and (not run.delta_msgs or table.last_sent is None):
            # A full (scratch or dense) run re-converges every vertex:
            # baselines recorded by an earlier delta run no longer
            # describe what receivers hold, and the steady-state
            # reconstruction from the fresh fixpoint is the truth.
            state.scatter = ValueColumn()

    def finalize_run(self, persist: bool) -> None:
        run = self.run
        if run is None:
            return
        if persist and run.table is not None:
            self._persist_table()
        # The run is over: the persistent store (just persisted, or
        # already persisted by a suspend) is the serving truth, tagged
        # with where the run ended.  Drop the live view so queries and
        # later ingest both read one place.
        self._serving.pop(run.program.name, None)
        if persist:
            self._serving_final[run.program.name] = (run.spec.run_id, run.step)
            # Advance the program's watermark *before* the halt
            # checkpoint so a restore cannot re-seed an already-converged
            # run.
            self.shard.consumed(run.program.name)
            # Halt checkpoint: the post-run state becomes the durable
            # restore base (and truncates the WAL).
            self._recovery_store.snapshot_agent(self)
            self.perf.add("checkpoints_taken")
        self._end_run()
        buffered, self._buffered_updates = self._buffered_updates, []
        for payload in buffered:
            self._apply_edge_update(payload, count_in_sketch=True)

    # ------------------------------------------------------------------
    # asynchronous mode (monotone programs)
    # ------------------------------------------------------------------

    def _async_drive(self, sends: Iterator[tuple]) -> None:
        """Send the ``(agent, dst, val)`` vertex messages ``sends``
        yields.  One to this agent itself is relaxed at once, depth first
        (the order a recursion would take), from an explicit stack: a
        chain of local hops as long as the graph grows no Python frame."""
        stack = [sends]
        while stack:
            send = next(stack[-1], None)
            if send is None:
                stack.pop()
                continue
            agent_id, dst, val = send
            payload = {"step": 0, "round": 0, "inc": self._data_inc, "dst": dst, "val": val}
            if agent_id == self.agent_id:
                stack.append(self._async_relax(payload))
            else:
                self.push.push(self._agent_address(agent_id), PacketType.VERTEX_MSG, payload)

    def _async_relax(self, payload: dict) -> Iterator[tuple]:
        """Asynchronous processing: relax on arrival, re-scatter changes.

        Only monotone (min/max) programs run here, so ordering does not
        affect the fixed point; termination is quiescence, detected by
        the engine as simulator idleness.
        """
        run = self.run
        table = run.table
        self.charge(self.config.costs.elga_msg_op)
        pos = table.pos(np.asarray(payload["dst"], dtype=np.int64))
        proposed = table.values.copy()
        run.program.ufunc.at(proposed, pos, payload["val"])
        maximizes = run.program.aggregator == "max"
        changed = np.flatnonzero(proposed > table.values if maximizes else proposed < table.values)
        self.charge(self.config.costs.elga_vertex_op * len(pos))
        if len(changed) == 0:
            return
        table.values[changed] = proposed[changed]
        table.active[changed] = True
        yield from self._async_gossip_split(changed)
        yield from self._async_scatter(changed)

    def _async_gossip_split(self, positions: np.ndarray) -> Iterator[tuple]:
        """Propagate improved split-vertex values to sibling replicas.

        Asynchronous mode has no barrier to hang a replica-sync round
        on; instead, monotone improvements to a split vertex gossip to
        the other replicas as plain vertex messages ("v's value is at
        most x"), which min-apply and re-scatter.  Monotonicity makes
        this convergent and order-insensitive.
        """
        run = self.run
        table = run.table
        my_split = run.replicas.my_split
        if not my_split:
            return
        for p in positions:
            v = int(table.ids[p])
            for replica in my_split.get(v, ()):
                if replica == self.agent_id:
                    continue
                self.perf.add("replica_syncs")
                yield replica, np.array([v], dtype=np.int64), np.array([float(table.values[p])])

    def _async_scatter(self, positions: np.ndarray) -> Iterator[tuple]:
        run = self.run
        table = run.table
        if len(positions) == 0:
            return
        values = run.program.scatter_values(
            table.values[positions], np.maximum(table.out_deg_total[positions], 1.0)
        )
        for agent_id, count, dst, val in scatter_segments(run, positions, values):
            self.charge(count * self.config.costs.elga_edge_op)
            self.perf.add("edges_processed", count)
            if agent_id != self.agent_id:
                self.perf.add("messages_sent")
            yield agent_id, dst, val
