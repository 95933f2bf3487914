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
* **Future iterations** — messages for a future superstep are buffered
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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import kernels
from repro.cluster.config import ClusterConfig
from repro.cluster.dataplane import ACK_BATCH_WINDOW, RoundBuffers, combine_pairs
from repro.cluster.directory import DirectoryState, bind_placement
from repro.cluster.edgestore import DirtyLog, EdgeStore, IdSet, ValueColumn
from repro.cluster.metrics import AgentMetrics
from repro.cluster.recovery import (
    Checkpoint,
    RecoveryStore,
    Rows,
    StatePairs,
    copy_active,
    copy_values,
)
from repro.cluster.rehome import RehomeMixin
from repro.net.message import Message, PacketType

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.core.program import RunSpec
from repro.bench.counters import PerfCounters
from repro.net.sockets import PushSocket
from repro.partition.cache import PlacementCache
from repro.partition.placer import EdgePlacer
from repro.hashing.ring import ConsistentHashRing
from repro.sim.entity import Entity
from repro.sketch.countmin import CountMinSketch


class _VertexTable:
    """Vectorized per-run vertex state for one Agent's shard."""

    def __init__(self, ids: np.ndarray):
        n = len(ids)
        self.ids = ids  # sorted int64
        self.values = np.zeros(n)
        self.accum = np.zeros(n)
        self.got = np.zeros(n, dtype=bool)
        self.active = np.zeros(n, dtype=bool)
        # Local out-degree (this shard's out-copies) is immutable per
        # run; the *total* is what primaries establish by summing the
        # replicas' locals and push back with each replica round.
        self.out_deg_local = np.zeros(n)
        self.out_deg_total = np.zeros(n)
        self.split_k = np.ones(n, dtype=np.int64)
        self.is_primary = np.ones(n, dtype=bool)
        # Delta-message runs only: the per-edge value each vertex last
        # scattered (NaN until established — split rows learn their
        # global degree, and hence their baseline, in the init round).
        self.last_sent: Optional[np.ndarray] = None

    def pos(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Positions of (present) vertex ids in the table."""
        p = np.searchsorted(self.ids, vertex_ids)
        if len(vertex_ids) and (
            p.max(initial=0) >= len(self.ids) or not np.array_equal(self.ids[p], vertex_ids)
        ):
            missing = np.asarray(vertex_ids)[
                (p >= len(self.ids)) | (self.ids[np.minimum(p, len(self.ids) - 1)] != vertex_ids)
            ]
            raise KeyError(f"vertices not hosted here: {missing[:5]}...")
        return p

    def __len__(self) -> int:
        return len(self.ids)


class _RunState:
    """Per-run bookkeeping (one algorithm execution)."""

    def __init__(self, spec: "RunSpec"):
        self.spec = spec
        self.program = spec.program
        self.ctx = {"global_n": spec.global_n}
        self.table: Optional[_VertexTable] = None
        self.suspended = False
        # Delta runs: only the frontier applies/scatters, and (for
        # delta-message programs) scatter carries residuals.
        self.is_delta = getattr(spec, "strategy", "scratch") == "delta"
        self.delta_msgs = self.is_delta and getattr(spec.program, "delta_messages", False)
        # Pending dirty rows by store role, stashed at table build for
        # round-0 seed emission and baseline reconstruction.
        self.delta_pending: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Lazy routing (delta runs): per-table-row count of local edges
        # whose placement resolution has not been charged yet; paid the
        # first time the row scatters.  None for from-scratch runs.
        self.routing_uncharged: Optional[np.ndarray] = None
        # Residual baselines as they stood when this round began, i.e.
        # before this round's scatter advanced them.  A mid-run
        # checkpoint must capture *these*: a rollback loses the round's
        # in-flight messages, and the resume re-scatter can only
        # regenerate them if the restored baseline still precedes them
        # (absolute-message runs resend values and don't care).  Only
        # maintained while checkpointing is on.
        self.prescatter_last_sent: Optional[np.ndarray] = None
        # Edge routing caches (built with the table).
        self.out_src_pos = np.empty(0, np.int64)
        self.out_dst_raw = np.empty(0, np.int64)
        self.out_segments: List[Tuple[int, int, int]] = []
        self.in_src_pos = np.empty(0, np.int64)
        self.in_dst_raw = np.empty(0, np.int64)
        self.in_segments: List[Tuple[int, int, int]] = []
        # Split-vertex choreography.
        self.my_split: Dict[int, List[int]] = {}  # vertex -> replica list
        # Per-round state.
        self.round = -1
        self.step = 0
        self.phase = "delta_init" if self.is_delta else "init"
        self.outstanding_acks = 0
        self.expected_syncs: Dict[int, int] = {}
        # Replica-sync partials, buffered as parallel arrays per batch
        # (verts, partials, got, outdeg); ``_maybe_apply_split`` folds
        # a vertex's rows in canonical sorted order once all of them
        # are in, so arrival order never shapes the reduction.
        self.sync_buf: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self.expected_values: Set[int] = set()
        self.initial_work_done = False
        self.ready_sent = False
        # The exact AGENT_READY payload last sent, re-sent verbatim when
        # a lead election bumps the control term: the successor rebuilds
        # its READY buckets from these re-reports, and a verbatim copy
        # keeps the merged barrier stats bit-identical.
        self.last_ready: Optional[dict] = None
        self.round_stats: Dict[str, float] = {}
        # Split-vertex (old, new, active) per applied vertex; step
        # stats for them are computed once at READY time over the
        # vertex-sorted arrays — partial-arrival order must not leak
        # into float sums.
        self.split_applied: Dict[int, Tuple[float, float, bool]] = {}
        self.future_buffer: Dict[int, List[dict]] = {}  # step -> payloads
        # This round's incoming (dst, val) message batches.  They are
        # buffered, not applied on arrival: at the next ADVANCE the
        # batches are concatenated, sorted canonically, and folded into
        # the accumulators — so the aggregate is a pure function of the
        # message *multiset*, independent of delivery order.  Each
        # batch holds one partial per destination vertex (level 1 of
        # the canonical reduction), so peak buffer memory is O(unique
        # dst) rather than O(pairs).
        self.pending_msgs: List[Tuple[np.ndarray, np.ndarray]] = []
        # Outgoing data-plane emissions of the current round, merged
        # into one struct-of-arrays packet per (destination, type) at
        # flush time (see Agent._flush_data_buffers).
        self.buffers = RoundBuffers()


class Agent(RehomeMixin, Entity):
    """One ElGA Agent (one per core in the paper's deployment).

    Created by :class:`~repro.cluster.cluster.ElGACluster`; joins the
    system by subscribing to its Directory and announcing itself, after
    which the directory broadcast brings it the global state it needs.
    """

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
        super().__init__(network, f"agent-{agent_id}", config.seed)
        self.config = config
        self.agent_id = agent_id
        self.node = node
        # Capacity weight (§3.4.2 heterogeneous extension): scales this
        # agent's virtual-position count on every participant's ring.
        self.weight = float(weight)
        self.directory_address = directory_address
        # Control-plane fault tolerance: the highest directory term seen
        # (stale-term control traffic is fenced out below it), and the
        # master endpoint used to re-home when this agent's directory
        # dies (heartbeat ticks probe the endpoint and re-query).
        self.term = 0
        self._init_rehome(master_address)
        self.push = PushSocket(self)
        self.metrics = AgentMetrics()
        self.perf = PerfCounters()

        # Edge stores: out-copy (keyed by source) and in-copy (keyed by
        # destination) adjacency, as lexsorted parallel arrays — the
        # paper's "flat hash maps with vectors", but array-native so
        # batch ingest, migration scans, and table builds vectorize.
        self.out_store = EdgeStore()
        self.in_store = EdgeStore()

        # Algorithm state persisted across runs (locally persistent
        # model): program name -> id-indexed value/activation columns.
        self.persistent: Dict[str, ValueColumn] = {}
        self.persistent_active: Dict[str, IdSet] = {}
        # Delta-message programs additionally persist each vertex's
        # last-sent scatter value: a suspended delta run must resume
        # with the exact baseline, or unsent residuals are lost.
        self.persistent_scatter: Dict[str, ValueColumn] = {}
        # Dirty mutation rows applied since each program last consumed
        # them — the activation seed of a delta run.  Array batches of
        # (role, keys, others, actions) with per-program row watermarks;
        # ``finalize_run(persist=True)`` advances the finished program's
        # watermark and trims the prefix every known program consumed.
        self._dirty_log = DirtyLog()
        self._dirty_seen: Dict[str, int] = {}

        # Directory view.  ``placer`` is the persistent PlacementCache,
        # rebound to a fresh EdgePlacer on every adopted broadcast; its
        # memos (and ``ring``) survive broadcasts that leave the tokens
        # they depend on unchanged.
        self.dstate: Optional[DirectoryState] = None
        self.ring: Optional[ConsistentHashRing] = None
        self.placer: Optional[PlacementCache] = None
        self._placement_cache = PlacementCache(counters=self.perf)
        self._pending_state: Optional[DirectoryState] = None

        # Dynamic-update plumbing.
        self.sketch_delta = CountMinSketch(
            config.sketch_width, config.sketch_depth, seed=config.seed
        )
        self._delta_count = 0
        self._reported_split: Set[int] = set()
        self._buffered_updates: List[dict] = []
        self._pre_state_buffer: List[Tuple[dict, bool]] = []
        self._pre_run_data: List[Tuple[str, dict, int]] = []

        # Elasticity.
        self.leaving = False
        self._migration_acks_pending = 0
        # Outbound migration ledger: token -> (role, keys, others) for
        # batches removed from our stores but not yet acked by the
        # receiving hop.  The WAL removal is logged only on ack: until
        # the rows are durably *somewhere else*, a replacement must
        # restore them from its checkpoint + WAL and re-ship under the
        # current directory (receiver application is idempotent).
        # Logging the removal at send time lost edges when this agent
        # crashed abruptly with the EDGE_MIGRATE still in flight.
        self._pending_migrations: Dict[int, Tuple[str, np.ndarray, np.ndarray]] = {}
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
        self.crashed = False
        self._heartbeat_pending = False
        self._recover_epoch = incarnation
        self._data_inc = incarnation
        # Tracing: when this agent last went quiet waiting on a barrier
        # (READY sent); the next ADVANCE closes the wait span.
        self._trace_wait_from: Optional[float] = None
        self.restored_from: Optional[dict] = None
        if recover_from is not None:
            self._restore_from_crash(recover_from, restore_checkpoint)

        self._subscribe_and_join()

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    def _subscribe_and_join(self) -> None:
        self.push.push(
            self.directory_address,
            PacketType.SUBSCRIBE,
            [
                PacketType.DIRECTORY_UPDATE,
                PacketType.SUPERSTEP_ADVANCE,
                PacketType.RUN_START,
                PacketType.RECOVER,
            ],
        )
        self.push.push(
            self.directory_address,
            PacketType.AGENT_JOIN,
            {
                "agent_id": self.agent_id,
                "address": self.address,
                "node": self.node,
                "weight": self.weight,
            },
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        # Term fence: control traffic from a deposed lead must not be
        # acted on (the control-plane analogue of incarnation fencing).
        term = message.term
        bumped = False
        if term is not None:
            if term < self.term:
                self.network.stats.stale_term_drops += 1
                return
            bumped = term > self.term
            self.term = term
        self._dispatch(message)
        if bumped:
            self._on_term_bump()

    def _dispatch(self, message: Message) -> None:
        ptype = message.ptype
        if ptype == PacketType.DIRECTORY_UPDATE:
            self._on_directory_update(message.payload)
        elif ptype == PacketType.EDGE_UPDATE:
            self._on_edge_update(message.payload, count_in_sketch=True)
        elif ptype == PacketType.EDGE_MIGRATE:
            self._on_edge_update(message.payload, count_in_sketch=False)
        elif ptype == PacketType.EDGE_MIGRATE_ACK:
            self._on_migrate_ack(message.payload)
        elif ptype == PacketType.EDGE_UPDATE_ACK:
            pass  # agents don't originate EDGE_UPDATEs
        elif ptype == PacketType.RUN_START:
            self._on_run_start(message.payload)
        elif ptype == PacketType.SUPERSTEP_ADVANCE:
            self._on_advance(message.payload)
        elif ptype == PacketType.VERTEX_MSG:
            self._on_vertex_msg(message.payload, message.src)
        elif ptype == PacketType.REPLICA_SYNC:
            self._on_replica_sync(message.payload, message.src)
        elif ptype == PacketType.REPLICA_VALUE:
            self._on_replica_value(message.payload, message.src)
        elif ptype == PacketType.VERTEX_MSG_ACK:
            self._on_data_ack(message.payload)
        elif ptype == PacketType.RECOVER:
            self._on_recover(message.payload)
        elif ptype == PacketType.CLIENT_QUERY:
            self._on_client_query(message)
        elif ptype == PacketType.DIRECTORY_ASSIGN:
            self._master_req.handle_reply(message)
        else:
            raise ValueError(f"Agent {self.agent_id} got unexpected {ptype.name}")

    def _on_term_bump(self) -> None:
        """A successor lead took over: re-drive anything it must see.

        The new lead reconstructs in-flight barrier state by
        re-collecting READYs; an agent waiting at a barrier re-sends its
        last report verbatim (stats must merge bit-identically).
        """
        run = self.run
        if self.crashed or run is None or run.spec.mode != "sync":
            return
        if run.ready_sent and run.last_ready is not None:
            self.push.push(
                self.directory_address,
                PacketType.AGENT_READY,
                dict(run.last_ready),
            )

    # ------------------------------------------------------------------
    # directory updates, migration, elasticity (§3.4.3)
    # ------------------------------------------------------------------

    def _on_directory_update(self, state: DirectoryState) -> None:
        # (term, version) fence: a freshly elected lead's first state
        # may carry a lower version than the dead lead's last broadcast
        # (sync loss), but its higher term must still win.
        if self.dstate is not None and state.fence <= self.dstate.fence:
            return
        if self.run is not None and not self.run.suspended:
            # Placement must stay stable while a superstep's messages are
            # in flight; adopt once the engine suspends or ends the run.
            self._pending_state = state
            return
        self._adopt_state(state)

    def _adopt_state(self, state: DirectoryState) -> None:
        previous = self.dstate
        if previous is not None and state.weights != previous.weights:
            # A re-weight landed (planner adoption or heterogeneous
            # join): the ring below shifts arcs, and _migrate_misplaced
            # re-homes whatever this agent no longer owns.
            self.metrics.rebalance_adoptions += 1
        before = self._placement_cache.placer
        self.dstate = state
        self._pending_state = None
        self.placer = bind_placement(self._placement_cache, state, self.config)
        self.ring = self.placer.ring
        # Membership decides the leaving state: a just-joined agent may
        # see one last broadcast predating its join (it is simply not a
        # member *yet*), while a departing agent is never re-added.
        self.leaving = self.agent_id not in state.agents
        self._migrate_misplaced(self._moved_keys(previous, before))
        if previous is None or state.epoch_token != previous.epoch_token:
            # Degrees may have crossed the split threshold between
            # sketch flushes; every new global sketch warrants a fresh
            # look at the vertices resident here.
            self._recheck_splits()
        if self._pre_state_buffer:
            buffered, self._pre_state_buffer = self._pre_state_buffer, []
            for payload, count_in_sketch in buffered:
                self._on_edge_update(payload, count_in_sketch)

    def _moved_keys(
        self, previous: Optional[DirectoryState], before: Optional[EdgePlacer]
    ) -> Optional[np.ndarray]:
        """Keyed vertices whose resident rows the just-adopted state can
        have re-homed; ``None`` means any of them.

        Every resident row was placed under ``previous`` (rows only
        enter through a placement check against the adopted state, and
        each adoption re-homes what it moved), so what has to be looked
        at again is the difference between the two states: nothing for
        a batch-clock tick, and while the ring stands, only the
        registered split vertices whose replication factor changed
        (``before`` is the placer ``previous`` was bound to).  A first
        adoption — which follows a restore from checkpoint + WAL — and
        any ring or term change leave no such bound.
        """
        state = self.dstate
        if (
            previous is None
            or state.ring_epoch is None
            or state.ring_epoch != previous.ring_epoch
        ):
            return None
        if state.epoch_token == previous.epoch_token:
            return np.empty(0, dtype=np.int64)
        registry = state.split_vertices | previous.split_vertices
        gate = np.fromiter(registry, dtype=np.int64, count=len(registry))
        gate.sort()
        return gate[before.replication_factor(gate) != self.placer.replication_factor(gate)]

    def _recheck_splits(self) -> None:
        hosted = np.union1d(self.out_store.unique_keys, self.in_store.unique_keys)
        self._check_split_threshold(hosted)

    def _migrate_misplaced(self, moved: Optional[np.ndarray]) -> None:
        """Re-home the resident edges whose owner changed.

        The paper's straightforward approach recomputes the correct
        destination for all current edges and forwards any that no
        longer belong here (§3.4.3); the modelled cluster is charged
        for exactly that pass.  This process only resolves what the
        adoption can have moved (``moved``, see :meth:`_moved_keys`),
        once per distinct keyed vertex where the key alone decides.
        """
        if self.placer is None or len(self.ring) == 0:
            return
        costs = self.config.costs
        total_edges = self.n_out_edges + self.n_in_edges
        self.charge(costs.elga_migrate_check * total_edges)
        stores = (("out", self.out_store), ("in", self.in_store))
        if moved is not None and len(moved) == 0:
            self.metrics.migrate_rechecks_skipped += 1
            stores = ()
        for role, store in stores:
            rows, owners = self._resident_owners(store, moved)
            self.metrics.migrate_rows_rechecked += len(owners)
            wrong = owners != self.agent_id
            if not wrong.any():
                continue
            keys, others = store.arrays()
            wrong_rows = np.flatnonzero(wrong) if rows is None else rows[wrong]
            wrong_k = keys[wrong_rows]
            wrong_o = others[wrong_rows]
            if role == "out":
                moving_u, moving_v = wrong_k, wrong_o
            else:
                moving_u, moving_v = wrong_o, wrong_k
            moving_owner = owners[wrong]
            self.charge(costs.elga_migrate_op * len(wrong_rows))
            self.metrics.edges_migrated += len(wrong_rows)
            # Remove locally, one vectorized pass over the store.  The
            # WAL removal is NOT logged here: it enters the ledger per
            # destination batch below and hits the log only when that
            # batch's hop ack arrives (see _pending_migrations).
            store.remove_pairs(wrong_k, wrong_o)
            # Group by destination agent and ship, with vertex state.
            order = np.argsort(moving_owner, kind="stable")
            moving_owner = moving_owner[order]
            moving_u = moving_u[order]
            moving_v = moving_v[order]
            bounds = np.flatnonzero(np.diff(moving_owner)) + 1
            starts = np.concatenate([[0], bounds])
            ends = np.concatenate([bounds, [len(moving_owner)]])
            for s, e in zip(starts, ends):
                target = int(moving_owner[s])
                # Ship algorithm state only for the endpoints this agent
                # *owns* (the copy's keyed vertex): it is a replica of
                # those and its persisted values are fresh.  Values for
                # the opposite endpoints may be stale leftovers from an
                # earlier placement epoch and must not travel.
                owned = np.unique(moving_u[s:e] if role == "out" else moving_v[s:e])
                # Vectorized state join: the owned ids' rows of each
                # program's columns, shipped as (ids, values) arrays.
                values = {
                    prog: col.select(owned) for prog, col in self.persistent.items()
                }
                active = {
                    prog: owned[aset.isin(owned)]
                    for prog, aset in self.persistent_active.items()
                }
                scatter = {
                    prog: col.select(owned)
                    for prog, col in self.persistent_scatter.items()
                }
                token = self._new_migration_token()
                batch_keys = moving_u[s:e] if role == "out" else moving_v[s:e]
                batch_others = moving_v[s:e] if role == "out" else moving_u[s:e]
                self._pending_migrations[token] = (role, batch_keys, batch_others)
                payload = {
                    "role": role,
                    "actions": np.ones(e - s, dtype=np.int8),
                    "us": moving_u[s:e],
                    "vs": moving_v[s:e],
                    "reply_to": self.address,
                    "token": token,
                    "values": values,
                    "active": active,
                    "scatter": scatter,
                }
                self.push.push(
                    self._agent_address(target), PacketType.EDGE_MIGRATE, payload
                )
                self._migration_acks_pending += 1
        self._prune_departed_state()
        self._maybe_finish_leaving()

    def _resident_owners(
        self, store: EdgeStore, moved: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """(row indices, current owner of each) for the rows of
        ``store`` keyed by a vertex in ``moved``; every row (indices
        ``None``) when ``moved`` is ``None``.

        A vertex that is not split keeps all its rows with its ring
        owner, so the full pass resolves owners per distinct key and
        repeats them over each key's segment; only rows of split
        vertices are resolved edge by edge.
        """
        keys, others = store.arrays()
        if moved is not None:
            rows = store.rows_keyed_by(moved)
            return rows, self.placer.owner_of_edges(keys[rows], others[rows])
        distinct = store.unique_keys
        owners = np.repeat(self.placer.ring_owners(distinct), store.key_counts)
        split = distinct[self.placer.replication_factor(distinct) > 1]
        if len(split):
            rows = store.rows_keyed_by(split)
            owners[rows] = self.placer.owner_of_edges(keys[rows], others[rows])
        return None, owners

    def _prune_departed_state(self) -> None:
        """Drop algorithm state for vertices that migrated away.

        Keeps per-agent memory at O((n + m)/P) (Goal 2) and prevents
        stale values from ever being re-shipped or re-collected.
        """
        hosted = np.union1d(self.out_store.unique_keys, self.in_store.unique_keys)
        for state in (self.persistent, self.persistent_active, self.persistent_scatter):
            for col in state.values():
                col.restrict(hosted)

    def _new_migration_token(self) -> int:
        """A ledger token unique across agents (hop acks echo foreign
        tokens back; two agents' seq counters must not collide).
        Negative, so it can never be mistaken for an update token."""
        self._migration_seq += 1
        return -(self.agent_id * 1_048_576 + self._migration_seq + 1)

    def _resolve_migration(self, token) -> None:
        """The batch is durably elsewhere (or re-routed): log the
        deferred removal.  Unknown tokens — foreign (a hop ack for rows
        that merely passed through us) or already resolved — are
        no-ops."""
        entry = self._pending_migrations.pop(token, None) if token is not None else None
        if entry is not None:
            role, keys, others = entry
            self._wal_log(
                role,
                (keys, others, np.full(len(keys), -1, dtype=np.int64)),
                sketched=False,
            )

    def _on_migrate_ack(self, payload: dict) -> None:
        self._resolve_migration(payload.get("token"))
        self._migration_acks_pending -= 1
        self._maybe_finish_leaving()

    def on_reliable_abandoned(self, message) -> None:
        """The fabric gave up on a reliable send of ours: the
        destination detached for good.  For an EDGE_MIGRATE that means
        a departed peer never received the edges — re-process the
        payload under the current directory (which excludes the
        leaver), re-routing the rows and acking ourselves so the hop
        ledger drains instead of deadlocking ``consistent()``.  The
        ledger entry resolves *now*, before the re-process: the
        original removal must precede any local re-insert in the WAL,
        or a replacement would replay them out of order."""
        if self.crashed or message.ptype != PacketType.EDGE_MIGRATE:
            return
        self.perf.add("migrations_bounced")
        self._resolve_migration(message.payload.get("token"))
        self._on_edge_update(dict(message.payload), count_in_sketch=False)

    def _maybe_finish_leaving(self) -> None:
        if (
            self.leaving
            and self._migration_acks_pending == 0
            and self.n_out_edges == 0
            and self.n_in_edges == 0
        ):
            # "Only when it has no edges and has waited a period of time
            # will it disconnect."
            self.kernel.schedule(1e-3, self._final_detach)

    def _final_detach(self) -> None:
        if (
            self.leaving
            and self._migration_acks_pending == 0
            and self.n_out_edges == 0
            and self.n_in_edges == 0
            and self.network.is_attached(self.address)
        ):
            self.push.push(self.directory_address, PacketType.SUBSCRIBE, {"remove": True})
            self.detach()

    def initiate_leave(self) -> None:
        """Graceful departure (the paper's SIGINT handler, §3.4.3).

        The agent only signals the directory; the next directory update
        excludes it, at which point normal migration drains every edge,
        and the agent disconnects after a grace period.
        """
        self.push.push(
            self.directory_address, PacketType.AGENT_LEAVE, {"agent_id": self.agent_id}
        )

    def _agent_address(self, agent_id: int) -> int:
        try:
            return self.dstate.agents[agent_id]
        except (KeyError, AttributeError):
            raise LookupError(f"agent {agent_id} not in directory state") from None

    def _lookup_supplement(self) -> float:
        """Full-minus-cached placement rate: what a delta run's lazily
        routed edge still owes when its source first scatters (the
        cached probe part is charged per send by _scatter_direction)."""
        costs = self.config.costs
        width, depth = self.config.sketch_width, self.config.sketch_depth
        ring_positions = max(1, len(self.ring) * self.config.virtual_factor)
        return costs.placement_lookup_cost(
            width, depth, ring_positions
        ) - costs.placement_lookup_cost(width, depth, ring_positions, cached=True)

    def _charge_placement_lookups(self) -> None:
        """Charge the last cached lookup batch honestly: misses at the
        full sketch+ring rate, hits at the reduced memo-probe rate (see
        ``CostModel.elga_lookup_cached``)."""
        costs = self.config.costs
        width, depth = self.config.sketch_width, self.config.sketch_depth
        ring_positions = max(1, len(self.ring) * self.config.virtual_factor)
        cache = self._placement_cache
        self.charge(
            cache.last_misses
            * costs.placement_lookup_cost(width, depth, ring_positions)
            + cache.last_hits
            * costs.placement_lookup_cost(width, depth, ring_positions, cached=True)
        )

    # ------------------------------------------------------------------
    # dynamic updates (ingest, forwarding, sketch maintenance)
    # ------------------------------------------------------------------

    def _on_edge_update(self, payload: dict, count_in_sketch: bool) -> None:
        if self.placer is None:
            # A just-created agent can receive edges (e.g. migration
            # from peers that already saw its join) before its own first
            # directory broadcast lands; hold them until it does.
            self._pre_state_buffer.append((payload, count_in_sketch))
            return
        if self.run is not None and not self.run.suspended and count_in_sketch:
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
            # sending hop now; if rows forward onward, *we* become the
            # hop owner awaiting the next ack.
            reply_to = payload.get("reply_to")
            if reply_to is not None and reply_to >= 0:
                self.push.push(
                    reply_to,
                    PacketType.EDGE_MIGRATE_ACK,
                    {"token": payload.get("token")},
                )
        owners = self.placer.owner_of_edges(own, other)
        self._charge_placement_lookups()
        mine = owners == self.agent_id
        # Forward misplaced changes to the best known destination.
        if (~mine).any():
            self.metrics.updates_forwarded += int((~mine).sum())
            fwd_owner = owners[~mine]
            order = np.argsort(fwd_owner, kind="stable")
            idx = np.nonzero(~mine)[0][order]
            fwd_owner = fwd_owner[order]
            bounds = np.flatnonzero(np.diff(fwd_owner)) + 1
            for s, e in zip(
                np.concatenate([[0], bounds]), np.concatenate([bounds, [len(idx)]])
            ):
                rows = idx[s:e]
                fwd = {
                    "role": role,
                    "actions": actions[rows],
                    "us": us[rows],
                    "vs": vs[rows],
                    # Updates carry the original requester (the final
                    # applier acks it); migrations ack hop-by-hop, so we
                    # take over as the hop awaiting the next ack.
                    "reply_to": payload["reply_to"] if count_in_sketch else self.address,
                    "token": payload["token"],
                }
                for extra in ("values", "active", "scatter"):
                    if extra in payload:
                        fwd[extra] = payload[extra]
                if count_in_sketch:
                    ptype = PacketType.EDGE_UPDATE
                else:
                    ptype = PacketType.EDGE_MIGRATE
                    self._migration_acks_pending += 1
                self.push.push(self._agent_address(int(fwd_owner[s])), ptype, fwd)

        # Apply local changes (one vectorized batch over the store).
        store = self.out_store if role == "out" else self.in_store
        rows = np.nonzero(mine)[0]
        self.perf.add("ingest_rows_vectorized", len(rows))
        app_k, app_o, app_a = store.apply(own[rows], other[rows], actions[rows])
        n_applied = len(app_k)
        self.charge(costs.elga_ingest_op * max(n_applied, 1))
        self.metrics.updates_applied += n_applied

        if count_in_sketch and n_applied:
            # Streaming mutations dirty their locally-keyed endpoints:
            # these rows seed the activation frontier of the next delta
            # run (and survive crashes — they are re-derived from the
            # WAL's sketched suffix at restore).
            self._dirty_log.append_batch(role, app_k, app_o, app_a)
            # One sketch update per distinct endpoint, weighted by its
            # rows: the same table as a per-row walk, hashed once per
            # endpoint instead of once per row.
            inserted, n_inserted = np.unique(app_k[app_a > 0], return_counts=True)
            removed, n_removed = np.unique(app_k[app_a < 0], return_counts=True)
            self.sketch_delta.add(inserted, n_inserted)
            self.sketch_delta.remove(removed, n_removed)
            self._delta_count += n_applied
            self._check_split_threshold(inserted)
            if self._delta_count >= self.config.sketch_flush_every:
                self.flush_sketch()

        # Migrated vertex state rides along with the edges — but only
        # the final owner keeps it (a forwarding hop that merged values
        # for edges passing through would hoard stale state).
        wal_values: Dict[str, StatePairs] = {}
        wal_active: Dict[str, np.ndarray] = {}
        wal_scatter: Dict[str, StatePairs] = {}
        if len(rows):
            kept = np.unique(own[rows])
            for prog, (ids, vals) in payload.get("values", {}).items():
                m = np.isin(ids, kept)
                if m.any():
                    self.persistent.setdefault(prog, ValueColumn()).set_many(ids[m], vals[m])
                    wal_values[prog] = (ids[m], vals[m])
            for prog, ids in payload.get("active", {}).items():
                ids = ids[np.isin(ids, kept)]
                if len(ids):
                    self.persistent_active.setdefault(prog, IdSet()).update(ids)
                    wal_active[prog] = ids
            for prog, (ids, vals) in payload.get("scatter", {}).items():
                m = np.isin(ids, kept)
                if m.any():
                    self.persistent_scatter.setdefault(prog, ValueColumn()).set_many(
                        ids[m], vals[m]
                    )
                    wal_scatter[prog] = (ids[m], vals[m])

        # Durability: every applied mutation — and any migrated-in
        # vertex state — hits the write-ahead log before this handler
        # returns, so a replacement can reconstruct the shard exactly.
        self._wal_log(
            role,
            (app_k, app_o, app_a),
            sketched=count_in_sketch,
            values=wal_values,
            active=wal_active,
            scatter=wal_scatter,
        )

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
        est = self.dstate.sketch.query(vertices, plus=self.sketch_delta)
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
        self._sync_placement_metrics()
        self.push.push(
            self.directory_address,
            PacketType.METRIC_REPORT,
            {"agent_id": self.agent_id, "metrics": self.metrics.snapshot()},
        )

    def _sync_placement_metrics(self) -> None:
        """Mirror the placement-cache perf counters into the metric
        snapshot the autoscaler path consumes."""
        counts = self.perf.counts
        self.metrics.placement_cache_hits = int(counts.get("placement_cache_hits", 0))
        self.metrics.placement_cache_misses = int(
            counts.get("placement_cache_misses", 0)
        )
        self.metrics.placement_epoch_invalidations = int(
            counts.get("placement_epoch_invalidations", 0)
        )
        self.metrics.transport_retries = int(counts.get("transport_retries", 0))
        self.metrics.transport_dups_suppressed = int(
            counts.get("transport_dups_suppressed", 0)
        )

    def flush_sketch(self) -> None:
        """Push accumulated degree deltas to the directory."""
        if self.sketch_delta.is_empty():
            return
        self.push.push(
            self.directory_address, PacketType.SKETCH_DELTA, self.sketch_delta.copy()
        )
        self.sketch_delta.clear()
        self._delta_count = 0
        # The flushed delta is now the directory's; checkpoint so a
        # crash-restore cannot replay the WAL's sketched rows and
        # re-report degrees the directory already counted.
        self._recovery_store.snapshot_agent(self)
        self.metrics.checkpoints_taken += 1

    # ------------------------------------------------------------------
    # client queries (low-latency path)
    # ------------------------------------------------------------------

    def _on_client_query(self, message: Message) -> None:
        self.charge(self.config.costs.elga_query_op)
        self.metrics.queries_served += 1
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
                self.metrics.queries_from_snapshot += 1
                return float(values[idx]), run_id, step
        # Not hosted in the live view (or no view): the persistent
        # fixpoint store.  Split vertices are always in every replica's
        # view while a run is live, so this fallback never mixes
        # per-replica rounds.
        run_id, step = self._serving_final.get(prog, (-1, -1))
        value = self.persistent.get(prog, {}).get(vertex)
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
        self.metrics.serving_views_published += 1

    # ------------------------------------------------------------------
    # run lifecycle: table construction
    # ------------------------------------------------------------------

    def _hosted_vertex_ids(self) -> np.ndarray:
        ids = np.union1d(self.out_store.unique_keys, self.in_store.unique_keys)
        # A replica of a split vertex participates in replica sync even
        # if the second-level hash assigned it no edges.
        if self.dstate is not None and self.dstate.split_vertices:
            split = np.fromiter(
                self.dstate.split_vertices,
                dtype=np.int64,
                count=len(self.dstate.split_vertices),
            )
            split.sort()
            k, reps = self.placer.replica_matrix(split)
            self.perf.add("hosted_split_vectorized_rows", int(split.size))
            mine = (k > 1) & (reps == self.agent_id).any(axis=1)
            ids = np.union1d(ids, split[mine])
        return ids.astype(np.int64, copy=False)

    def _build_table(self, run: _RunState, resume: bool) -> None:
        costs = self.config.costs
        spec = run.spec
        program = run.program
        ids = self._hosted_vertex_ids()
        table = _VertexTable(ids)
        run.table = table
        self.charge(costs.elga_vertex_op * len(ids))

        # Local out-degree (sum over out-copies held here).
        out_keys, out_others = self.out_store.arrays()
        if len(ids):
            local_outdeg = np.zeros(len(ids))
            if len(out_keys):
                np.add.at(local_outdeg, table.pos(out_keys), 1.0)
            table.out_deg_local = local_outdeg
            table.out_deg_total = local_outdeg.copy()

        # Split bookkeeping: batch the replica-set resolution for every
        # hosted split vertex; only the (few) hubs loop below.
        run.my_split = {}
        if len(ids) and self.dstate.split_vertices:
            split = np.fromiter(
                self.dstate.split_vertices,
                dtype=np.int64,
                count=len(self.dstate.split_vertices),
            )
            split.sort()
            present = split[np.isin(split, ids, assume_unique=True)]
            if len(present):
                ks, reps = self.placer.replica_matrix(present)
                pos = np.searchsorted(ids, present)
                for v, k, row, p in zip(present, ks, reps, pos):
                    if k <= 1:
                        continue
                    replicas = [int(a) for a in row[:k]]
                    if self.agent_id not in replicas:
                        continue
                    run.my_split[int(v)] = replicas
                    table.split_k[p] = k
                    table.is_primary[p] = replicas[0] == self.agent_id

        # Values: persisted (incremental/resume) or fresh.  Persisted
        # lookups are a searchsorted join against the sorted key array,
        # not a per-vertex dict probe.
        persisted = self.persistent.get(program.name)
        if len(ids):
            if (spec.incremental or resume) and persisted:
                pvals, found = persisted.lookup(ids)
                table.values = np.where(found, pvals, np.nan)
                fresh = np.isnan(table.values)
                if fresh.any():
                    table.values[fresh] = program.initial_value(ids[fresh], run.ctx)
            else:
                table.values = program.initial_value(ids, run.ctx)
            table.accum = np.full(len(ids), program.identity)
            table.got = np.zeros(len(ids), dtype=bool)

        # Delta runs need their pending dirty rows and last-sent
        # baselines *before* activation: the frontier is seeded both
        # from the mutations and from any residual still owed against
        # those baselines.
        if run.is_delta and not resume:
            run.delta_pending = self._dirty_log.suffix(
                self._dirty_seen.get(program.name, 0)
            )
        if run.delta_msgs and len(ids):
            self._init_last_sent(run, table, resume)

        # Activation.
        if len(ids):
            if resume:
                act = self.persistent_active.get(program.name)
                if act:
                    table.active = act.isin(ids)
                else:
                    table.active = np.zeros(len(ids), dtype=bool)
            elif spec.incremental:
                activate = getattr(spec, "activate", None)
                if run.is_delta:
                    table.active = self._delta_activation(run, table, activate)
                elif activate is not None and len(activate):
                    table.active = np.isin(ids, np.asarray(activate, dtype=np.int64))
                else:
                    # Dense warm start: previous fixpoint, everyone
                    # active (the safe fallback when frontier tracking
                    # is invalid — reshape, |V| change, ...).
                    table.active = np.ones(len(ids), dtype=bool)
            else:
                table.active = program.initially_active(ids, table.values, run.ctx)

        # Edge routing caches (destination agent per edge copy).  A
        # from-scratch run resolves (and is charged for) every edge's
        # owner up front; a delta run defers the charge per source
        # vertex until it first scatters, so an update batch whose
        # frontier never grows past a corner of the graph never pays
        # O(m) placement work (the resolution itself is bookkeeping —
        # cost accrues in _scatter_positions on first touch).
        if len(out_keys):
            dest = self.placer.owner_of_edges(out_others, out_keys)
            if not run.is_delta:
                self._charge_placement_lookups()
            run.out_src_pos, run.out_dst_raw, run.out_segments = self._routing(
                table, out_keys, out_others, dest
            )
        else:
            run.out_src_pos = np.empty(0, np.int64)
            run.out_dst_raw = np.empty(0, np.int64)
            run.out_segments = []
        if program.needs_in_and_out:
            in_keys, in_others = self.in_store.arrays()
            if len(in_keys):
                # In-copy (u, v) is stored keyed by v; the reverse
                # message (v -> u) goes to the holder of the out-copy.
                dest = self.placer.owner_of_edges(in_others, in_keys)
                if not run.is_delta:
                    self._charge_placement_lookups()
                run.in_src_pos, run.in_dst_raw, run.in_segments = self._routing(
                    table, in_keys, in_others, dest
                )
            else:
                run.in_src_pos = np.empty(0, np.int64)
                run.in_dst_raw = np.empty(0, np.int64)
                run.in_segments = []
        if run.is_delta and len(table):
            counts = np.bincount(run.out_src_pos, minlength=len(table))
            if program.needs_in_and_out and len(run.in_src_pos):
                counts = counts + np.bincount(run.in_src_pos, minlength=len(table))
            run.routing_uncharged = counts.astype(np.float64)

    def _routing(
        self,
        table: _VertexTable,
        src_keys: np.ndarray,
        dst_raw: np.ndarray,
        dest_agents: np.ndarray,
    ):
        """Sort edges by destination agent; return (src positions in
        table, raw destination vertex ids, segments)."""
        order = np.argsort(dest_agents, kind="stable")
        src_pos = table.pos(src_keys[order])
        dst = dst_raw[order]
        dest_sorted = dest_agents[order]
        bounds = np.flatnonzero(np.diff(dest_sorted)) + 1
        starts = np.concatenate([[0], bounds]).astype(np.int64)
        ends = np.concatenate([bounds, [len(dest_sorted)]]).astype(np.int64)
        segments = [
            (int(dest_sorted[s]), int(s), int(e)) for s, e in zip(starts, ends)
        ]
        return src_pos, dst, segments

    # ------------------------------------------------------------------
    # delta runs: frontier seeding, residual baselines, structural seeds
    # ------------------------------------------------------------------

    def _delta_activation(
        self, run: _RunState, table: _VertexTable, activate
    ) -> np.ndarray:
        """Frontier seeding for a delta run.

        The program decides which locally-keyed endpoints of the pending
        dirty rows start active; any explicitly requested activation is
        unioned in.  Vertices still holding unsent residual mass above
        the program's threshold (sub-threshold deltas accumulated over
        earlier delta runs) are flushed into the frontier too — that
        caps the steady-state error of a long update stream instead of
        letting held residuals pile up silently.
        """
        program = run.program
        seeds = []
        for role in ("out", "in"):
            if role not in run.delta_pending:
                continue
            keys, others, actions = run.delta_pending[role]
            aff = program.affected(role, keys, others, actions, run.ctx)
            if aff is not None and len(aff):
                seeds.append(np.asarray(aff, dtype=np.int64))
        if activate is not None and len(activate):
            seeds.append(np.asarray(activate, dtype=np.int64))
        if seeds:
            active = np.isin(table.ids, np.unique(np.concatenate(seeds)))
        else:
            active = np.zeros(len(table.ids), dtype=bool)
        if run.delta_msgs and table.last_sent is not None:
            flush = program.delta_flush_mask(
                table.values, table.out_deg_total, table.last_sent, run.ctx
            )
            if flush is not None:
                # NaN baselines (split rows awaiting replica init)
                # compare False and stay out of the flush.
                active |= flush & (table.split_k == 1)
        return active

    def _init_last_sent(self, run: _RunState, table: _VertexTable, resume: bool) -> None:
        """Establish per-vertex last-sent baselines for residual scatter.

        A clean vertex's baseline is the steady-state per-edge value of
        its previous fixpoint; a dirty vertex's is what it actually sent
        under its *old* out-degree (reconstructed by subtracting the
        pending rows' net degree change).  Both reconstructions are
        overridden by an exactly-persisted baseline from an earlier
        delta run, when one exists: it records what the vertex truly
        last sent, including any sub-threshold residual it was still
        holding, so unsent mass stays owed across runs instead of being
        silently forgiven.  Split rows stay NaN until the init replica
        round establishes their global degree.  On resume the persisted
        baselines are joined back in — a suspended run's unsent
        residuals must survive the suspension exactly.
        """
        program = run.program
        n = len(table.ids)
        table.last_sent = np.full(n, np.nan)
        normal = table.split_k == 1
        if resume:
            sstore = self.persistent_scatter.get(program.name)
            if sstore:
                svals, found = sstore.lookup(table.ids)
                table.last_sent = np.where(found, svals, np.nan)
            return
        base = program.scatter_values(table.values, np.maximum(table.out_deg_total, 1.0))
        table.last_sent[normal] = np.where(
            table.out_deg_total[normal] > 0, base[normal], 0.0
        )
        pend = getattr(run, "delta_pending", {})
        if "out" in pend:
            keys, _, actions = pend["out"]
            uniq, inv = np.unique(keys, return_inverse=True)
            net = np.zeros(len(uniq))
            np.add.at(net, inv, actions.astype(np.float64))
            idx = np.searchsorted(table.ids, uniq)
            hosted = (idx < n) & (table.ids[np.minimum(idx, n - 1)] == uniq)
            pos = idx[hosted]
            net = net[hosted]
            keep = normal[pos]
            pos, net = pos[keep], net[keep]
            outdeg_old = table.out_deg_total[pos] - net
            old_base = program.scatter_values(
                table.values[pos], np.maximum(outdeg_old, 1.0)
            )
            table.last_sent[pos] = np.where(outdeg_old > 0, old_base, 0.0)
        sstore = self.persistent_scatter.get(program.name)
        if sstore:
            svals, sfound = sstore.lookup(table.ids)
            found = sfound & normal
            table.last_sent = np.where(found, svals, table.last_sent)

    def _emit_delta_seeds(self, run: _RunState) -> None:
        """Round-0 structural correction messages of a delta run.

        Each pending dirty out-row (u, v, ±1) contributes or withdraws
        u's previously-scattered per-edge value along that edge, so
        receivers start the incremental run holding exactly the residual
        the mutation batch introduced.  Values come from the persisted
        fixpoint under the *old* out-degree; a same-edge insert+delete
        pair cancels exactly.
        """
        if not run.delta_msgs:
            return
        pend = getattr(run, "delta_pending", {})
        if "out" not in pend:
            return
        keys, others, actions = pend["out"]
        program = run.program
        costs = self.config.costs
        persisted = self.persistent.get(program.name, ValueColumn())
        uniq, inv = np.unique(keys, return_inverse=True)
        vals_u, _ = persisted.lookup(uniq, default=0.0)
        outdeg_now = self.out_store.degrees(uniq).astype(np.float64)
        net = np.zeros(len(uniq))
        np.add.at(net, inv, actions.astype(np.float64))
        outdeg_old = (outdeg_now - net)[inv]
        seed = program.delta_seed_values(
            "out", keys, others, actions.astype(np.float64), vals_u[inv], outdeg_old, run.ctx
        )
        if seed is None:
            return
        # The scatter discipline's contract is "receivers hold exactly
        # what u last sent per edge"; where that baseline is persisted
        # from an earlier delta run it overrides the program's
        # old-degree reconstruction, exactly as _init_last_sent does —
        # seed and baseline must agree or residual accounting drifts.
        sstore = self.persistent_scatter.get(program.name)
        if sstore:
            base_u = sstore.lookup(uniq, default=np.nan)[0][inv]
            have = ~np.isnan(base_u)
            seed = np.where(have, actions * base_u, seed)
        live = seed != 0.0
        if not live.any():
            return
        dst = others[live]
        src = keys[live]
        val = seed[live]
        owners = self.placer.owner_of_edges(dst, src)
        self._charge_placement_lookups()
        order = np.argsort(owners, kind="stable")
        owners, dst, val = owners[order], dst[order], val[order]
        bounds = np.flatnonzero(np.diff(owners)) + 1
        for s, e in zip(
            np.concatenate([[0], bounds]), np.concatenate([bounds, [len(owners)]])
        ):
            count = int(e - s)
            self.charge(count * costs.elga_edge_op)
            self.metrics.edges_processed += count
            self.perf.add("delta_seed_pairs", count)
            payload = {
                "step": run.step,
                "round": run.round,
                "dst": dst[s:e],
                "val": val[s:e],
            }
            self._emit_data(int(owners[s]), PacketType.VERTEX_MSG, payload)

    # ------------------------------------------------------------------
    # run lifecycle: rounds
    # ------------------------------------------------------------------

    def _on_run_start(self, spec: "RunSpec") -> None:
        if self.run is not None and self.run.spec.run_id == spec.run_id:
            return  # duplicated RUN_START broadcast; the run is live
        run = _RunState(spec)
        self.run = run
        tracer = self.network.tracer
        trace_from = self.available_at() if tracer is not None else 0.0
        self._build_table(run, resume=False)
        run.round = 0
        run.step = 0
        if spec.mode == "async":
            self._async_initial_scatter()
            return
        self._start_heartbeats()
        self._split_round_begin()
        self._snapshot_prescatter(run)
        self._start_scatter_wave()
        self._emit_delta_seeds(run)
        run.initial_work_done = True
        # A delayed RUN_START can trail peers' round-0 data (they saw
        # the broadcast first and scattered already); pick it up now.
        self._drain_pre_run_data(run)
        self._replay_future(run.step)
        if tracer is not None:
            tracer.complete(
                self.name,
                f"superstep:{run.phase}",
                "compute",
                trace_from,
                self.available_at(),
                {
                    "round": 0,
                    "step": 0,
                    "phase": run.phase,
                    "run_id": spec.run_id,
                    "frontier": int(run.table.active.sum()) if run.table is not None else 0,
                },
            )
        self._check_ready()

    def _drain_pre_run_data(self, run: _RunState) -> None:
        """File data messages that raced ahead of the run bootstrap
        under their rounds; ``_replay_future`` drains them in order."""
        if not self._pre_run_data:
            return
        for kind, data_payload, src in self._pre_run_data:
            run.future_buffer.setdefault(data_payload["round"], []).append(
                {"kind": kind, "payload": data_payload, "src": src}
            )
        self._pre_run_data = []

    def _on_advance(self, payload: dict) -> None:
        run = self.run
        if run is None and payload.get("phase") == "resume" and "spec" in payload:
            # This agent joined during the suspension; bootstrap the run
            # from the spec the resume broadcast carries.
            run = self.run = _RunState(payload["spec"])
            run.suspended = True
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
                    "phase": payload.get("phase"),
                },
            )
            self._trace_wait_from = None
        self._drain_pre_run_data(run)
        phase = payload["phase"]
        if phase == "halt":
            self.finalize_run(persist=True)
            return
        if run.suspended and phase != "resume":
            # Parked (scale drain or crash rollback): only a resume
            # re-opens the run.  A straggling pre-crash step ADVANCE
            # (reliable-transport retransmit) must not reanimate it.
            return
        if run.initial_work_done and int(payload["round"]) <= run.round:
            return  # duplicated or stale ADVANCE; this round already ran
        run.round = int(payload["round"])
        run.step = int(payload["step"])
        run.phase = phase
        run.ready_sent = False
        run.initial_work_done = False
        run.round_stats = {}
        run.split_applied = {}
        trace_from = self.available_at() if tracer is not None else 0.0
        if phase == "resume":
            run.suspended = False
            self._start_heartbeats()
            self._build_table(run, resume=True)
            self._split_round_begin()
            self._snapshot_prescatter(run)
            self._start_scatter_wave()
        elif phase in ("step", "delta_step"):
            # Fold the previous round's buffered messages into the
            # accumulators (canonical order) before applying them.
            self._flush_pending_msgs()
            self._apply_phase()
            # Split partials must be snapshotted before scatter refills
            # the accumulators with this round's local messages.
            self._split_round_begin()
            self._snapshot_prescatter(run)
            self._scatter_fresh_actives()
        elif phase == "apply_only":
            self._flush_pending_msgs()
            self._apply_phase()
            self._split_round_begin()
        else:
            raise ValueError(f"unknown advance phase {phase!r}")
        run.initial_work_done = True
        self._replay_future(run.step)
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
                    "frontier": int(run.table.active.sum()) if run.table is not None else 0,
                },
            )
        self._check_ready()

    @staticmethod
    def _fold_stat(stats: Dict[str, float], key: str, value: float) -> None:
        """Fold one stat contribution: ``max_``-prefixed keys reduce by
        max (mirroring the directory's cross-agent merge), others sum."""
        if key.startswith("max_"):
            stats[key] = max(stats.get(key, value), value)
        else:
            stats[key] = stats.get(key, 0.0) + value

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
            old = table.values[mask]
            # Programs that need per-row identity (e.g. personalized
            # PageRank's teleport vector) read it from the context.
            run.ctx["_vertex_ids"] = table.ids[mask]
            applier = run.program.delta_apply if run.is_delta else run.program.apply
            new, active = applier(old, table.accum[mask], table.got[mask], run.ctx)
            self.charge(costs.elga_vertex_op * int(mask.sum()))
            table.values[mask] = new
            table.active[mask] = active
            statser = run.program.delta_stats if run.is_delta else run.program.step_stats
            for key, value in statser(old, new, active).items():
                self._fold_stat(run.round_stats, key, value)
        table.accum[normal] = run.program.identity
        table.got[normal] = False
        # Split rows are applied by their primaries once partials arrive.

    def _split_round_begin(self) -> None:
        """Start the replica choreography for this round (§3.4).

        Non-primary replicas send their partial aggregates (plus local
        out-degree) to the primary; primaries register how many partials
        to expect.  Applies — and the value push back to replicas —
        happen in :meth:`_maybe_apply_split` as partials arrive.
        """
        run = self.run
        table = run.table
        if not run.my_split:
            return
        # Snapshot every split row's partial *now*, before this round's
        # scatter starts refilling the accumulators.  One batched pos()
        # probe and array gather for the whole split set.
        verts = np.fromiter(sorted(run.my_split), dtype=np.int64, count=len(run.my_split))
        pos = table.pos(verts)
        partials = table.accum[pos].copy()
        got = table.got[pos].copy()
        outdeg = table.out_deg_local[pos].copy()
        table.accum[pos] = run.program.identity
        table.got[pos] = False
        self.perf.add("split_round_rows_vectorized", len(verts))
        primaries = np.fromiter(
            (run.my_split[int(v)][0] for v in verts), dtype=np.int64, count=len(verts)
        )
        run.expected_syncs = {}
        mine = primaries == self.agent_id
        if mine.any():
            for v in verts[mine]:
                run.expected_syncs[int(v)] = len(run.my_split[int(v)]) - 1
            run.sync_buf.append((verts[mine], partials[mine], got[mine], outdeg[mine]))
        rest = np.flatnonzero(~mine)
        if len(rest):
            # One REPLICA_SYNC emission per primary, rows vert-sorted.
            order = rest[np.argsort(primaries[rest], kind="stable")]
            p_sorted = primaries[order]
            bounds = np.flatnonzero(np.diff(p_sorted)) + 1
            for s, e in zip(
                np.concatenate([[0], bounds]), np.concatenate([bounds, [len(order)]])
            ):
                idx = order[s:e]
                payload = {
                    "step": run.step,
                    "round": run.round,
                    "verts": verts[idx],
                    "partials": partials[idx],
                    "got": got[idx],
                    "outdeg": outdeg[idx],
                }
                self._emit_data(int(p_sorted[s]), PacketType.REPLICA_SYNC, payload)
                self.metrics.replica_syncs += 1
            run.expected_values.update(int(v) for v in verts[rest])
        # A primary with zero remote partials outstanding can apply now.
        self._maybe_apply_split()

    def _on_replica_sync(self, payload: dict, src: int) -> None:
        if self._stale_data(payload):
            return
        run = self.run
        if run is None:
            self._pre_run_data.append(("sync", payload, src))
            self._ack_data(src, payload)
            return
        if payload["round"] != run.round or not run.initial_work_done:
            run.future_buffer.setdefault(payload["round"], []).append(
                {"kind": "sync", "payload": payload, "src": src}
            )
            self._ack_data(src, payload)
            return
        self._ingest_replica_sync(payload)
        self._ack_data(src, payload)
        self._check_ready()

    def _ingest_replica_sync(self, payload: dict) -> None:
        run = self.run
        verts = np.asarray(payload["verts"], dtype=np.int64)
        run.sync_buf.append(
            (
                verts,
                np.asarray(payload["partials"], dtype=np.float64),
                np.asarray(payload["got"], dtype=bool),
                np.asarray(payload["outdeg"], dtype=np.float64),
            )
        )
        unique, counts = np.unique(verts, return_counts=True)
        for v, c in zip(unique, counts):
            v = int(v)
            run.expected_syncs[v] = run.expected_syncs.get(v, 0) - int(c)
        self._maybe_apply_split()

    def _maybe_apply_split(self) -> None:
        """Primary side: apply any split vertex whose partials are all in,
        then push the new value (and degree total) to the replicas."""
        run = self.run
        table = run.table
        ready = sorted(v for v, remaining in run.expected_syncs.items() if remaining <= 0)
        if not ready:
            return
        program = run.program
        for v in ready:
            del run.expected_syncs[v]
        rverts = np.asarray(ready, dtype=np.int64)
        # Pull the ready vertices' rows out of the sync buffers; rows
        # for still-pending vertices stay buffered.
        if run.sync_buf:
            allv = np.concatenate([b[0] for b in run.sync_buf])
            allp = np.concatenate([b[1] for b in run.sync_buf])
            allg = np.concatenate([b[2] for b in run.sync_buf])
            allo = np.concatenate([b[3] for b in run.sync_buf])
        else:  # pragma: no cover - a ready vertex always has its own row
            allv = np.empty(0, dtype=np.int64)
            allp = np.empty(0)
            allg = np.empty(0, dtype=bool)
            allo = np.empty(0)
        take = np.isin(allv, rverts)
        keep = ~take
        run.sync_buf = (
            [(allv[keep], allp[keep], allg[keep], allo[keep])] if keep.any() else []
        )
        sv, sp, sg, so = allv[take], allp[take], allg[take], allo[take]
        # Combine purely from the snapshots (the primary's own was
        # added at round begin); this round's incoming messages sit in
        # the pending buffer and must not leak in.  Partials fold in
        # (vertex, partial, got, outdeg)-sorted order — replica-arrival
        # order is fabric timing and must not shape the float reduction.
        order = np.lexsort((so, sg, sp, sv))
        sv, sp, sg, so = sv[order], sp[order], sg[order], so[order]
        group = np.searchsorted(rverts, sv)
        agg = np.full(len(rverts), program.identity, dtype=np.float64)
        program.ufunc.at(agg, group, sp)
        got = np.zeros(len(rverts), dtype=bool)
        np.logical_or.at(got, group, sg)
        outdeg = np.zeros(len(rverts))
        np.add.at(outdeg, group, so)
        self.perf.add("split_apply_rows_vectorized", len(rverts))
        tpos = table.pos(rverts)
        table.out_deg_total[tpos] = outdeg
        if run.delta_msgs and table.last_sent is not None:
            # A split row's residual baseline waits for its global
            # degree; establish it now from the pre-apply value.
            nan = np.isnan(table.last_sent[tpos])
            if nan.any():
                p = tpos[nan]
                base = program.scatter_values(
                    table.values[p], np.maximum(table.out_deg_total[p], 1.0)
                )
                table.last_sent[p] = np.where(table.out_deg_total[p] > 0, base, 0.0)
        if run.phase in ("init", "delta_init", "resume"):
            # Initial rounds only establish degree totals; values and
            # activation were set at table build.
            new_vals = table.values[tpos].copy()
            act = table.active[tpos].copy()
        else:
            old = table.values[tpos].copy()
            run.ctx["_vertex_ids"] = rverts
            applier = program.delta_apply if run.is_delta else program.apply
            new_vals, act = applier(old, agg, got, run.ctx)
            table.values[tpos] = new_vals
            table.active[tpos] = act
            # Stash (old, new, active) per vertex; _check_ready computes
            # the split step stats once over the vertex-sorted arrays,
            # not in completion order.
            for i, v in enumerate(ready):
                run.split_applied[v] = (float(old[i]), float(new_vals[i]), bool(act[i]))
        # Do NOT reset accum/got here: they already hold this round's
        # incoming messages (the snapshot was taken at round begin).
        by_replica: Dict[int, List[int]] = {}
        for i, v in enumerate(ready):
            for replica in run.my_split[v][1:]:
                by_replica.setdefault(replica, []).append(i)
        for replica in sorted(by_replica):
            idx = np.asarray(by_replica[replica], dtype=np.int64)
            payload = {
                "step": run.step,
                "round": run.round,
                "verts": rverts[idx],
                "values": np.asarray(new_vals)[idx],
                "active": np.asarray(act, dtype=bool)[idx],
                "outdeg": outdeg[idx],
            }
            self._emit_data(replica, PacketType.REPLICA_VALUE, payload)
        if run.phase != "apply_only":
            self._scatter_positions(tpos)

    def _on_replica_value(self, payload: dict, src: int) -> None:
        if self._stale_data(payload):
            return
        run = self.run
        if run is None:
            self._pre_run_data.append(("value", payload, src))
            self._ack_data(src, payload)
            return
        if payload["round"] != run.round or not run.initial_work_done:
            run.future_buffer.setdefault(payload["round"], []).append(
                {"kind": "value", "payload": payload, "src": src}
            )
            self._ack_data(src, payload)
            return
        self._ingest_replica_value(payload)
        self._ack_data(src, payload)
        self._check_ready()

    def _ingest_replica_value(self, payload: dict) -> None:
        run = self.run
        table = run.table
        pos = table.pos(np.asarray(payload["verts"], dtype=np.int64))
        if run.delta_msgs and table.last_sent is not None:
            # Replica-side baseline: first push carries the vertex's
            # pre-run value and global degree — the fixpoint baseline.
            nan = np.isnan(table.last_sent[pos])
            if nan.any():
                od = np.asarray(payload["outdeg"], dtype=np.float64)[nan]
                base = run.program.scatter_values(
                    table.values[pos[nan]], np.maximum(od, 1.0)
                )
                table.last_sent[pos[nan]] = np.where(od > 0, base, 0.0)
        table.values[pos] = payload["values"]
        table.active[pos] = payload["active"]
        table.out_deg_total[pos] = payload["outdeg"]
        run.expected_values.difference_update(int(v) for v in payload["verts"])
        if run.phase != "apply_only":
            self._scatter_positions(pos)

    # ------------------------------------------------------------------
    # scatter
    # ------------------------------------------------------------------

    def _start_scatter_wave(self) -> None:
        """Initial scatter of a round: all active non-split vertices plus
        active split *primaries-with-known-degree*… split vertices always
        wait for the replica round, so only non-split rows go now."""
        table = self.run.table
        if len(table) == 0:
            return
        mask = table.active & (table.split_k == 1)
        self._scatter_positions(np.flatnonzero(mask))

    def _scatter_fresh_actives(self) -> None:
        table = self.run.table
        if len(table) == 0:
            return
        mask = table.active & (table.split_k == 1)
        self._scatter_positions(np.flatnonzero(mask))

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
        send_mask = np.zeros(len(table), dtype=bool)
        send_mask[active_rows] = True
        values = program.scatter_values(table.values, table.out_deg_total)
        if run.delta_msgs:
            # Residual scatter: emit only the change since the last
            # send, then advance the baseline.  Rows whose steady value
            # did not move send nothing at all — the wire traffic of a
            # delta round tracks true residuals, not frontier size.
            baseline = np.where(np.isnan(table.last_sent), values, table.last_sent)
            deltas = values - baseline
            send_mask &= deltas != 0.0
            table.last_sent[send_mask] = values[send_mask]
            values = deltas
        if run.routing_uncharged is not None:
            # Deferred placement resolution: rows scattering for the
            # first time this run pay the full (uncached) lookup rate
            # for their local edges; _scatter_direction adds the cached
            # probe every send, so only the difference is owed here.
            rows = np.flatnonzero(send_mask)
            owed = float(run.routing_uncharged[rows].sum())
            if owed:
                self.charge(owed * self._lookup_supplement())
                run.routing_uncharged[rows] = 0.0
        self._scatter_direction(
            send_mask, values, run.out_src_pos, run.out_dst_raw, run.out_segments
        )
        if program.needs_in_and_out:
            self._scatter_direction(
                send_mask, values, run.in_src_pos, run.in_dst_raw, run.in_segments
            )
        self.charge(costs.elga_vertex_op * len(active_rows))

    def _scatter_direction(self, send_mask, values, src_pos, dst_raw, segments) -> None:
        run = self.run
        costs = self.config.costs
        ring_positions = max(1, len(self.ring) * self.config.virtual_factor)
        # Routing was resolved (and charged) once at table build; the
        # per-superstep re-resolution is a placement-cache probe and is
        # charged at the reduced cached rate.
        lookup = costs.placement_lookup_cost(
            self.config.sketch_width,
            self.config.sketch_depth,
            ring_positions,
            cached=True,
        )
        for agent_id, start, end in segments:
            seg_src = src_pos[start:end]
            mask = send_mask[seg_src]
            count = int(mask.sum())
            if count == 0:
                continue
            # Per-edge work: hash-map access + lookup + buffer write.
            self.charge(count * (costs.elga_edge_op + lookup))
            self.metrics.edges_processed += count
            self.perf.add("dataplane_pairs_emitted", count)
            payload = {
                "step": run.step,
                "round": run.round,
                "dst": dst_raw[start:end][mask],
                "val": values[seg_src[mask]],
            }
            self._emit_data(agent_id, PacketType.VERTEX_MSG, payload)

    # ------------------------------------------------------------------
    # message aggregation
    # ------------------------------------------------------------------

    def _on_vertex_msg(self, payload: dict, src: int) -> None:
        if self._stale_data(payload):
            return
        run = self.run
        if run is None:
            # Joined mid-suspension: the run bootstrap rides on the
            # resume broadcast, which may arrive after peers' data.
            self._pre_run_data.append(("msg", payload, src))
            self._ack_data(src, payload)
            return
        if run.spec.mode == "async":
            self._async_on_msg(payload)
            return
        if payload["round"] != run.round or not run.initial_work_done:
            # "If it is for an iteration in the future, the packet is
            # stored until the computation can catch up."
            run.future_buffer.setdefault(payload["round"], []).append(
                {"kind": "msg", "payload": payload, "src": src}
            )
            self._ack_data(src, payload)
            return
        self.charge(self.config.costs.elga_msg_op)
        self._aggregate(payload)
        self._ack_data(src, payload)
        self._check_ready()

    def _aggregate(self, payload: dict) -> None:
        """Buffer one message batch for this round.

        A batch is exactly one sender's full round emission, and holds
        level 1 of the canonical reduction: one partial per destination
        vertex, folded in (dst, val)-sorted order via ``combine_pairs``,
        so peak buffer memory is O(unique dst) instead of O(pairs).
        Combined packets (``combining`` on, cluster-wide config) arrive
        already reduced; with it off — the reference the bit-identity
        tests compare against — the same fold runs here, on identical
        contents in identical order.  Either way the accumulator floats
        are the same whether the fabric delivered in order, out of
        order, or via chaos-delayed retries.
        """
        run = self.run
        dst = np.asarray(payload["dst"], dtype=np.int64)
        val = np.asarray(payload["val"], dtype=np.float64)
        self.charge(self.config.costs.elga_vertex_op * len(dst))
        if not self.config.combining and len(dst):
            dst, val = combine_pairs(dst, val, run.program.ufunc, run.program.identity)
        run.pending_msgs.append((dst, val))

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
            hosted = np.isin(dst, table.ids)
            if not hosted.all():
                dst, val = dst[hosted], val[hosted]
        if not len(dst):
            return
        kernels.fold_pairs(
            table.accum, table.got, table.ids, dst, val, run.program.ufunc
        )

    def _replay_future(self, step: int) -> None:
        run = self.run
        buffered = run.future_buffer.pop(run.round, [])
        for item in buffered:
            if item["kind"] == "msg":
                self._aggregate(item["payload"])
            elif item["kind"] == "sync":
                self._ingest_replica_sync(item["payload"])
            else:
                self._ingest_replica_value(item["payload"])

    # ------------------------------------------------------------------
    # barrier (Figure 2)
    # ------------------------------------------------------------------

    def _emit_data(self, agent_id: int, ptype: PacketType, payload: dict) -> None:
        """Hold one data-plane emission in the round buffers; one
        struct-of-arrays packet per destination and type ships at flush
        time."""
        self.run.buffers.add(agent_id, ptype, payload)

    def _flush_data_buffers(self) -> None:
        """Ship this round's coalesced packets, gated on choreography.

        REPLICA_SYNC flushes unconditionally (it *unblocks* primaries).
        REPLICA_VALUE waits until this primary has applied every split
        vertex (``expected_syncs`` empty) so one packet per replica
        carries the whole round.  VERTEX_MSG additionally waits for
        ``expected_values``: only then can no further scatter happen
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
        if tracer is None:
            self._flush_data_buffers_inner(run)
            return
        trace_from = self.available_at()
        sent_before = self.metrics.messages_sent
        self._flush_data_buffers_inner(run)
        shipped = self.metrics.messages_sent - sent_before
        if shipped:
            tracer.complete(
                self.name,
                "flush",
                "comms",
                trace_from,
                self.available_at(),
                {"round": run.round, "step": run.step, "packets": shipped},
            )

    def _flush_data_buffers_inner(self, run) -> None:
        buffers = run.buffers
        for agent_id, n_emits, payload in buffers.drain_replica(
            PacketType.REPLICA_SYNC, run.step, run.round
        ):
            self.metrics.packets_coalesced += n_emits - 1
            self._send_data(agent_id, PacketType.REPLICA_SYNC, payload)
        if run.expected_syncs:
            return
        for agent_id, n_emits, payload in buffers.drain_replica(
            PacketType.REPLICA_VALUE, run.step, run.round
        ):
            self.metrics.packets_coalesced += n_emits - 1
            self._send_data(agent_id, PacketType.REPLICA_VALUE, payload)
        if run.expected_values or not buffers.pending(PacketType.VERTEX_MSG):
            return
        costs = self.config.costs
        program = run.program
        for agent_id, n_emits, payload in buffers.drain_vertex_msgs(run.step, run.round):
            self.metrics.packets_coalesced += n_emits - 1
            if self.config.combining:
                pairs_in = len(payload["dst"])
                payload["dst"], payload["val"] = combine_pairs(
                    payload["dst"], payload["val"], program.ufunc, program.identity
                )
                self.charge(costs.combine_cost(pairs_in))
                self.perf.add("combine_pairs_in", pairs_in)
                self.perf.add("combine_pairs_out", len(payload["dst"]))
                self.metrics.pairs_combined += pairs_in - len(payload["dst"])
            if agent_id == self.agent_id:
                self._aggregate(payload)
            else:
                self._send_data(agent_id, PacketType.VERTEX_MSG, payload)

    def _send_data(self, agent_id: int, ptype: PacketType, payload: dict) -> None:
        payload["inc"] = self._data_inc
        self.run.outstanding_acks += 1
        self.metrics.messages_sent += 1
        self.push.push(self._agent_address(agent_id), ptype, payload)

    def _stale_data(self, payload: dict) -> bool:
        """Fencing: data stamped with a pre-recovery incarnation is a
        straggler from a rolled-back superstep — drop it silently (its
        sender's ack accounting was reset by the rollback)."""
        return int(payload.get("inc", 0)) < self._data_inc

    def _ack_data(self, src: int, payload: Optional[dict] = None) -> None:
        """Acknowledge one data-plane packet as a credit; a single
        cumulative VERTEX_MSG_ACK per (sender, incarnation) covers the
        credits accrued within ``ACK_BATCH_WINDOW``."""
        inc = int(payload.get("inc", 0)) if payload else self._data_inc
        key = (src, inc)
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
            if count > 1:
                self.metrics.acks_batched += count - 1
                self.perf.add("acks_batched", count - 1)
            self.push.push(src, PacketType.VERTEX_MSG_ACK, {"inc": inc, "count": count})

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
        if run is None or run.ready_sent or not run.initial_work_done:
            return
        if run.spec.mode == "async":
            return
        self._flush_data_buffers()
        if run.outstanding_acks > 0 or run.expected_syncs or run.expected_values:
            return
        run.ready_sent = True
        self.metrics.supersteps += 1
        stats = dict(run.round_stats)
        if run.split_applied:
            sverts = sorted(run.split_applied)
            old = np.array([run.split_applied[v][0] for v in sverts])
            new = np.array([run.split_applied[v][1] for v in sverts])
            act = np.array([run.split_applied[v][2] for v in sverts], dtype=bool)
            statser = run.program.delta_stats if run.is_delta else run.program.step_stats
            for key, value in statser(old, new, act).items():
                self._fold_stat(stats, key, value)
        if run.table is not None:
            # Area under the frontier curve: how many locally-hosted
            # vertices end this round active (collapses fast in a
            # converging delta run; ~|V| every round in a scratch run).
            self.metrics.frontier_size += int(run.table.active.sum())
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
        self.push.push(
            self.directory_address,
            PacketType.AGENT_READY,
            dict(run.last_ready),
        )
        if self.network.tracer is not None:
            # Quiet from the moment the READY can depart until the next
            # ADVANCE arrives: that interval is the barrier-wait span.
            self._trace_wait_from = self.available_at()
        if (
            run.phase in ("step", "delta_step")
            and self.config.checkpoint_every > 0
            and run.step >= 1
            and run.step % self.config.checkpoint_every == 0
        ):
            self._take_value_checkpoint(run)
        if run.phase == "apply_only":
            self._persist_and_suspend()

    def _persist_and_suspend(self) -> None:
        """Park the run so directory updates / migration can proceed."""
        run = self.run
        self._persist_table()
        run.table = None
        run.suspended = True
        if self._pending_state is not None:
            self._adopt_state(self._pending_state)

    def _persist_table(self) -> None:
        run = self.run
        table = run.table
        if table is None:
            return
        name = run.program.name
        self.persistent.setdefault(name, ValueColumn()).set_many(table.ids, table.values)
        self.persistent_active.setdefault(name, IdSet()).assign(table.ids, table.active)
        if run.delta_msgs and table.last_sent is not None:
            known = ~np.isnan(table.last_sent)
            self.persistent_scatter.setdefault(name, ValueColumn()).set_many(
                table.ids[known], table.last_sent[known]
            )
        elif getattr(run.program, "delta_messages", False):
            # A full (scratch or dense) run re-converges every vertex:
            # baselines recorded by an earlier delta run no longer
            # describe what receivers hold, and the steady-state
            # reconstruction from the fresh fixpoint is the truth.
            self.persistent_scatter.pop(run.program.name, None)

    def _trim_dirty_log(self) -> None:
        """Drop the dirty-row prefix every known program has consumed.

        Safe even with programs this agent has never seen: the engine
        runs a program's first execution from scratch, and its finalize
        sets that program's watermark to the end of the log."""
        if not self._dirty_seen:
            return
        cut = min(self._dirty_seen.values())
        if cut <= 0:
            return
        self._dirty_log.trim(cut)
        self._dirty_seen = {name: mark - cut for name, mark in self._dirty_seen.items()}

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
            # The finished program has now folded every dirty row logged
            # so far into its fixpoint; advance its watermark *before*
            # the halt checkpoint so a restore cannot re-seed an
            # already-converged run.
            self._dirty_seen[run.program.name] = len(self._dirty_log)
            self._trim_dirty_log()
            # Halt checkpoint: the post-run state becomes the durable
            # restore base (and truncates the WAL).
            self._recovery_store.snapshot_agent(self)
            self.metrics.checkpoints_taken += 1
        self.run = None
        if self._pending_state is not None:
            self._adopt_state(self._pending_state)
        buffered, self._buffered_updates = self._buffered_updates, []
        for payload in buffered:
            self._apply_edge_update(payload, count_in_sketch=True)

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
        if self.crashed or run is None or run.suspended or run.spec.mode != "sync":
            return  # chain ends; the next run start / resume re-arms it
        if not self.network.is_attached(self.directory_address):
            # This agent's directory died: re-home through the master
            # instead of heartbeating into the void.  The chain keeps
            # ticking so a failed re-home attempt is retried.
            self._maybe_rehome()
        else:
            self.metrics.heartbeats_sent += 1
            self.push.push(
                self.directory_address,
                PacketType.HEARTBEAT,
                {"agent_id": self.agent_id},
            )
        self._heartbeat_pending = True
        self.kernel.schedule(self.config.heartbeat_interval, self._heartbeat_tick)

    def _on_rehomed(self) -> None:
        # SUBSCRIBE and AGENT_JOIN are idempotent at the directory tier;
        # the SUBSCRIBE reply seeds the current state (and term).
        self._subscribe_and_join()
        run = self.run
        if run is not None and run.ready_sent and run.last_ready is not None:
            # The READY sent to the dead directory may never have been
            # forwarded; re-report through the new home.
            self.push.push(
                self.directory_address,
                PacketType.AGENT_READY,
                dict(run.last_ready),
            )

    def _wal_log(
        self,
        role: str,
        rows: Rows,
        sketched: bool,
        values: Optional[Dict[str, StatePairs]] = None,
        active: Optional[Dict[str, np.ndarray]] = None,
        scatter: Optional[Dict[str, StatePairs]] = None,
    ) -> None:
        self._recovery.wal.append(
            role, rows, sketched, values=values, active=active, scatter=scatter
        )
        self.metrics.wal_records_logged += len(rows[0])

    def _snapshot_prescatter(self, run: _RunState) -> None:
        """Stash this round's pre-scatter residual baselines.

        Taken at each round begin (and resume) of a delta-message run
        so a coordinated checkpoint can record baselines that still
        precede the round's scatter — see ``prescatter_last_sent``.
        Skipped when checkpointing is off: nothing would consume it.
        """
        if (
            run.delta_msgs
            and self.config.checkpoint_every > 0
            and run.table is not None
            and run.table.last_sent is not None
        ):
            run.prescatter_last_sent = run.table.last_sent.copy()

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
        name = run.program.name
        persistent = copy_values(self.persistent)
        active = copy_active(self.persistent_active)
        if table is not None and len(table):
            persistent.setdefault(name, ValueColumn()).set_many(table.ids, table.values)
            active.setdefault(name, IdSet()).assign(table.ids, table.active)
        scatter = copy_values(self.persistent_scatter)
        if run.delta_msgs and table is not None and table.last_sent is not None:
            # Pre-scatter baselines: a rollback drops this round's
            # in-flight deltas, and the resume re-scatter regenerates
            # them only against the baseline from *before* the round's
            # sends advanced it.
            baselines = (
                run.prescatter_last_sent
                if run.prescatter_last_sent is not None
                else table.last_sent
            )
            known = ~np.isnan(baselines)
            scatter.setdefault(name, ValueColumn()).set_many(
                table.ids[known], baselines[known]
            )
        checkpoint = Checkpoint(
            out_store=self.out_store.copy(),
            in_store=self.in_store.copy(),
            persistent=persistent,
            persistent_active=active,
            sketch_delta=self.sketch_delta.copy(),
            run_id=run.spec.run_id,
            step=run.step,
            persistent_scatter=scatter,
            dirty_log=self._dirty_log.copy(),
            dirty_seen=dict(self._dirty_seen),
        )
        self._recovery.checkpoints.save(checkpoint)
        self._recovery.wal.truncate()
        self.metrics.checkpoints_taken += 1
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
        the base itself.  Edges the ring now routes elsewhere are
        dropped by the first directory adoption's migration pass.
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
            self.out_store = base.out_store.copy()
            self.in_store = base.in_store.copy()
            self.persistent = copy_values(base.persistent)
            self.persistent_active = copy_active(base.persistent_active)
            self.persistent_scatter = copy_values(base.persistent_scatter)
            # Dirty rows come from the *latest* base (the WAL suffix is
            # relative to it); they never change during a run, so the
            # rollback checkpoint would carry the same rows anyway.
            self._dirty_log = base.dirty_log.copy()
            self._dirty_seen = dict(base.dirty_seen)
            if base.sketch_delta is not None:
                self.sketch_delta = base.sketch_delta.copy()
            self.metrics.checkpoints_restored += 1
        if rolled is not None:
            # Mid-run rollback: values from the common checkpoint step.
            self.persistent = copy_values(rolled.persistent)
            self.persistent_active = copy_active(rolled.persistent_active)
            self.persistent_scatter = copy_values(rolled.persistent_scatter)
        elif base is not None and base.run_id is not None:
            # Restart-mode recovery from a mid-run base: its values are
            # partially converged and must not seed the re-run; fall
            # back to the snapshot from before the run's first one.
            pre = source.checkpoints.pre_run
            self.persistent = copy_values(pre.persistent) if pre is not None else {}
            self.persistent_active = (
                copy_active(pre.persistent_active) if pre is not None else {}
            )
            self.persistent_scatter = (
                copy_values(pre.persistent_scatter) if pre is not None else {}
            )
        replayed = source.wal.replay(
            self.out_store,
            self.in_store,
            sketch_delta=self.sketch_delta,
            persistent=self.persistent,
            persistent_active=self.persistent_active,
            persistent_scatter=self.persistent_scatter,
        )
        # Streaming mutations logged after the base checkpoint were
        # dirty but unconsumed when the agent died; re-dirty them so the
        # next delta run still sees its full frontier seed.
        self._dirty_log.extend(source.wal.sketched_rows())
        self.metrics.wal_records_replayed += replayed
        self.metrics.recoveries_participated += 1
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

        ``mode`` is decided by the engine from durable checkpoint
        coverage:

        * ``rollback`` — restore persisted values from the common
          checkpoint step and suspend; the engine resumes the barrier at
          that step once the replacement has joined and migration has
          quiesced.
        * ``restart`` — no usable common checkpoint (WAL-only
          degradation): drop the run entirely; the engine re-issues
          RUN_START and the algorithm re-runs from pre-run state.
        """
        incarnation = int(payload["incarnation"])
        if incarnation <= self._recover_epoch:
            return  # duplicate broadcast
        self._recover_epoch = incarnation
        self._data_inc = incarnation
        run = self.run
        if run is None or run.spec.run_id != payload.get("run_id"):
            return
        self.metrics.recoveries_participated += 1
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
            self.run = None
            if self._pending_state is not None:
                self._adopt_state(self._pending_state)
            return
        step = int(payload["step"])
        checkpoint = self._recovery.checkpoints.checkpoint_for(run.spec.run_id, step)
        if checkpoint is None:
            raise RuntimeError(
                f"agent {self.agent_id} told to roll back to step {step} "
                "but holds no such checkpoint"
            )
        self.persistent = copy_values(checkpoint.persistent)
        self.persistent_active = copy_active(checkpoint.persistent_active)
        self.persistent_scatter = copy_values(checkpoint.persistent_scatter)
        self._dirty_log = checkpoint.dirty_log.copy()
        self._dirty_seen = dict(checkpoint.dirty_seen)
        # Serve the rolled-back checkpoint during the suspension: the
        # persistent store now holds exactly step-``step`` values, and
        # every survivor tags them identically, so reads during
        # recovery stay snapshot-consistent.  (A replacement agent's
        # restored values carry the default tag and are accepted by the
        # proxies' value-equality rule.)
        self._serving.pop(run.program.name, None)
        self._serving_final[run.program.name] = (run.spec.run_id, step)
        # Drop every trace of post-checkpoint progress: the resume
        # rebuilds the table from the restored persistent state, and
        # stragglers from the old incarnation are fenced by ``inc``.
        run.table = None
        run.suspended = True
        run.ready_sent = False
        run.initial_work_done = False
        run.outstanding_acks = 0
        run.expected_syncs = {}
        run.sync_buf = []
        run.expected_values = set()
        run.pending_msgs = []
        run.buffers.clear()
        run.future_buffer = {}
        run.round_stats = {}
        run.split_applied = {}
        run.step = step
        if self._pending_state is not None:
            self._adopt_state(self._pending_state)

    # ------------------------------------------------------------------
    # asynchronous mode (monotone programs)
    # ------------------------------------------------------------------

    def _async_initial_scatter(self) -> None:
        table = self.run.table
        if len(table) == 0:
            return
        self._async_scatter(np.flatnonzero(table.active))

    def _async_on_msg(self, payload: dict) -> None:
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
        changed = np.flatnonzero(proposed < table.values)
        if run.program.aggregator == "max":
            changed = np.flatnonzero(proposed > table.values)
        self.charge(self.config.costs.elga_vertex_op * len(pos))
        if len(changed) == 0:
            return
        table.values[changed] = proposed[changed]
        table.active[changed] = True
        self._async_gossip_split(changed)
        self._async_scatter(changed)

    def _async_gossip_split(self, positions: np.ndarray) -> None:
        """Propagate improved split-vertex values to sibling replicas.

        Asynchronous mode has no barrier to hang a replica-sync round
        on; instead, monotone improvements to a split vertex gossip to
        the other replicas as plain vertex messages ("v's value is at
        most x"), which min-apply and re-scatter.  Monotonicity makes
        this convergent and order-insensitive.
        """
        run = self.run
        table = run.table
        if not run.my_split:
            return
        for p in positions:
            v = int(table.ids[p])
            replicas = run.my_split.get(v)
            if replicas is None:
                continue
            payload_val = float(table.values[p])
            for replica in replicas:
                if replica == self.agent_id:
                    continue
                self.metrics.replica_syncs += 1
                self.push.push(
                    self._agent_address(replica),
                    PacketType.VERTEX_MSG,
                    {
                        "step": 0,
                        "round": 0,
                        "inc": self._data_inc,
                        "dst": np.array([v], dtype=np.int64),
                        "val": np.array([payload_val]),
                    },
                )

    def _async_scatter(self, positions: np.ndarray) -> None:
        run = self.run
        table = run.table
        if len(positions) == 0:
            return
        program = run.program
        costs = self.config.costs
        send_mask = np.zeros(len(table), dtype=bool)
        send_mask[positions] = True
        values = program.scatter_values(table.values, np.maximum(table.out_deg_total, 1.0))
        for src_pos, dst_raw, segments in (
            (run.out_src_pos, run.out_dst_raw, run.out_segments),
            (run.in_src_pos, run.in_dst_raw, run.in_segments)
            if program.needs_in_and_out
            else (np.empty(0, np.int64), np.empty(0, np.int64), []),
        ):
            for agent_id, start, end in segments:
                seg_src = src_pos[start:end]
                mask = send_mask[seg_src]
                count = int(mask.sum())
                if count == 0:
                    continue
                self.charge(count * costs.elga_edge_op)
                self.metrics.edges_processed += count
                payload = {
                    "step": 0,
                    "round": 0,
                    "inc": self._data_inc,
                    "dst": dst_raw[start:end][mask],
                    "val": values[seg_src[mask]],
                }
                if agent_id == self.agent_id:
                    # Recurse locally without a network hop.
                    self._async_on_msg(payload)
                else:
                    self.metrics.messages_sent += 1
                    self.push.push(self._agent_address(agent_id), PacketType.VERTEX_MSG, payload)

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
        hosted = self._hosted_vertex_ids()
        ids, vals = self.persistent.get(program_name, ValueColumn()).select(hosted)
        return {int(v): float(x) for v, x in zip(ids, vals)}

    @property
    def n_out_edges(self) -> int:
        """Resident out-copy edge count (derived from the store)."""
        return self.out_store.n_edges

    @property
    def n_in_edges(self) -> int:
        """Resident in-copy edge count (derived from the store)."""
        return self.in_store.n_edges

    @property
    def total_edges(self) -> int:
        """Resident edge copies (out + in)."""
        return self.n_out_edges + self.n_in_edges
