"""Per-run vertex state of one shard, and how it is built.

A run executes on a :class:`_VertexTable` — the shard's hosted vertices
as parallel arrays — plus the routing caches, the replica round
(:class:`~repro.cluster.replicas.ReplicaRound`) and the per-round
bookkeeping of a :class:`_RunState`.  Everything here is a plain object or a
function of ``(run, shard, placer, …)``: no entity, no clock, no
messages, so a test can build a table from a hand-made shard.  The
Agent's round machine (:mod:`repro.cluster.rounds`) charges simulated
time for what these functions report and turns their arrays into
packets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import kernels
from repro.cluster.dataplane import RoundBuffers
from repro.cluster.edgestore import members, union
from repro.cluster.replicas import ReplicaRound
from repro.cluster.shard import ProgramState, ShardState

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.core.program import RunSpec
    from repro.partition.cache import PlacementCache


class Routing(NamedTuple):
    """One scatter direction as a CSR over a store's own key-sorted
    edge copies: table row ``i``'s edges are ``off[i]:off[i+1]`` of
    ``dst`` (the store's frozen ``others`` column, shared, not copied)
    and of ``owner`` (each edge's destination agent)."""

    off: np.ndarray
    dst: np.ndarray
    owner: np.ndarray
    #: Edges per agent, as an exclusive prefix (``cap[a]:cap[a+1]`` is
    #: room for every pair agent ``a`` can be sent in one scatter).
    cap: np.ndarray


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
            present = p < len(self.ids)
            present[present] = self.ids[p[present]] == np.asarray(vertex_ids)[present]
            missing = np.asarray(vertex_ids)[~present]
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
        # Where the run stands (``rounds.RUN_STATUS``): a synchronous
        # run waits for its first round to open.
        self.status = "async" if spec.mode == "async" else "waiting"
        # Delta runs: only the frontier applies/scatters, and (for
        # delta-message programs) scatter carries residuals.
        self.is_delta = spec.strategy == "delta"
        self.delta_msgs = self.is_delta and spec.program.delta_messages
        self.apply = spec.program.delta_apply if self.is_delta else spec.program.apply
        self.step_stats = (
            spec.program.delta_stats if self.is_delta else spec.program.step_stats
        )
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
        # Edge routing caches (built with the table; None for a
        # direction with no edge copies here or that does not scatter).
        self.out_routing: Optional[Routing] = None
        self.in_routing: Optional[Routing] = None
        self.round = -1
        self.step = 0
        self.phase = "delta_init" if self.is_delta else "init"
        # The exact AGENT_READY payload last sent, re-sent verbatim when
        # a lead election bumps the control term: the successor rebuilds
        # its READY buckets from these re-reports, and a verbatim copy
        # keeps the merged barrier stats bit-identical.
        self.last_ready: Optional[dict] = None
        self.clear_progress()

    def clear_progress(self) -> None:
        """(Re)set everything a round accumulates.  A fresh run starts
        here; a crash rollback returns here, dropping every trace of
        progress past the checkpoint (the resume rebuilds the table from
        the restored program state)."""
        self.table = None
        # The split-vertex replica round, built with each table.
        self.replicas: Optional[ReplicaRound] = None
        self.outstanding_acks = 0
        self.round_stats: Dict[str, float] = {}
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
        # flush time (see RoundMixin._flush_data_buffers).
        self.buffers = RoundBuffers()


# ----------------------------------------------------------------------
# table construction
# ----------------------------------------------------------------------


def keyed_vertices(shard: ShardState) -> np.ndarray:
    """Sorted distinct vertices keying a resident edge copy."""
    return union(shard.out_store.unique_keys, shard.in_store.unique_keys)


def hosted_vertex_ids(
    shard: ShardState, placer: "PlacementCache", split_vertices, agent_id: int
) -> Tuple[np.ndarray, Dict[int, List[int]]]:
    """(sorted ids of the vertices this shard hosts, replica list of
    each split vertex among them).

    A vertex is hosted where it keys an edge copy; a replica of a split
    vertex additionally participates in replica sync even if the
    second-level hash assigned it no edges.  The split registry is
    resolved once, for both answers.
    """
    ids = keyed_vertices(shard)
    my_split: Dict[int, List[int]] = {}
    if split_vertices:
        split = np.fromiter(split_vertices, dtype=np.int64, count=len(split_vertices))
        split.sort()
        ks, reps = placer.replica_matrix(split)
        mine = np.flatnonzero((ks > 1) & (reps == agent_id).any(axis=1))
        for v, k, row in zip(split[mine], ks[mine], reps[mine]):
            my_split[int(v)] = [int(a) for a in row[:k]]
        ids = union(ids, split[mine])
    return ids, my_split


def build_table(
    run: _RunState,
    shard: ShardState,
    placer: "PlacementCache",
    split_vertices,
    agent_id: int,
    resume: bool,
) -> List[Tuple[int, int]]:
    """Build ``run.table`` and the routing caches from the shard.

    Returns the placement cache's (misses, hits) for each routing
    resolution, in the order they ran (out-copies, then in-copies when
    the program scatters both ways), for the caller to bill.
    """
    spec = run.spec
    program = run.program
    ids, my_split = hosted_vertex_ids(shard, placer, split_vertices, agent_id)
    run.replicas = ReplicaRound(agent_id, my_split)
    table = run.table = _VertexTable(ids)
    state = shard.programs.get(program.name, ProgramState())

    # Local out-degree: the out-copies held here, per row of the CSR.
    out_keys, out_others = shard.out_store.arrays()
    out_off = _offsets(ids, out_keys)
    table.out_deg_local = np.diff(out_off).astype(np.float64)
    table.out_deg_total = table.out_deg_local.copy()

    # Split bookkeeping for the (few) hubs hosted here.
    hubs = np.fromiter(my_split, dtype=np.int64, count=len(my_split))
    for p, replicas in zip(np.searchsorted(ids, hubs), my_split.values()):
        table.split_k[p] = len(replicas)
        table.is_primary[p] = replicas[0] == agent_id

    # Values: persisted (incremental/resume) or fresh.  Persisted
    # lookups are a searchsorted join against the sorted key array,
    # not a per-vertex dict probe.
    if len(ids):
        if (spec.incremental or resume) and state.values:
            pvals, found = state.values.lookup(ids)
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
        run.delta_pending = shard.unconsumed(program.name)
    if run.delta_msgs and len(ids):
        _init_last_sent(run, table, state.scatter, resume)

    # Activation.
    if len(ids):
        if resume:
            table.active = state.active.isin(ids)
        elif spec.incremental:
            activate = spec.activate
            if run.is_delta:
                table.active = _delta_activation(run, table, activate)
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
    lookups: List[Tuple[int, int]] = []
    run.out_routing = run.in_routing = None
    if len(out_keys):
        dest = placer.owner_of_edges(out_others, out_keys)
        lookups.append((placer.last_misses, placer.last_hits))
        run.out_routing = _routing(out_off, out_others, dest)
    if program.needs_in_and_out:
        in_keys, in_others = shard.in_store.arrays()
        if len(in_keys):
            # In-copy (u, v) is stored keyed by v; the reverse
            # message (v -> u) goes to the holder of the out-copy.
            dest = placer.owner_of_edges(in_others, in_keys)
            lookups.append((placer.last_misses, placer.last_hits))
            run.in_routing = _routing(_offsets(ids, in_keys), in_others, dest)
    if run.is_delta and len(table):
        counts = np.zeros(len(table), dtype=np.int64)
        for routing in (run.out_routing, run.in_routing):
            if routing is not None:
                counts += np.diff(routing.off)
        run.routing_uncharged = counts.astype(np.float64)
    return lookups


def persist_table(
    table: _VertexTable, state: ProgramState, baselines: Optional[np.ndarray]
) -> None:
    """Write a table into ``state``: values, activation and the known
    residual ``baselines`` (delta-message runs; None leaves the
    persisted ones alone)."""
    state.values.set_many(table.ids, table.values)
    state.active.assign(table.ids, table.active)
    if baselines is not None:
        known = ~np.isnan(baselines)
        state.scatter.set_many(table.ids[known], baselines[known])


def _offsets(ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """CSR offsets of a store's key-sorted edge copies per table row:
    every key is a table id, so row ``i``'s edges start where
    ``ids[i]`` sorts into ``keys``."""
    off = np.empty(len(ids) + 1, dtype=np.int64)
    off[:-1] = np.searchsorted(keys, ids)
    off[-1] = len(keys)
    return off


def _routing(off: np.ndarray, dst: np.ndarray, owners: np.ndarray) -> Routing:
    cap = np.zeros(int(owners.max()) + 2, dtype=np.int64)
    np.cumsum(np.bincount(owners), out=cap[1:])
    return Routing(off, dst, owners.astype(np.int32), cap)


def scatter_segments(
    run: _RunState, rows: np.ndarray, values: np.ndarray
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """(destination agent, pairs, dst vertex ids, values) for every
    agent that the sending ``rows`` (``values[i]`` rides ``rows[i]``'s
    edges) reach — out-copies first, then in-copies when the program
    scatters both ways, agents ascending within a direction.

    Rows are walked in ascending value order, so each destination's
    pairs leave in value order: the canonical reduction downstream then
    sorts presorted groups.  Its result does not depend on that order.
    """
    # Equal values are interchangeable downstream: no stable sort needed.
    order = np.argsort(values)
    rows, values = rows[order], values[order]
    for routing in (run.out_routing, run.in_routing):
        if routing is None:
            continue
        dst, val, start, counts = kernels.scatter_rows(rows, values, *routing)
        for agent_id in np.flatnonzero(counts).tolist():
            lo, count = int(start[agent_id]), int(counts[agent_id])
            yield agent_id, count, dst[lo : lo + count], val[lo : lo + count]


# ----------------------------------------------------------------------
# delta runs: frontier seeding, residual baselines, structural seeds
# ----------------------------------------------------------------------


def _delta_activation(run: _RunState, table: _VertexTable, activate) -> np.ndarray:
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
        active = members(np.unique(np.concatenate(seeds)), table.ids)
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


def _net_degree_change(
    keys: np.ndarray, actions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct keys, row -> key index, net out-degree change per
    key) of a batch of dirty out-rows."""
    uniq, inv = np.unique(keys, return_inverse=True)
    net = np.zeros(len(uniq))
    np.add.at(net, inv, actions.astype(np.float64))
    return uniq, inv, net


def fixpoint_baseline(program, values: np.ndarray, outdeg: np.ndarray) -> np.ndarray:
    """What a vertex at its fixpoint ``values`` has sent along each of
    its ``outdeg`` out-edges: the steady-state per-edge value, nothing
    for a vertex without out-edges."""
    return np.where(outdeg > 0, program.scatter_values(values, np.maximum(outdeg, 1.0)), 0.0)


def _init_last_sent(run: _RunState, table: _VertexTable, persisted, resume: bool) -> None:
    """Establish per-vertex last-sent baselines for residual scatter.

    A clean vertex's baseline is the steady-state per-edge value of
    its previous fixpoint; a dirty vertex's is what it actually sent
    under its *old* out-degree (reconstructed by subtracting the
    pending rows' net degree change).  Both reconstructions are
    overridden by an exactly-persisted baseline from an earlier
    delta run (``persisted``), when one exists: it records what the
    vertex truly last sent, including any sub-threshold residual it was
    still holding, so unsent mass stays owed across runs instead of
    being silently forgiven.  Split rows stay NaN until the init replica
    round establishes their global degree.  On resume the persisted
    baselines are joined back in — a suspended run's unsent
    residuals must survive the suspension exactly.
    """
    program = run.program
    n = len(table.ids)
    table.last_sent = np.full(n, np.nan)
    normal = table.split_k == 1
    if resume:
        if persisted:
            svals, found = persisted.lookup(table.ids)
            table.last_sent = np.where(found, svals, np.nan)
        return
    table.last_sent[normal] = fixpoint_baseline(program, table.values, table.out_deg_total)[normal]
    if "out" in run.delta_pending:
        keys, _, actions = run.delta_pending["out"]
        uniq, _, net = _net_degree_change(keys, actions)
        idx = np.searchsorted(table.ids, uniq)
        hosted = (idx < n) & (table.ids[np.minimum(idx, n - 1)] == uniq)
        pos = idx[hosted]
        net = net[hosted]
        keep = normal[pos]
        pos, net = pos[keep], net[keep]
        outdeg_old = table.out_deg_total[pos] - net
        table.last_sent[pos] = fixpoint_baseline(program, table.values[pos], outdeg_old)
    if persisted:
        svals, sfound = persisted.lookup(table.ids)
        found = sfound & normal
        table.last_sent = np.where(found, svals, table.last_sent)


def delta_seed_pairs(
    run: _RunState, shard: ShardState
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Round-0 structural correction messages of a delta run, as
    (source, destination, value) rows; None when there are none.

    Each pending dirty out-row (u, v, ±1) contributes or withdraws
    u's previously-scattered per-edge value along that edge, so
    receivers start the incremental run holding exactly the residual
    the mutation batch introduced.  Values come from the persisted
    fixpoint under the *old* out-degree; a same-edge insert+delete
    pair cancels exactly.
    """
    if not run.delta_msgs or "out" not in run.delta_pending:
        return None
    keys, others, actions = run.delta_pending["out"]
    program = run.program
    state = shard.programs.get(program.name, ProgramState())
    uniq, inv, net = _net_degree_change(keys, actions)
    vals_u, _ = state.values.lookup(uniq, default=0.0)
    outdeg_now = shard.out_store.degrees(uniq).astype(np.float64)
    outdeg_old = (outdeg_now - net)[inv]
    seed = program.delta_seed_values(
        "out", keys, others, actions.astype(np.float64), vals_u[inv], outdeg_old, run.ctx
    )
    if seed is None:
        return None
    # The scatter discipline's contract is "receivers hold exactly
    # what u last sent per edge"; where that baseline is persisted
    # from an earlier delta run it overrides the program's
    # old-degree reconstruction, exactly as _init_last_sent does —
    # seed and baseline must agree or residual accounting drifts.
    if state.scatter:
        base_u = state.scatter.lookup(uniq, default=np.nan)[0][inv]
        have = ~np.isnan(base_u)
        seed = np.where(have, actions * base_u, seed)
    live = seed != 0.0
    if not live.any():
        return None
    return keys[live], others[live], seed[live]
