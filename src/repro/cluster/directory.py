"""The directory system (§3.3): membership, sketch, and barriers.

Directories broadcast to every Participant the state needed to find any
edge's owner: the Agent list and the degree CountMinSketch — a payload
of O(P + d·w), exactly the paper's bound — plus the batch clock and the
split-vertex registry.  They also coordinate bulk-synchronous barriers
(Figure 2): Agents report ready to their Directory, Directories
re-broadcast readiness among themselves, and when every Agent is ready
the superstep advances.

A single **DirectoryMaster** is the bootstrap service: queried once by
any component to find a Directory, and only again if that Directory
leaves (§3.3).

Internally one directory (index 0, the *lead*) is authoritative for
membership and sketch merging; peers forward joins/leaves/deltas to it
and mirror its state via ``DIRECTORY_SYNC`` — the paper's "all
Directories internally broadcast messages appropriately", specialized
to a hub topology for determinism.

The split-vertex registry is an implementation addition: the paper's
Agents learn replication factors from the sketch alone, but a replica
of a split vertex that happens to hold none of its edges must still
participate in replica synchronization, so the directory broadcast
carries the (small) set of currently-split vertex ids.  This adds
O(#hubs) to the O(P + d·w) broadcast; DESIGN.md discusses the choice.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.failover import FailoverMixin
from repro.cluster.leadstate import ControlTail, LeadState, fold_stats
from repro.cluster.leases import LeaseMixin
from repro.net.message import Message, PacketType
from repro.net.sockets import PubSubSocket, PushSocket
from repro.sim.entity import Entity, Periodic
from repro.sketch.countmin import CountMinSketch


class DirectoryState:
    """One version of the broadcast directory state.

    Treated as immutable by recipients, but for ``ring``, which the
    first to adopt it fills in; the lead directory builds a new
    instance for every broadcast.
    """

    __slots__ = (
        "version",
        "batch_id",
        "agents",
        "sketch",
        "split_vertices",
        "weights",
        "epoch",
        "term",
        "ring",
    )

    def __init__(
        self,
        version: int,
        batch_id: int,
        agents: Dict[int, int],
        sketch: CountMinSketch,
        split_vertices: frozenset,
        weights: Optional[Dict[int, float]] = None,
        *,
        epoch: tuple,
        term: int = 0,
    ):
        self.term = term
        self.version = version
        self.batch_id = batch_id
        self.agents = dict(agents)  # agent id -> network address
        self.sketch = sketch
        self.split_vertices = frozenset(split_vertices)
        # Capacity weights (§3.4.2 heterogeneous extension): scale each
        # agent's virtual-position count on every participant's ring.
        self.weights = dict(weights or {})
        # Placement epoch: (term, membership version, sketch version,
        # split registry size).  Placement is a pure function of this
        # token's underlying state, so participants' placement caches
        # invalidate exactly when it changes — a batch-clock-only
        # broadcast bumps ``version`` but not the epoch, and caches
        # survive it.  The first two fields are the ring's own epoch.
        # Only a directory's never-sent version-0 state holds the
        # bootstrap ``(0, 0, 0, 0)``.
        self.epoch = epoch
        # The ring participants place this state by (set by
        # ``bind_placement``), held so that it stays shared while the
        # state is still on its way to the participants further away.
        self.ring = None

    @property
    def ring_epoch(self) -> tuple:
        """What the consistent-hash ring depends on: (term, membership
        version) — joins, leaves, evictions and re-weights bump it,
        sketch flushes and split registrations do not."""
        return self.epoch[:2]

    @property
    def nbytes(self) -> int:
        """Broadcast size: O(P) addresses + O(d·w) sketch + split set."""
        return (
            16 * len(self.agents)
            + 8 * len(self.weights)
            + self.sketch.nbytes
            + 8 * len(self.split_vertices)
            + 16
        )

    def agent_ids(self) -> List[int]:
        return sorted(self.agents)

    def with_own_sketch(self) -> "DirectoryState":
        """A shallow copy holding its own sketch object (O(1): the
        sketch copy shares the table until either side writes)."""
        dup = copy.copy(self)
        dup.sketch = self.sketch.copy()
        return dup

    @property
    def fence(self) -> Tuple[int, int]:
        """The adoption fence: states order by (term, version).

        A freshly elected lead's first broadcast may carry a *lower*
        version than the dead lead's last one (sync messages can be
        lost), but its higher term must still win everywhere.
        """
        return (self.term, self.version)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectoryState(t{self.term}/v{self.version}, batch={self.batch_id}, "
            f"P={len(self.agents)}, split={len(self.split_vertices)})"
        )


class DirectoryMaster(Entity):
    """Bootstrap service: hands out a Directory address on request.

    The master itself is reconstructable: its registry is soft state
    rebuilt from the directories' periodic ``DIRECTORY_REGISTER``
    heartbeats, so a restarted (or standby) master converges on the
    live directory set without any handoff.  ``DIRECTORY_QUERY`` never
    raises — an empty (or fully dead) registry answers with a
    retry-after hint so participants back off and re-query.
    """

    KIND = "master"

    def __init__(self, network, seed: int = 0, retry_after: float = 1e-3):
        super().__init__(network, "directory-master", seed)
        self.push = PushSocket(self)
        self._directories: List[int] = []
        self._next = 0
        self.retry_after = retry_after

    def register_directory(self, address: int) -> None:
        """Called by the cluster when a Directory comes up (idempotent)."""
        if address not in self._directories:
            self._directories.append(address)

    def handle_message(self, message: Message) -> None:
        if message.ptype == PacketType.DIRECTORY_QUERY:
            live = [a for a in self._directories if self.network.is_attached(a)]
            if not live:
                # Nothing to assign (bootstrap race, or every registered
                # directory is dead): tell the requester when to retry
                # instead of crashing the sim (registration heartbeats
                # will repopulate the registry).
                self.network.send(
                    message.reply(PacketType.DIRECTORY_ASSIGN, {"retry_after": self.retry_after})
                )
                return
            address = live[self._next % len(live)]
            self._next += 1
            self.network.send(message.reply(PacketType.DIRECTORY_ASSIGN, address))
        elif message.ptype == PacketType.DIRECTORY_REGISTER:
            self.register_directory(int(message.payload["address"]))
        elif message.ptype == PacketType.AGENT_SUSPECT:
            # Failure-detection arbiter: the lead suspects an agent whose
            # lease lapsed; the master confirms the eviction iff the
            # agent's endpoint is actually gone (crashed), protecting
            # slow-but-alive agents from false suspicion.
            payload = message.payload
            evict = not self.network.is_attached(int(payload["address"]))
            self.push.push(
                message.src,
                PacketType.EVICT_CONFIRM,
                {"agent_id": int(payload["agent_id"]), "evict": evict},
            )
        else:
            raise ValueError(f"DirectoryMaster got unexpected {message.ptype.name}")


class Directory(LeaseMixin, FailoverMixin, Entity):
    """One directory server.

    This module keeps construction, dispatch, membership + state
    publication, barrier/run control and result versions; the agent
    failure detector is :class:`~repro.cluster.leases.LeaseMixin`, the
    control-plane failover machine
    :class:`~repro.cluster.failover.FailoverMixin`.

    Parameters
    ----------
    network, config:
        Fabric and shared cluster configuration.
    index:
        Directory index; index 0 is the bootstrap lead.
    """

    KIND = "directory"

    def __init__(self, network, config: ClusterConfig, index: int):
        super().__init__(network, f"directory-{index}", config.seed)
        self.config = config
        self.index = index
        self.pubsub = PubSubSocket(self)
        self.push = PushSocket(self)
        self.peers: List[int] = []  # other directories' addresses (lead first)
        self.state = DirectoryState(
            version=0,
            batch_id=0,
            agents={},
            sketch=CountMinSketch(config.sketch_width, config.sketch_depth, seed=config.seed),
            split_vertices=frozenset(),
            epoch=(0, 0, 0, 0),
        )
        # What only a lead owns (None on a peer), and what every
        # directory mirrors of the lead's run control.
        self.lead_state: Optional[LeadState] = LeadState.fresh() if index == 0 else None
        self.tail = ControlTail()
        # Latest metric snapshot per agent (§3.4.3: "Metrics are passed
        # to Directories"); autoscalers read these.
        self.metric_store: Dict[int, dict] = {}
        # Serving plane: per-program result versions.  The lead bumps a
        # program's version whenever its results may have changed
        # (RUN_START, each completed barrier round, recovery) and
        # broadcasts a RESULT_NOTICE; peers merge and re-publish to
        # their own subscribers (client proxies), whose result caches
        # fence entries on the version they were filled under.
        self.result_versions: Dict[str, int] = {}
        # The sync run's SyncRunController, installed on the lead for
        # the run: called as run_controller(round, step, stats) when all
        # agents report ready (returns the next SUPERSTEP_ADVANCE
        # payload, or None to hold the barrier while a reshape lands),
        # and handed every eviction as run_controller.on_evicted(id).
        self.run_controller = None
        # Failure detection: suspicion is arbitrated by the master
        # (whose address the cluster wires in) before eviction.
        self.master_address: Optional[int] = None
        # Control-plane fault tolerance.  ``term`` is the monotone
        # election counter fencing all directory-originated traffic.
        # ``directory_addresses`` maps every directory index to its
        # address (wired by the cluster) so a candidate can run the
        # deterministic lowest-index-live succession rule locally.
        self.term = 0
        self.directory_addresses: Dict[int, int] = {}
        self.on_lead_change: Optional[Callable[["Directory"], None]] = None
        # Set by the cluster's crash_directory: a dead process neither
        # handles messages nor fires its timer chains (the kernel still
        # runs already-scheduled callbacks; they must no-op).
        self.crashed = False
        # The timer chains (DESIGN §6n "Timer chains"), each ticking only
        # while a synchronous run is live (``_run_live``): the lead's
        # agent leases and DIR_LEASE renewal, a peer's election watch,
        # and every directory's DIRECTORY_REGISTER to the master.
        self._lease_chain = Periodic(self.kernel, config.lease_timeout / 2.0, self._lease_tick)
        self._dir_lease = Periodic(self.kernel, config.dir_lease_interval, self._dir_lease_tick)
        self._election = Periodic(self.kernel, config.dir_lease_timeout / 2.0, self._election_tick)
        self._register = Periodic(self.kernel, config.dir_lease_interval, self._master_register_tick)

    @property
    def is_lead(self) -> bool:
        return self.lead_state is not None

    def _lead(self, what: str) -> LeadState:
        """The state behind a lead-only entry point.  A peer — or a dead
        process the caller still holds — fails loudly instead of acting."""
        if self.crashed or self.lead_state is None:
            raise RuntimeError(f"{what} is owned by the live lead directory, not {self.name}")
        return self.lead_state

    def _trace(self, name: str, category: str, **args) -> None:
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(self.name, name, category, args)

    # -- message dispatch -----------------------------------------------------

    def handle_message(self, message: Message) -> None:
        if self.crashed:
            return  # racing in-flight delivery to a dead process
        if not self._admit_term(message):
            return
        if not self.is_lead and self.peers and message.src == self.peers[0]:
            self.tail.lead_seen = self.now
        try:
            handler, forwarded_as = self._DISPATCH[message.ptype]
        except KeyError:
            raise ValueError(f"Directory got unexpected {message.ptype.name}") from None
        if forwarded_as is not None and not self.is_lead:
            self.succeed_lost_lead()  # may leave this directory the lead
        if forwarded_as is None or self.is_lead:
            handler(self, message)
        else:
            # The lead is always peers[0] for non-leads.
            self.push.push(self.peers[0], forwarded_as, message.payload)

    def _on_subscribe(self, message: Message) -> None:
        # SUBSCRIBE has two wire shapes: the packet-type list, or
        # {"remove": True} from a departing participant.
        if isinstance(message.payload, dict):
            self.pubsub.unsubscribe(message.src)
            return
        self.pubsub.subscribe(message.src, message.payload)
        # Late joiners immediately get the current state so they can
        # start placing edges without waiting for churn.
        if PacketType.RESULT_NOTICE in message.payload and self.result_versions:
            # Seed a late-joining proxy with the current result versions
            # so its first cache fills are fenced against everything
            # that already ran.
            self.push.push(
                message.src,
                PacketType.RESULT_NOTICE,
                {"versions": dict(self.result_versions)},
                term=self.term,
            )
        if PacketType.DIRECTORY_UPDATE in message.payload and self.state.version > 0:
            # The lead's state.sketch is the live master copy, mutated
            # by future delta merges — hand late joiners a snapshot,
            # never the live object.
            payload = self._snapshot_state() if self.is_lead else self.state
            self.push.push(message.src, PacketType.DIRECTORY_UPDATE, payload, term=payload.term)

    def _on_metric_report(self, message: Message) -> None:
        payload = message.payload
        self.metric_store[int(payload["agent_id"])] = dict(payload["metrics"])

    def _on_result_notice(self, message: Message) -> None:
        # Lead-originated version bump: merge (so late SUBSCRIBE
        # seeding works from any directory) and re-publish.
        for prog, version in message.payload["versions"].items():
            if version > self.result_versions.get(prog, 0):
                self.result_versions[prog] = version
        self.pubsub.publish(message.ptype, message.payload, term=message.term)

    # -- lead: membership and sketch ---------------------------------------------

    def _lead_join(self, message: Message) -> None:
        payload = message.payload
        agents = dict(self.state.agents)
        agent_id = int(payload["agent_id"])
        address = int(payload["address"])
        if agents.get(agent_id) == address:
            return  # duplicate JOIN: membership already reflects it
        agents[agent_id] = address
        weight = float(payload.get("weight", 1.0))
        if weight != 1.0:
            self.lead_state.weights[agent_id] = weight
        self._publish(agents, membership=True)

    def _lead_leave(self, message: Message) -> None:
        agent_id = int(message.payload["agent_id"])
        agents = dict(self.state.agents)
        if agents.pop(agent_id, None) is None:
            return  # duplicate LEAVE: the agent is already gone
        self.lead_state.weights.pop(agent_id, None)
        self._publish(agents, membership=True)

    def _lead_rebalance(self, message: Message) -> None:
        self.adopt_rebalance(message.payload["weights"])

    def adopt_rebalance(self, weights: Dict[int, float]) -> None:
        """Adopt a planner re-weight plan (lead only).

        Exactly the shape of a membership change: the weight map merges
        into the lead state, the membership version bumps (so every
        participant's placement cache invalidates — weights change the
        ring), and the new state broadcasts at once under the current
        term.  Adoption is idempotent: a plan that would leave every
        weight unchanged (a duplicate delivery, or a controller-replay
        after an election) neither bumps the epoch nor re-broadcasts.
        """
        lead = self._lead("rebalance adoption")
        members = set(self.state.agents)
        merged = dict(lead.weights)
        for agent_id, weight in weights.items():
            agent_id = int(agent_id)
            if agent_id not in members:
                continue  # stale plan naming a departed member
            weight = float(weight)
            if weight <= 0:
                raise ValueError(f"rebalance weight must be positive, got {weight}")
            if weight == 1.0:
                merged.pop(agent_id, None)
            else:
                merged[agent_id] = weight
        if merged == lead.weights:
            return
        lead.weights = merged
        self.perf.add("rebalance_plans_adopted")
        self._trace(
            "rebalance_adopt",
            "control",
            weights={k: merged.get(k, 1.0) for k in sorted(members)},
        )
        self._publish(membership=True)

    def _lead_sketch_delta(self, message: Message) -> None:
        # Bump at merge time, not broadcast time: the live master sketch
        # changes here, so any state snapshot taken from now on (e.g. a
        # late-joiner SUBSCRIBE reply) must carry a new epoch.
        lead = self.lead_state
        self.state.sketch.merge(message.payload)
        lead.sketch_version += 1
        lead.sketch_dirty = True
        self._maybe_schedule_sketch_broadcast()

    def _lead_split_report(self, message: Message) -> None:
        lead = self.lead_state
        new = {int(v) for v in np.atleast_1d(message.payload)}
        if not new - set(self.state.split_vertices) - lead.pending_split:
            return
        lead.pending_split |= new
        lead.sketch_dirty = True
        self._maybe_schedule_sketch_broadcast()

    def _maybe_schedule_sketch_broadcast(self) -> None:
        lead = self.lead_state
        if lead.broadcast_scheduled:
            return
        wait = max(
            0.0,
            lead.last_sketch_broadcast + self.config.sketch_broadcast_interval - self.now,
        )
        lead.broadcast_scheduled = True
        self.kernel.schedule(wait, self._sketch_broadcast_due)

    def _sketch_broadcast_due(self) -> None:
        lead = self.lead_state
        if self.crashed or lead is None:
            return  # the timer outlived the process, or its lead role
        lead.broadcast_scheduled = False
        self.flush_sketch_broadcast()

    def flush_sketch_broadcast(self) -> None:
        """Broadcast merged sketch deltas and reported splits now, ahead
        of the throttle (lead only; no-op when nothing is pending)."""
        lead = self._lead("the sketch broadcast")
        if not lead.sketch_dirty:
            return
        lead.last_sketch_broadcast = self.now
        lead.sketch_dirty = False
        self._publish()

    # -- lead: state publication ---------------------------------------------

    def _epoch(self, n_split: int) -> tuple:
        """The placement epoch of the lead's state right now.  The term
        leads the token: a successor re-derives its epoch counters from
        the mirror, and without the term a re-derived token could
        collide with a pre-crash epoch of different content, poisoning
        placement caches."""
        lead = self.lead_state
        return (self.term, lead.membership_version, lead.sketch_version, n_split)

    def _publish(
        self,
        agents: Optional[Dict[int, int]] = None,
        *,
        membership: bool = False,
        bump_batch: bool = False,
    ) -> None:
        """Build the next state, sync peers, publish to subscribers.

        The one path by which a lead's state changes: ``agents``
        replaces the membership, ``membership`` says the ring changed
        (join, leave, eviction, re-weight — participants' placement
        caches must invalidate), ``bump_batch`` ticks the batch clock.
        """
        lead, state = self.lead_state, self.state
        if membership:
            lead.membership_version += 1
        split = frozenset(state.split_vertices | lead.pending_split)
        lead.pending_split.clear()
        self.state = DirectoryState(
            version=state.version + 1,
            batch_id=state.batch_id + (1 if bump_batch else 0),
            agents=state.agents if agents is None else agents,
            sketch=state.sketch,  # lead keeps the live master copy
            split_vertices=split,
            weights=lead.weights,
            epoch=self._epoch(len(split)),
            term=self.term,
        )
        snapshot = self._snapshot_state()
        self._trace(
            "directory_broadcast",
            "control",
            version=snapshot.version,
            agents=len(snapshot.agents),
            batch_id=snapshot.batch_id,
        )
        for peer in self.peers:
            self.push.push(peer, PacketType.DIRECTORY_SYNC, snapshot, term=self.term)
        self.pubsub.publish(PacketType.DIRECTORY_UPDATE, snapshot, term=self.term)

    def _snapshot_state(self) -> DirectoryState:
        """The lead's current state with a copy of the sketch and the
        epoch describing its contents *right now* (the live sketch may
        have merged deltas since ``self.state`` was built).  The copy
        shares the lead's table, frozen: the lead's next merge copies
        it once, however many snapshots were taken in between."""
        snapshot = self.state.with_own_sketch()
        snapshot.epoch = self._epoch(len(snapshot.split_vertices))
        return snapshot

    def advance_batch_clock(self) -> int:
        """Bump the monotonically increasing batch id (lead only)."""
        self._lead("the batch clock")
        self._publish(bump_batch=True)
        return self.state.batch_id

    def _on_sync(self, message: Message) -> None:
        incoming: DirectoryState = message.payload
        if incoming.fence <= self.state.fence:
            return  # stale
        self.state = incoming
        self.pubsub.publish(PacketType.DIRECTORY_UPDATE, incoming, term=incoming.term)

    # -- barrier protocol (Figure 2) and run control ---------------------------

    def _lead_collect_ready(self, message: Message) -> None:
        lead = self._lead("readiness aggregation")
        if lead.recovering:
            # An eviction shrank membership mid-round; letting the stale
            # bucket auto-complete would advance the barrier under the
            # run controller's feet.  READYs for the recovered run
            # restart from the resume (or re-issued RUN_START) round.
            return
        payload = message.payload
        round_id = int(payload["round"])
        step = int(payload["step"])
        if round_id <= lead.ready_done:
            return  # duplicate READY for an already-completed barrier
        bucket = lead.ready.setdefault(round_id, {})
        bucket[int(payload["agent_id"])] = payload.get("stats", {})
        if set(bucket) >= set(self.state.agents):
            # Merge in agent-id order: float sums must not depend on the
            # order READY messages happened to arrive in.
            stats: dict = {}
            for agent_id in sorted(bucket):
                fold_stats(stats, bucket[agent_id])
            del lead.ready[round_id]
            lead.ready_done = round_id
            # Every agent has published its step-``step`` serving view:
            # results changed cluster-wide, so proxy caches filled under
            # the previous version must stop serving.
            self.note_results_changed(self.tail.active_program)
            self._trace(
                "barrier_complete",
                "barrier",
                round=round_id,
                step=step,
                agents=len(self.state.agents),
            )
            if self.run_controller is None:
                return
            advance = self.run_controller(round_id, step, stats)
            if advance is not None:
                self.send_advance(advance)

    def send_advance(self, payload: dict) -> None:
        """Broadcast a SUPERSTEP_ADVANCE to every agent (lead only)."""
        lead = self._lead("SUPERSTEP_ADVANCE")
        if payload.get("phase") == "resume":
            # The barrier re-opens (post-scale or post-recovery); leases
            # restart from now so time spent suspended never counts
            # against anyone.
            lead.recovering = False
            self._reseed_leases()
        self._control_broadcast(PacketType.SUPERSTEP_ADVANCE, payload)

    def send_run_start(self, spec) -> None:
        """Broadcast a RUN_START (the RunSpec) to every agent (lead only)."""
        self._lead("RUN_START").begin_run()
        self._reseed_leases()
        # Invalidate anything cached from this program's previous
        # fixpoint: the barrier rounds are about to change its results.
        self.note_results_changed(spec.program.name)
        self._control_broadcast(PacketType.RUN_START, spec)
        self._ensure_dir_lease()
        self._register.arm()

    # -- serving plane: result versions (lead only) -----------------------

    def note_results_changed(self, program: Optional[str]) -> None:
        """Bump ``program``'s result version and notify proxies.

        Called by the barrier on every completed round, by RUN_START /
        recovery broadcasts, and by the engine when an async run
        finalizes.  No-op for ``None`` (a READY with no RUN_START
        mirrored before it).
        """
        self._lead("result versions")
        if program is None:
            return
        version = self.result_versions.get(program, 0) + 1
        self.result_versions[program] = version
        self._trace("result_notice", "serving", program=program, version=version)
        self._control_broadcast(PacketType.RESULT_NOTICE, {"versions": {program: version}})

    def _control_broadcast(self, ptype: PacketType, payload) -> None:
        if ptype in _RUN_CONTROL:
            self._mirror_control(ptype, payload)
        for peer in self.peers:
            self.push.push(peer, ptype, payload, term=self.term)
        self.pubsub.publish(ptype, payload, term=self.term)

    #: packet type -> (handler, forwarded_as).  ``forwarded_as`` names
    #: the rows only the lead handles: a peer relays the payload to the
    #: lead under that type instead (AGENT_READY becomes
    #: READY_REBROADCAST, Figure 2's directory-to-directory exchange).
    #: Every other row is handled wherever it lands.
    _DISPATCH = {
        PacketType.AGENT_JOIN: (_lead_join, PacketType.AGENT_JOIN),
        PacketType.AGENT_LEAVE: (_lead_leave, PacketType.AGENT_LEAVE),
        PacketType.SKETCH_DELTA: (_lead_sketch_delta, PacketType.SKETCH_DELTA),
        PacketType.SPLIT_REPORT: (_lead_split_report, PacketType.SPLIT_REPORT),
        PacketType.REBALANCE_PLAN: (_lead_rebalance, PacketType.REBALANCE_PLAN),
        PacketType.HEARTBEAT: (LeaseMixin._lead_heartbeat, PacketType.HEARTBEAT),
        PacketType.AGENT_READY: (_lead_collect_ready, PacketType.READY_REBROADCAST),
        PacketType.READY_REBROADCAST: (_lead_collect_ready, None),
        PacketType.EVICT_CONFIRM: (LeaseMixin._lead_evict_confirm, None),
        PacketType.SUBSCRIBE: (_on_subscribe, None),
        PacketType.METRIC_REPORT: (_on_metric_report, None),
        PacketType.DIRECTORY_SYNC: (_on_sync, None),
        PacketType.RUN_START: (FailoverMixin._on_lead_control, None),
        PacketType.SUPERSTEP_ADVANCE: (FailoverMixin._on_lead_control, None),
        PacketType.RECOVER: (FailoverMixin._on_lead_control, None),
        PacketType.RESULT_NOTICE: (_on_result_notice, None),
        PacketType.DIR_LEASE: (FailoverMixin._on_dir_lease, None),
    }


#: Lead control broadcasts every directory mirrors in its control tail.
_RUN_CONTROL = (PacketType.RUN_START, PacketType.SUPERSTEP_ADVANCE, PacketType.RECOVER)

