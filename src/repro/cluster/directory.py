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

from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.hashing.ring import ConsistentHashRing
from repro.net.message import Message, PacketType
from repro.net.sockets import PubSubSocket, PushSocket, ReqRepSocket
from repro.partition.cache import PlacementCache
from repro.partition.placer import EdgePlacer
from repro.sim.entity import Entity
from repro.sketch.countmin import CountMinSketch


class DirectoryState:
    """One version of the broadcast directory state.

    Treated as immutable by recipients; the lead directory builds a new
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
    )

    def __init__(
        self,
        version: int,
        batch_id: int,
        agents: Dict[int, int],
        sketch: CountMinSketch,
        split_vertices: frozenset,
        weights: Optional[Dict[int, float]] = None,
        epoch: Optional[tuple] = None,
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
        self.epoch = epoch

    @property
    def epoch_token(self) -> tuple:
        """The placement-invalidation key for this state.

        Falls back to the broadcast version (invalidate-per-broadcast,
        always safe) for states built without an explicit epoch.
        """
        if self.epoch is not None:
            return self.epoch
        return ("v", self.version)

    @property
    def ring_epoch(self) -> Optional[tuple]:
        """What the consistent-hash ring depends on: (term, membership
        version) — joins, leaves, evictions and re-weights bump it,
        sketch flushes and split registrations do not.  ``None`` for
        states built without an explicit epoch (rebuild every time)."""
        return None if self.epoch is None else self.epoch[:2]

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


def bind_placement(
    cache: PlacementCache, state: DirectoryState, config: ClusterConfig
) -> PlacementCache:
    """Point a participant's ``cache`` at ``state`` (every Agent,
    Streamer and ClientProxy adopts broadcasts through here).

    The ring object is rebuilt only when the state's ring epoch moved:
    a sketch flush, split registration or batch-clock tick reuses the
    participant's ring and, through :meth:`PlacementCache.bind`, the
    vertex → ring-owner memo that goes with it.
    """
    ring_epoch = state.ring_epoch
    if cache.placer is not None and ring_epoch is not None and ring_epoch == cache.ring_epoch:
        ring = cache.placer.ring
    else:
        ring = ConsistentHashRing(
            state.agent_ids(),
            virtual_factor=config.virtual_factor,
            hash_fn=config.hash_fn,
            seed=config.seed,
            weights=state.weights,
        )
    placer = EdgePlacer(
        ring,
        state.sketch,
        replication_threshold=config.replication_threshold,
        hash_fn=config.hash_fn,
        split_gate=state.split_vertices,
    )
    return cache.bind(state.epoch_token, placer, ring_epoch=ring_epoch)


class DirectoryMaster(Entity):
    """Bootstrap service: hands out a Directory address on request.

    The master itself is reconstructable: its registry is soft state
    rebuilt from the directories' periodic ``DIRECTORY_REGISTER``
    heartbeats, so a restarted (or standby) master converges on the
    live directory set without any handoff.  ``DIRECTORY_QUERY`` never
    raises — an empty (or fully dead) registry answers with a
    retry-after hint so participants back off and re-query.
    """

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

    def unregister_directory(self, address: int) -> None:
        self._directories = [a for a in self._directories if a != address]
        # Clamp the round-robin cursor: stale modulo state over a shorter
        # list would skew assignment toward the survivors after the gap.
        if self._directories:
            self._next %= len(self._directories)
        else:
            self._next = 0

    def handle_message(self, message: Message) -> None:
        if message.ptype == PacketType.DIRECTORY_QUERY:
            live = [a for a in self._directories if self.network.is_attached(a)]
            if not live:
                # Nothing to assign (bootstrap race, or every registered
                # directory is dead): tell the requester when to retry
                # instead of crashing the sim (registration heartbeats
                # will repopulate the registry).
                ReqRepSocket.reply_to(
                    self.network,
                    message,
                    PacketType.DIRECTORY_ASSIGN,
                    {"retry_after": self.retry_after},
                )
                return
            address = live[self._next % len(live)]
            self._next += 1
            ReqRepSocket.reply_to(self.network, message, PacketType.DIRECTORY_ASSIGN, address)
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


class Directory(Entity):
    """One directory server.

    Parameters
    ----------
    network, config:
        Fabric and shared cluster configuration.
    index:
        Directory index; index 0 is the lead.
    """

    def __init__(self, network, config: ClusterConfig, index: int):
        super().__init__(network, f"directory-{index}", config.seed)
        self.config = config
        self.index = index
        self.is_lead = index == 0
        self.pubsub = PubSubSocket(self)
        self.push = PushSocket(self)
        self.peers: List[int] = []  # other directories' addresses (lead first)
        self.state = DirectoryState(
            version=0,
            batch_id=0,
            agents={},
            sketch=CountMinSketch(config.sketch_width, config.sketch_depth, seed=config.seed),
            split_vertices=frozenset(),
        )
        self._weights: Dict[int, float] = {}
        # Placement-epoch components (lead only; peers mirror the lead's
        # epoch via DIRECTORY_SYNC).  Membership bumps on join/leave,
        # sketch on every delta merge; the split component is the
        # (monotone) registry size at broadcast time.
        self._membership_version = 0
        self._sketch_version = 0
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
        self._active_program: Optional[str] = None
        # Lead-only aggregation state.
        self._pending_split: Set[int] = set()
        self._sketch_dirty = False
        self._last_sketch_broadcast = -1e30
        self._broadcast_scheduled = False
        self._ready: Dict[int, Dict[int, dict]] = {}  # step -> agent id -> stats
        # Highest barrier round already completed this run.  Rounds are
        # monotone within a run, so a READY for a completed round is a
        # stale duplicate and must not re-trigger the controller.
        self._ready_done = -1
        self._membership_dirty = False
        # Engine hook: called by the lead as run_controller(round, step,
        # stats) when all agents report ready.  Returns the next
        # SUPERSTEP_ADVANCE payload, or None to hold the barrier (used
        # for mid-run elastic scaling).
        self.run_controller: Optional[Callable[[int, int, dict], Optional[dict]]] = None
        # Failure detection (lead only).  Leases map agent id -> last
        # heartbeat time; suspicion is arbitrated by the master (whose
        # address the cluster wires in) before eviction.  While
        # ``_recovering`` the barrier is held shut: no READY bucket may
        # complete until the engine finishes reshaping the run.
        self.master_address: Optional[int] = None
        self.on_eviction: Optional[Callable[[int], None]] = None
        self._leases: Dict[int, float] = {}
        # Suspected agents, keyed to when the AGENT_SUSPECT was last
        # sent: if the master's verdict never lands (it crashed, or the
        # confirm was addressed to a dead lead), the probe is re-sent
        # after a lease-timeout so arbitration survives master loss.
        self._suspected: Dict[int, float] = {}
        self._lease_pending = False
        self._recovering = False
        # Control-plane fault tolerance.  ``term`` is the monotone
        # election counter fencing all directory-originated traffic
        # (the control-plane analogue of the data plane's incarnation
        # numbers).  ``directory_addresses`` maps every directory index
        # to its address (wired by the cluster) so a candidate can run
        # the deterministic lowest-index-live succession rule locally.
        self.term = 0
        self.directory_addresses: Dict[int, int] = {}
        self.on_lead_change: Optional[Callable[["Directory"], None]] = None
        # Set by the cluster's crash_directory: a dead process neither
        # handles messages nor fires its timer chains (the kernel still
        # runs already-scheduled callbacks; they must no-op).
        self.crashed = False
        # Lead side: when it last heard a DIR_LEASE_ACK from each peer.
        self._peer_seen: Dict[int, float] = {}
        self._dir_lease_pending = False
        # Peer side: when it last heard *anything* from the lead, plus
        # the mirrored control tail used to reconstruct barrier state on
        # election — the last lead control broadcast (re-sent verbatim
        # under the new term so partially-delivered broadcasts unstick)
        # and the highest barrier round it implies was completed.
        self._lead_seen = 0.0
        self._election_pending = False
        self._mirrored_ctrl: Optional[Tuple[PacketType, object]] = None
        self._mirrored_ready_done = -1
        self._mirrored_run_live = False
        self._register_pending = False

    # -- message dispatch -----------------------------------------------------

    def handle_message(self, message: Message) -> None:
        ptype = message.ptype
        if self.crashed:
            return  # racing in-flight delivery to a dead process
        if not self._admit_term(message):
            return
        if not self.is_lead and self.peers and message.src == self.peers[0]:
            self._lead_seen = self.now
        if ptype == PacketType.DIR_LEASE:
            # Lead's lease renewal: acknowledge so the lead can prune
            # dead peers from its broadcast list.
            self.push.push(
                message.src, PacketType.DIR_LEASE_ACK, {"index": self.index}, term=self.term
            )
            return
        if ptype == PacketType.DIR_LEASE_ACK:
            self._peer_seen[message.src] = self.now
            return
        if ptype == PacketType.SUBSCRIBE:
            if isinstance(message.payload, dict) and message.payload.get("remove"):
                self.pubsub.unsubscribe(message.src)
            else:
                self.pubsub.subscribe(message.src, message.payload)
                # Late joiners immediately get the current state so they
                # can start placing edges without waiting for churn.
                if (
                    PacketType.RESULT_NOTICE in message.payload
                    and self.result_versions
                ):
                    # Seed a late-joining proxy with the current result
                    # versions so its first cache fills are fenced
                    # against everything that already ran.
                    self.push.push(
                        message.src,
                        PacketType.RESULT_NOTICE,
                        {"versions": dict(self.result_versions)},
                        term=self.term,
                    )
                if (
                    PacketType.DIRECTORY_UPDATE in message.payload
                    and self.state.version > 0
                ):
                    # The lead's state.sketch is the live master copy,
                    # mutated by future delta merges — hand late joiners
                    # a snapshot, never the live object.
                    payload = self._snapshot_state() if self.is_lead else self.state
                    self.push.push(
                        message.src, PacketType.DIRECTORY_UPDATE, payload, term=payload.term
                    )
        elif ptype == PacketType.AGENT_JOIN:
            self._to_lead(message)
        elif ptype == PacketType.AGENT_LEAVE:
            self._to_lead(message)
        elif ptype == PacketType.SKETCH_DELTA:
            self._to_lead(message)
        elif ptype == PacketType.SPLIT_REPORT:
            self._to_lead(message)
        elif ptype == PacketType.REBALANCE_PLAN:
            self._to_lead(message)
        elif ptype == PacketType.HEARTBEAT:
            self._to_lead(message)
        elif ptype == PacketType.EVICT_CONFIRM:
            self._on_evict_confirm(message.payload)
        elif ptype == PacketType.AGENT_READY:
            self._on_agent_ready(message)
        elif ptype == PacketType.READY_REBROADCAST:
            self._on_ready_rebroadcast(message)
        elif ptype == PacketType.METRIC_REPORT:
            payload = message.payload
            self.metric_store[int(payload["agent_id"])] = dict(payload["metrics"])
        elif ptype == PacketType.DIRECTORY_SYNC:
            self._on_sync(message)
        elif ptype in (
            PacketType.SUPERSTEP_ADVANCE,
            PacketType.RUN_START,
            PacketType.RECOVER,
        ):
            # Lead-originated control, re-published to local subscribers.
            # Mirror the control tail: on election the successor re-sends
            # this broadcast verbatim under the new term, so agents a
            # partial delivery left behind can proceed.
            self._mirror_control(ptype, message.payload)
            self.pubsub.publish(ptype, message.payload, term=message.term)
        elif ptype == PacketType.RESULT_NOTICE:
            # Lead-originated version bump: merge (so late SUBSCRIBE
            # seeding works from any directory) and re-publish.
            for prog, version in message.payload["versions"].items():
                if version > self.result_versions.get(prog, 0):
                    self.result_versions[prog] = version
            self.pubsub.publish(ptype, message.payload, term=message.term)
        else:
            raise ValueError(f"Directory got unexpected {ptype.name}")

    def _admit_term(self, message: Message) -> bool:
        """Fence directory-origin traffic by term; adopt newer terms.

        Returns ``False`` for stale-term messages (dropped and counted).
        A higher term on any message means a successor was elected; an
        old lead that somehow survived steps down immediately
        (split-brain safety — in the simulation a replaced lead is
        always detached, but the rule costs nothing and is load-bearing
        the moment partitions can heal).
        """
        term = message.term
        if term is None:
            return True
        if term < self.term:
            self.network.stats.stale_term_drops += 1
            return False
        if term > self.term:
            self.term = term
            if self.is_lead:
                self._step_down(message.src)
            elif self.peers and self.peers[0] != message.src:
                self.peers = [message.src]
        return True

    def _mirror_control(self, ptype: PacketType, payload) -> None:
        self._mirrored_ctrl = (ptype, payload)
        if ptype == PacketType.RUN_START:
            self._mirrored_ready_done = -1
            self._mirrored_run_live = True
            program = getattr(payload, "program", None)
            self._active_program = getattr(program, "name", None)
            self._ensure_election_watch()
            self._ensure_master_register()
        elif ptype == PacketType.SUPERSTEP_ADVANCE:
            phase = payload.get("phase") if isinstance(payload, dict) else None
            if phase == "halt":
                self._mirrored_run_live = False
            else:
                round_id = int(payload.get("round", 0))
                # The lead broadcast round N only after completing
                # barrier round N-1.
                self._mirrored_ready_done = max(self._mirrored_ready_done, round_id - 1)

    def _step_down(self, new_lead: int) -> None:
        """Demote this directory: a higher-term lead exists."""
        self.is_lead = False
        self.run_controller = None
        self.on_eviction = None
        self._ready.clear()
        self.peers = [new_lead]
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name, "step_down", "control", {"term": self.term}
            )

    def _to_lead(self, message: Message) -> None:
        """Handle membership/sketch traffic at the lead, or forward it."""
        if self.is_lead:
            handler = {
                PacketType.AGENT_JOIN: self._lead_join,
                PacketType.AGENT_LEAVE: self._lead_leave,
                PacketType.SKETCH_DELTA: self._lead_sketch_delta,
                PacketType.SPLIT_REPORT: self._lead_split_report,
                PacketType.REBALANCE_PLAN: self._lead_rebalance,
                PacketType.HEARTBEAT: self._lead_heartbeat,
            }[message.ptype]
            handler(message.payload)
        else:
            # The lead is always peers[0] for non-leads.
            self.push.push(self.peers[0], message.ptype, message.payload)

    # -- lead: membership and sketch ---------------------------------------------

    def _lead_join(self, payload: dict) -> None:
        agents = dict(self.state.agents)
        agent_id = int(payload["agent_id"])
        address = int(payload["address"])
        if agents.get(agent_id) == address:
            return  # duplicate JOIN: membership already reflects it
        agents[agent_id] = address
        weight = float(payload.get("weight", 1.0))
        if weight != 1.0:
            self._weights[agent_id] = weight
        self._membership_version += 1
        self._replace_state(agents=agents, bump_batch=False)
        self._broadcast_now()

    def _lead_leave(self, payload: dict) -> None:
        agents = dict(self.state.agents)
        if agents.pop(int(payload["agent_id"]), None) is None:
            return  # duplicate LEAVE: the agent is already gone
        self._weights.pop(int(payload["agent_id"]), None)
        self._membership_version += 1
        self._replace_state(agents=agents, bump_batch=False)
        self._broadcast_now()

    def _lead_rebalance(self, payload) -> None:
        """Adopt a planner re-weight plan (lead only).

        Exactly the shape of a membership change: the weight map merges
        into lead-only state, the membership version bumps (so every
        participant's placement cache invalidates — weights change the
        ring), and the new state broadcasts at once under the current
        term.  Adoption is idempotent: a plan that would leave every
        weight unchanged (a duplicate delivery, or a controller-replay
        after an election) neither bumps the epoch nor re-broadcasts.
        """
        weights = payload["weights"] if isinstance(payload, dict) else payload
        members = set(self.state.agents)
        merged = dict(self._weights)
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
        if merged == self._weights:
            return
        self._weights = merged
        self.network.stats.rebalance_adoptions += 1
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name,
                "rebalance_adopt",
                "control",
                {"weights": {k: merged.get(k, 1.0) for k in sorted(members)}},
            )
        self._membership_version += 1
        self._replace_state(agents=self.state.agents, bump_batch=False)
        self._broadcast_now()

    def adopt_rebalance(self, weights: Dict[int, float]) -> None:
        """Direct-call form of a REBALANCE_PLAN adoption (lead only)."""
        if not self.is_lead:
            raise RuntimeError("rebalance plans are adopted by the lead directory")
        self._lead_rebalance({"weights": weights})

    def _lead_sketch_delta(self, delta: CountMinSketch) -> None:
        # Bump at merge time, not broadcast time: the live master sketch
        # changes here, so any state snapshot taken from now on (e.g. a
        # late-joiner SUBSCRIBE reply) must carry a new epoch.
        self.state.sketch.merge(delta)
        self._sketch_version += 1
        self._sketch_dirty = True
        self._maybe_schedule_sketch_broadcast()

    def _lead_split_report(self, payload) -> None:
        new = {int(v) for v in np.atleast_1d(payload)}
        if not new - set(self.state.split_vertices) - self._pending_split:
            return
        self._pending_split |= new
        self._sketch_dirty = True
        self._maybe_schedule_sketch_broadcast()

    def _maybe_schedule_sketch_broadcast(self) -> None:
        if self._broadcast_scheduled:
            return
        wait = max(
            0.0,
            self._last_sketch_broadcast + self.config.sketch_broadcast_interval - self.now,
        )
        self._broadcast_scheduled = True
        self.kernel.schedule(wait, self._sketch_broadcast_due)

    def _sketch_broadcast_due(self) -> None:
        self._broadcast_scheduled = False
        if self.crashed:
            return
        if not self._sketch_dirty:
            return
        self._last_sketch_broadcast = self.now
        self._sketch_dirty = False
        self._replace_state(agents=self.state.agents, bump_batch=False)
        self._broadcast_now()

    def _replace_state(self, agents: Dict[int, int], bump_batch: bool) -> None:
        split = frozenset(self.state.split_vertices | self._pending_split)
        self._pending_split.clear()
        self.state = DirectoryState(
            version=self.state.version + 1,
            batch_id=self.state.batch_id + (1 if bump_batch else 0),
            agents=agents,
            sketch=self.state.sketch,  # lead keeps the live master copy
            split_vertices=split,
            weights=self._weights,
            # The term leads the epoch token: a successor re-derives its
            # epoch counters from the mirror, and without the term a
            # re-derived token could collide with a pre-crash epoch of
            # different content, poisoning placement caches.
            epoch=(self.term, self._membership_version, self._sketch_version, len(split)),
            term=self.term,
        )

    def advance_batch_clock(self) -> int:
        """Bump the monotonically increasing batch id (lead only)."""
        if not self.is_lead:
            raise RuntimeError("batch clock is owned by the lead directory")
        self._replace_state(agents=self.state.agents, bump_batch=True)
        self._broadcast_now()
        return self.state.batch_id

    def _snapshot_state(self) -> DirectoryState:
        """An immutable copy of the lead's state, stamped with the epoch
        describing its contents *right now* (the live sketch may have
        merged deltas since ``self.state`` was built)."""
        return DirectoryState(
            version=self.state.version,
            batch_id=self.state.batch_id,
            agents=self.state.agents,
            sketch=self.state.sketch.copy(),
            split_vertices=self.state.split_vertices,
            weights=self.state.weights,
            epoch=(
                self.term,
                self._membership_version,
                self._sketch_version,
                len(self.state.split_vertices),
            ),
            term=self.term,
        )

    def _broadcast_now(self) -> None:
        """Sync peers and publish the new state to local subscribers."""
        snapshot = self._snapshot_state()
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name,
                "directory_broadcast",
                "control",
                {
                    "version": snapshot.version,
                    "agents": len(snapshot.agents),
                    "batch_id": snapshot.batch_id,
                },
            )
        for peer in self.peers:
            self.push.push(peer, PacketType.DIRECTORY_SYNC, snapshot, term=self.term)
        self.pubsub.publish(PacketType.DIRECTORY_UPDATE, snapshot, term=self.term)

    def _on_sync(self, message: Message) -> None:
        incoming: DirectoryState = message.payload
        if incoming.fence <= self.state.fence:
            return  # stale
        self.state = incoming
        self.pubsub.publish(
            PacketType.DIRECTORY_UPDATE, incoming, term=incoming.term
        )

    # -- barrier protocol (Figure 2) ------------------------------------------------

    def _on_agent_ready(self, message: Message) -> None:
        payload = message.payload
        if self.is_lead:
            self._lead_collect_ready(int(payload["agent_id"]), payload)
        else:
            self.push.push(self.peers[0], PacketType.READY_REBROADCAST, payload)

    def _on_ready_rebroadcast(self, message: Message) -> None:
        if not self.is_lead:
            raise RuntimeError("only the lead aggregates readiness")
        payload = message.payload
        self._lead_collect_ready(int(payload["agent_id"]), payload)

    def _lead_collect_ready(self, agent_id: int, payload: dict) -> None:
        if self._recovering:
            # An eviction shrank membership mid-round; letting the stale
            # bucket auto-complete would advance the barrier under the
            # engine's feet.  READYs for the recovered run restart from
            # the resume (or re-issued RUN_START) round.
            return
        round_id = int(payload["round"])
        step = int(payload["step"])
        if round_id <= self._ready_done:
            return  # duplicate READY for an already-completed barrier
        bucket = self._ready.setdefault(round_id, {})
        bucket[agent_id] = payload.get("stats", {})
        if set(bucket) >= set(self.state.agents):
            # Merge in agent-id order: float sums must not depend on the
            # order READY messages happened to arrive in.
            stats = _merge_stats(bucket[k] for k in sorted(bucket))
            del self._ready[round_id]
            self._ready_done = round_id
            # Every agent has published its step-``step`` serving view:
            # results changed cluster-wide, so proxy caches filled under
            # the previous version must stop serving.
            self.note_results_changed(self._active_program)
            tracer = self.network.tracer
            if tracer is not None:
                tracer.instant(
                    self.name,
                    "barrier_complete",
                    "barrier",
                    {"round": round_id, "step": step, "agents": len(self.state.agents)},
                )
            if self.run_controller is None:
                return
            advance = self.run_controller(round_id, step, stats)
            if advance is not None:
                self.send_advance(advance)

    def send_advance(self, payload: dict) -> None:
        """Broadcast a SUPERSTEP_ADVANCE to every agent (lead only)."""
        if payload.get("phase") == "resume":
            # The barrier re-opens (post-scale or post-recovery); leases
            # restart from now so time spent suspended never counts
            # against anyone.
            self._recovering = False
            self._reseed_leases()
        self._control_broadcast(PacketType.SUPERSTEP_ADVANCE, payload)

    def send_run_start(self, payload) -> None:
        """Broadcast a RUN_START to every agent (lead only)."""
        # Barrier rounds restart from zero with each run.
        self._ready.clear()
        self._ready_done = -1
        self._recovering = False
        self._suspected.clear()
        self._reseed_leases()
        # The payload is the RunSpec; remember whose results the
        # barrier rounds are about to change, and invalidate anything
        # cached from that program's previous fixpoint.
        program = getattr(payload, "program", None)
        self._active_program = getattr(program, "name", None)
        self.note_results_changed(self._active_program)
        self._control_broadcast(PacketType.RUN_START, payload)
        self._ensure_dir_lease()
        self._ensure_master_register()

    # -- failure detection (lead only) ----------------------------------------

    def _reseed_leases(self) -> None:
        if self.config.heartbeat_interval <= 0:
            return
        now = self.now
        self._leases = {agent_id: now for agent_id in self.state.agents}
        if not self._lease_pending:
            self._lease_pending = True
            self.kernel.schedule(self.config.lease_timeout / 2.0, self._lease_tick)

    def _lead_heartbeat(self, payload: dict) -> None:
        self._leases[int(payload["agent_id"])] = self.now

    def _lease_tick(self) -> None:
        self._lease_pending = False
        controller = self.run_controller
        if (
            self.crashed
            or controller is None
            or getattr(controller, "done", False)
            or self.config.heartbeat_interval <= 0
        ):
            return  # chain ends with the run; the next run re-arms it
        now = self.now
        # While recovery reshapes the cluster — or an apply-only drain /
        # suspension holds the barrier — agents legitimately go quiet;
        # refresh instead of suspecting.  But only for endpoints that
        # still answer: blanket refreshes during a suspension meant an
        # agent crashing with EDGE_MIGRATE traffic in flight was never
        # suspected, and the migration-quiescence poll deadlocked on an
        # ack the victim could no longer send.  A detached endpoint is a
        # dead process (the connection refuses), quiet phase or not.
        quiet = self._recovering or getattr(controller, "phase", "") == "apply_only"
        for agent_id in sorted(self.state.agents):
            last = self._leases.get(agent_id)
            alive = self.network.is_attached(self.state.agents[agent_id])
            if last is None or (quiet and alive):
                self._leases[agent_id] = now
                continue
            if agent_id in self._suspected:
                # Verdict pending at the master; re-ask if it has been
                # silent for a full lease (master crash/restart window).
                if now - self._suspected[agent_id] > self.config.lease_timeout:
                    self._suspect(agent_id, now - last, resend=True)
                continue
            if now - last > self.config.lease_timeout:
                self._suspect(agent_id, now - last)
        self._lease_pending = True
        self.kernel.schedule(self.config.lease_timeout / 2.0, self._lease_tick)

    def _suspect(self, agent_id: int, overdue: float, resend: bool = False) -> None:
        if self.master_address is None:
            return  # nobody to arbitrate; keep waiting
        self._suspected[agent_id] = self.now
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name,
                "suspect",
                "failure",
                {"agent_id": agent_id, "overdue": overdue, "resend": resend},
            )
        if not resend:
            self.network.stats.lease_expirations += 1
            interval = self.config.heartbeat_interval
            self.network.stats.heartbeats_missed += (
                max(1, int(overdue / interval)) if interval > 0 else 1
            )
        self.push.push(
            self.master_address,
            PacketType.AGENT_SUSPECT,
            {"agent_id": agent_id, "address": self.state.agents.get(agent_id, -1)},
        )

    def _on_evict_confirm(self, payload: dict) -> None:
        if not self.is_lead:
            raise RuntimeError("only the lead evicts members")
        agent_id = int(payload["agent_id"])
        self._suspected.pop(agent_id, None)
        if not payload.get("evict"):
            # False suspicion (slow but alive): refresh and move on.
            self._leases[agent_id] = self.now
            return
        if agent_id not in self.state.agents:
            return  # duplicate confirmation; already evicted
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(self.name, "evict", "failure", {"agent_id": agent_id})
        agents = dict(self.state.agents)
        agents.pop(agent_id)
        self._weights.pop(agent_id, None)
        self._leases.pop(agent_id, None)
        self.metric_store.pop(agent_id, None)
        self._membership_version += 1
        # Hold the barrier shut *before* anything else: the eviction
        # shrinks membership, and a stale READY bucket must not
        # auto-complete against the smaller set.
        self._recovering = True
        self._ready.clear()
        self._replace_state(agents=agents, bump_batch=False)
        self._broadcast_now()
        if self.on_eviction is not None:
            self.on_eviction(agent_id)

    def broadcast_recover(self, payload: dict) -> None:
        """Broadcast a RECOVER directive to every agent (lead only)."""
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name,
                "recover_broadcast",
                "recovery",
                {
                    "mode": payload.get("mode"),
                    "step": payload.get("step"),
                    "incarnation": payload.get("incarnation"),
                },
            )
        # Rollback rewinds every agent's serving tag to the checkpoint
        # step; restart drops views entirely.  Either way, cached
        # replies from the pre-recovery snapshot must stop serving.
        self.note_results_changed(self._active_program)
        self._control_broadcast(PacketType.RECOVER, payload)

    # -- control-plane fault tolerance: leases, elections, succession ------

    @property
    def _failover_on(self) -> bool:
        """Directory failover requires a lease cadence and a peer."""
        return self.config.dir_lease_interval > 0 and len(self.directory_addresses) > 1

    def _run_live(self) -> bool:
        """Whether a synchronous run is live from this directory's view.

        The lease/election/registration timer chains are scoped to run
        liveness so the kernel can go quiescent between runs (``settle``
        would otherwise never drain).  The lead reads its controller;
        peers read the mirrored control tail.
        """
        if self.is_lead:
            controller = self.run_controller
            return controller is not None and not getattr(controller, "done", False)
        return self._mirrored_run_live

    def _ensure_dir_lease(self) -> None:
        """Arm the lead's DIR_LEASE renewal chain (idempotent)."""
        if not self.is_lead or not self._failover_on or self._dir_lease_pending:
            return
        self._dir_lease_pending = True
        self.kernel.schedule(self.config.dir_lease_interval, self._dir_lease_tick)

    def _dir_lease_tick(self) -> None:
        self._dir_lease_pending = False
        if self.crashed or not self.is_lead or not self._failover_on or not self._run_live():
            return  # chain ends with the run; send_run_start re-arms it
        # Prune peers whose endpoint is gone: broadcasts to them would
        # only churn the reliable transport's abandonment path.
        self.peers = [p for p in self.peers if self.network.is_attached(p)]
        for peer in self.peers:
            self.push.push(
                peer,
                PacketType.DIR_LEASE,
                {"term": self.term, "version": self.state.version},
                term=self.term,
            )
        self._dir_lease_pending = True
        self.kernel.schedule(self.config.dir_lease_interval, self._dir_lease_tick)

    def _ensure_election_watch(self) -> None:
        """Arm a peer's lead-liveness watchdog (idempotent)."""
        if self.is_lead or not self._failover_on or self._election_pending:
            return
        self._election_pending = True
        self.kernel.schedule(self.config.dir_lease_timeout / 2.0, self._election_tick)

    def _election_tick(self) -> None:
        self._election_pending = False
        if self.crashed or self.is_lead or not self._failover_on or not self._mirrored_run_live:
            return
        lead_addr = self.peers[0] if self.peers else None
        if lead_addr is None:
            return
        overdue = self.now - self._lead_seen > self.config.dir_lease_timeout
        if overdue:
            if self.network.is_attached(lead_addr):
                # Lease lapsed but the endpoint still answers the
                # liveness probe (slow lead, lossy control path): renew
                # locally rather than electing over a live lead — the
                # same arbitration idiom the master applies to agents.
                self._lead_seen = self.now
            elif self._is_successor():
                self._become_lead()
                return
            # else: a lower-index live peer will take the term; keep
            # watching in case it dies before it does.
        self._ensure_election_watch()

    def _is_successor(self) -> bool:
        """Deterministic succession: lowest-index live directory wins.

        Liveness is the fabric's attachment probe, so every candidate
        evaluates the same predicate on the same state — no votes, no
        randomness, and therefore per-seed reproducible term sequences.
        """
        for idx in sorted(self.directory_addresses):
            if idx == self.index:
                return True
            if self.network.is_attached(self.directory_addresses[idx]):
                return False
        return False  # pragma: no cover - self is always attached

    def _become_lead(self) -> None:
        """Take over as lead under a bumped term.

        Mirrored state (DirectoryState, result versions, the control
        tail) carries over; lead-only aggregation state (weights, epoch
        counters, READY buckets, leases) is reconstructed here, and
        whatever the mirror could not see is re-driven: agents re-report
        READY on the term bump, and the re-broadcast control tail
        unsticks agents a partially-delivered broadcast left behind.
        """
        self.term += 1
        self.is_lead = True
        self.network.stats.lead_elections += 1
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name,
                "lead_elected",
                "control",
                {"term": self.term, "index": self.index},
            )
        self.peers = [
            addr
            for idx, addr in sorted(self.directory_addresses.items())
            if idx != self.index and self.network.is_attached(addr)
        ]
        # Lead-only aggregation state, rebuilt from the mirror.
        self._weights = dict(self.state.weights)
        epoch = self.state.epoch
        if epoch is not None and len(epoch) == 4:
            self._membership_version = int(epoch[1])
            self._sketch_version = int(epoch[2])
        self._pending_split = set()
        self._sketch_dirty = False
        self._ready = {}
        self._ready_done = self._mirrored_ready_done
        self._suspected = {}
        self._leases = {}
        # If the old lead died mid-recovery the barrier stays shut until
        # the engine's resume reopens it; the control-tail re-broadcast
        # below lets agents that missed the RECOVER catch up.
        self._recovering = (
            self._mirrored_ctrl is not None
            and self._mirrored_ctrl[0] == PacketType.RECOVER
        )
        if self.on_lead_change is not None:
            # The cluster re-installs the engine's controller hooks and
            # repoints ``cluster.lead`` before any barrier can complete.
            self.on_lead_change(self)
        self._reseed_leases()
        # Re-announce result versions past the mirror.  The dead lead
        # may have bumped further than it synced; proxies *assign* (not
        # max-merge) versions on a term bump and clear their caches, so
        # the non-monotone adoption is safe.
        if self.result_versions:
            versions = {prog: v + 1 for prog, v in self.result_versions.items()}
            self.result_versions = versions
            self._control_broadcast(
                PacketType.RESULT_NOTICE, {"versions": dict(versions)}
            )
        # New-term state broadcast: re-fences every subscriber and rolls
        # the placement epoch (its leading component is the term).
        self._replace_state(agents=self.state.agents, bump_batch=False)
        self._broadcast_now()
        # Re-drive the last control broadcast verbatim under the new
        # term: agents already past it drop the duplicate (round/run_id
        # guards), stuck agents proceed.
        if self._mirrored_ctrl is not None and self._mirrored_run_live:
            ptype, payload = self._mirrored_ctrl
            self._control_broadcast(ptype, payload)
        self._ensure_dir_lease()

    def _ensure_master_register(self) -> None:
        """Arm the periodic DIRECTORY_REGISTER heartbeat (idempotent).

        Every directory re-registers on a cadence so a restarted master
        rebuilds its registry as soft state; needs only the lease knob,
        not a peer (single-directory clusters still re-register).
        """
        if self.config.dir_lease_interval <= 0 or self._register_pending:
            return
        self._register_pending = True
        self.kernel.schedule(self.config.dir_lease_interval, self._master_register_tick)

    def _master_register_tick(self) -> None:
        self._register_pending = False
        if self.crashed or self.config.dir_lease_interval <= 0 or not self._run_live():
            return
        master = self.master_address
        if master is not None and self.network.is_attached(master):
            self.push.push(
                master,
                PacketType.DIRECTORY_REGISTER,
                {"index": self.index, "address": self.address},
            )
        self._register_pending = True
        self.kernel.schedule(self.config.dir_lease_interval, self._master_register_tick)

    # -- serving plane: result versions (lead only) -----------------------

    def note_results_changed(self, program: Optional[str]) -> None:
        """Bump ``program``'s result version and notify proxies.

        Called by the barrier on every completed round, by RUN_START /
        recovery broadcasts, and by the engine when an async run
        finalizes.  No-op for ``None`` (e.g. a run started before any
        program was known) and on non-lead directories.
        """
        if not self.is_lead or program is None:
            return
        version = self.result_versions.get(program, 0) + 1
        self.result_versions[program] = version
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(
                self.name,
                "result_notice",
                "serving",
                {"program": program, "version": version},
            )
        self._control_broadcast(
            PacketType.RESULT_NOTICE, {"versions": {program: version}}
        )

    def _control_broadcast(self, ptype: PacketType, payload) -> None:
        if not self.is_lead:
            raise RuntimeError("control broadcasts originate at the lead directory")
        if ptype in (
            PacketType.SUPERSTEP_ADVANCE,
            PacketType.RUN_START,
            PacketType.RECOVER,
        ):
            # The lead mirrors its own tail too: it may be *elected* lead
            # later in life, and succession math reads these fields.
            self._mirror_control(ptype, payload)
        for peer in self.peers:
            self.push.push(peer, ptype, payload, term=self.term)
        self.pubsub.publish(ptype, payload, term=self.term)


def _merge_stats(stat_dicts) -> dict:
    """Aggregate per-agent stats (residuals, active counts, ...).

    Keys prefixed ``max_`` fold by maximum (e.g. the worst per-vertex
    residual of a delta run); everything else sums.  Both reductions are
    order-insensitive, so merged stats stay deterministic.
    """
    merged: dict = {}
    for stats in stat_dicts:
        for key, value in stats.items():
            if key.startswith("max_"):
                merged[key] = max(merged.get(key, value), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged
