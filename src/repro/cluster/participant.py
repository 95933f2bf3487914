"""Participants: the entities that subscribe to a Directory (§3.1).

ElGA's entities come in two kinds: Directories, and the *Participants*
that compute placement from a Directory's broadcast state — Agents,
Streamers and ClientProxies.  What the three share lives here, once:

* the **subscription** — a SUBSCRIBE for the class's :attr:`TOPICS`,
  pushed at construction and again after every re-home;
* the **door** — control traffic from a deposed lead (a term below the
  highest one witnessed) is dropped and counted before anything looks
  at it, and every other packet goes through the class's
  :attr:`_DISPATCH` table;
* the **state fence and adoption** — broadcast states order by
  ``(term, version)``; one that passes is bound to the participant's
  :class:`~repro.partition.cache.PlacementCache` by the one
  :func:`bind_placement`;
* **re-homing** — a participant whose Directory's endpoint is gone asks
  the DirectoryMaster for a live one (``DIRECTORY_QUERY`` over REQ/REP)
  and moves its subscription there.  The exchange has to survive the
  master being down too (crashed, restarting, or answering
  ``retry_after`` while its soft-state registry rebuilds), so each
  request carries a timeout and failures retry with exponential
  backoff.  Nothing here ticks: each kind has its own trigger for
  :meth:`Participant.home_lost` (the Agent's heartbeat tick and run
  start, ``ClientProxy.query``, ``ElGACluster.ingest`` for Streamers).

What differs is supplied through three hooks — :meth:`_adopted`,
:meth:`_on_term_bump`, :meth:`_on_rehomed` — and an Agent additionally
overrides :meth:`_adopt` to park a state while a superstep is in flight.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.directory import DirectoryState
from repro.hashing.ring import shared_ring
from repro.net.message import Message, PacketType
from repro.net.sockets import PushSocket, ReqRepSocket
from repro.partition.cache import PlacementCache
from repro.partition.placer import EdgePlacer
from repro.sim.entity import Entity

#: DIRECTORY_QUERY retry policy: simulated seconds a participant waits
#: for the first DIRECTORY_ASSIGN before cancelling and re-querying, the
#: exponential factor applied per attempt (to the reply timeout and the
#: retry delay alike, capped at ``_MAX_BACKOFF``), and the attempts
#: after which it gives up until the next trigger.
MASTER_QUERY_TIMEOUT = 2e-3
MASTER_QUERY_BACKOFF = 2.0
MASTER_QUERY_RETRIES = 16
_MAX_BACKOFF = 0.1


def bind_placement(cache: PlacementCache, state: DirectoryState, config: ClusterConfig) -> None:
    """Point a participant's ``cache`` at ``state``.

    The ring is the one :func:`~repro.hashing.ring.shared_ring` keeps
    for the state's members and weights: every participant that adopts
    the same membership holds the same object, and a broadcast that
    leaves the membership alone (sketch flush, split registration,
    batch-clock tick, a successor lead's first state) hands back the
    ring the participant already has.  What each participant remembers
    *about* the ring — the vertex → ring-owner memo — stays its own and
    survives, through :meth:`PlacementCache.bind`, for as long as the
    state's ring epoch does.
    """
    ring = shared_ring(
        state.agent_ids(), state.weights, config.virtual_factor, config.hash_fn, config.seed
    )
    placer = EdgePlacer(
        ring,
        state.sketch,
        replication_threshold=config.replication_threshold,
        hash_fn=config.hash_fn,
        split_gate=state.split_vertices,
    )
    cache.bind(state.epoch_token, placer, ring_epoch=state.ring_epoch)


class Participant(Entity):
    """One subscriber of the directory system.

    ``placer`` is the participant's persistent
    :class:`~repro.partition.cache.PlacementCache` (``None`` until the
    first broadcast lands), rebound to a fresh EdgePlacer on every
    adopted state; its memos, and the ring behind ``placer.ring``,
    survive broadcasts that leave the tokens they depend on unchanged.
    """

    #: Packet types subscribed to at the home Directory.
    TOPICS: Tuple[PacketType, ...] = (PacketType.DIRECTORY_UPDATE,)

    #: An entity that can die abruptly sets this; a dead one must stop
    #: re-querying.
    crashed = False

    def __init__(
        self,
        network,
        name: str,
        config: ClusterConfig,
        node: int,
        directory_address: int,
        master_address: Optional[int] = None,
    ):
        super().__init__(network, name, config.seed)
        self.config = config
        # Read by the fabric (same-node latency) on every send, the
        # SUBSCRIBE below included.
        self.node = node
        self.directory_address = directory_address
        # The well-known bootstrap endpoint, asked for a live Directory
        # when the home one dies (None: this participant never re-homes).
        self.master_address = master_address
        # Highest control-plane term witnessed.
        self.term = 0
        self.push = PushSocket(self)
        self.dstate: Optional[DirectoryState] = None
        self.placer: Optional[PlacementCache] = None
        self._master_req = ReqRepSocket(self)
        self._rehome_pending = False
        self._rehome_attempts = 0
        self._subscribe()

    def _subscribe(self) -> None:
        # Idempotent at the directory tier; the reply seeds the current
        # state (and term).
        self.push.push(self.directory_address, PacketType.SUBSCRIBE, self.TOPICS)

    # -- hooks ----------------------------------------------------------------

    def _adopted(self, previous: Optional[DirectoryState], before: Optional[EdgePlacer]) -> None:
        """``dstate`` and ``placer`` now describe a newer state than
        ``previous`` (``None`` on the first adoption), which ``before``
        was the placer of."""

    def _on_term_bump(self) -> None:
        """The message just handled raised :attr:`term`: a successor
        lead took over."""

    def _on_rehomed(self) -> None:
        """``directory_address`` now names a live Directory."""
        self._subscribe()

    # -- the door -------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        # Term fence: control traffic from a deposed lead must not be
        # acted on (the control-plane analogue of incarnation fencing).
        # ``term`` is raised only after the handler ran, so a handler
        # can still tell a newer-term message by comparing the two.
        term = message.term
        newer = False
        if term is not None:
            if term < self.term:
                self.perf.add("stale_term_drops")
                return
            newer = term > self.term
        try:
            handler, whole = self._DISPATCH[message.ptype]
        except KeyError:
            raise ValueError(f"{self.name} got unexpected {message.ptype.name}") from None
        handler(self, message if whole else message.payload)
        if newer:
            self.term = term
            self._on_term_bump()

    # -- adoption -------------------------------------------------------------

    def _on_directory_update(self, state: DirectoryState) -> None:
        # (term, version) fence: a freshly elected lead's first state
        # may carry a lower version than the dead lead's last broadcast
        # (sync loss), but its higher term must still win.
        if self.dstate is not None and state.fence <= self.dstate.fence:
            return
        self._adopt(state)

    def _adopt(self, state: DirectoryState) -> None:
        previous = self.dstate
        if self.placer is None:
            self.placer = PlacementCache(counters=self.perf)
        before = self.placer.placer
        self.dstate = state
        bind_placement(self.placer, state, self.config)
        self._adopted(previous, before)

    # -- re-homing ------------------------------------------------------------

    def home_lost(self) -> bool:
        """Whether the home directory's endpoint is gone — in which case
        a re-home cycle is running from here on and nothing should be
        pushed to the old address."""
        if self.network.is_attached(self.directory_address):
            return False
        self._maybe_rehome()
        return True

    def _maybe_rehome(self) -> None:
        """The home directory is gone: start a master DIRECTORY_QUERY
        cycle unless one is already running."""
        if self._rehome_pending or self.crashed or self.master_address is None:
            return
        self._rehome_pending = True
        self._rehome_attempts = 0
        self._query_master()

    def _rehome_backoff(self) -> float:
        return min(
            MASTER_QUERY_TIMEOUT * MASTER_QUERY_BACKOFF ** min(self._rehome_attempts, 10),
            _MAX_BACKOFF,
        )

    def _query_master(self) -> None:
        if self.crashed:
            self._rehome_pending = False
            return
        master = self.master_address
        if not self.network.is_attached(master) or self._master_req.busy:
            # Master down too (or a cancelled request still draining):
            # back off and retry — a restarted master gets rewired in.
            self._retry_rehome()
            return
        request_id = self._master_req.request(
            master, PacketType.DIRECTORY_QUERY, None, self._on_rehome_assign
        )
        self.kernel.schedule(self._rehome_backoff(), self._rehome_timed_out, request_id)

    def _rehome_timed_out(self, request_id: int) -> None:
        if not self._master_req.awaits(request_id):
            return  # answered or superseded
        self._master_req.cancel()
        self._retry_rehome()

    def _retry_rehome(self, delay: Optional[float] = None) -> None:
        self._rehome_attempts += 1
        if self._rehome_attempts > MASTER_QUERY_RETRIES:
            # Give up for now; the next trigger restarts the attempt.
            self._rehome_pending = False
            return
        self.kernel.schedule(
            self._rehome_backoff() if delay is None else delay, self._query_master
        )

    def _on_directory_assign(self, message: Message) -> None:
        self._master_req.handle_reply(message)

    def _on_rehome_assign(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, dict):
            # Retry-after: the master has no live directory registered
            # yet (bootstrap race or registry rebuild in progress).
            self._retry_rehome(delay=float(payload["retry_after"]))
            return
        address = int(payload)
        if not self.network.is_attached(address):
            self._retry_rehome()
            return
        self._rehome_pending = False
        self._rehome_attempts = 0
        self.directory_address = address
        tracer = self.network.tracer
        if tracer is not None:
            tracer.instant(self.name, "rehome", "control", {"directory": address})
        self._on_rehomed()

    #: packet type -> (handler, whether it is handed the whole message
    #: rather than its payload).  A subclass extends the table; a type
    #: missing from it is a protocol bug and raises.
    _DISPATCH: Dict[PacketType, Tuple[Callable, bool]] = {
        PacketType.DIRECTORY_UPDATE: (_on_directory_update, False),
        PacketType.DIRECTORY_ASSIGN: (_on_directory_assign, True),
    }
