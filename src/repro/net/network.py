"""The simulated network fabric.

The fabric connects :class:`~repro.sim.entity.Entity` instances: it
assigns addresses, delivers messages through the transport model, and
accounts for every message and byte so benchmarks can report traffic
(e.g. Figure 16's "percent of edges moved" is measured from
``EDGE_MIGRATE`` traffic).

Delivery semantics mirror ZeroMQ as ElGA uses it:

* sends are non-blocking — the sender keeps computing while the message
  is in flight (ZeroMQ runs on separate I/O threads, §3.5);
* a message departs only once its single-threaded sender is free
  (``Entity.charge`` models serial compute);
* messages between the same pair of entities stay ordered, but there is
  no global order — ElGA is explicitly tolerant of out-of-order arrival.

Two opt-in layers extend the perfect fabric for chaos testing (see
DESIGN.md, "Delivery semantics and the fault model"):

* an installed :class:`~repro.net.faults.FaultPlan` is consulted on
  every transmission and may drop, duplicate, reorder, or delay it;
* **reliable mode** gives every protocol message a per-link sequence
  number and a retransmit timer.  Receivers acknowledge each sequenced
  message with a transport-level ``DELIVERY_ACK`` and suppress
  duplicates (idempotent ack: re-acked, never re-dispatched), so the
  protocol layer observes exactly-once delivery even while the plan
  misbehaves underneath.  Retransmission to a detached address is
  abandoned — addresses are never reused, so a departed entity can
  never be confused with a successor.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.net.latency import TransportModel
from repro.net.message import Message, PacketType
from repro.sim.kernel import EventHandle, SimKernel, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.faults import FaultPlan
    from repro.sim.entity import Entity

#: Reliable-mode retransmission policy: the first retransmit fires after
#: ``RETRY_TIMEOUT`` simulated seconds, each further one after
#: ``RETRY_BACKOFF`` times the previous wait, never more than
#: ``RETRY_TIMEOUT_CAP``.
RETRY_TIMEOUT = 5e-3
RETRY_BACKOFF = 2.0
RETRY_TIMEOUT_CAP = 0.1


@dataclass
class NetworkStats:
    """Aggregate traffic counters for one fabric.

    ``messages_dropped`` totals every drop cause; ``dropped_by_type``
    and the per-cause counters break it down (detached destination,
    chaos rule, partition window).  Retransmissions count only in the
    retry counters — ``messages_sent``/``by_type_count`` stay original
    sends, so traffic-derived figures (e.g. Figure 16) are unaffected
    by reliability being switched on.

    Only what happens on the fabric is counted here; what an entity
    does is counted in its own registry (``entity.perf``).
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_dropped: int = 0
    by_type_count: Dict[PacketType, int] = field(default_factory=lambda: defaultdict(int))
    by_type_bytes: Dict[PacketType, int] = field(default_factory=lambda: defaultdict(int))
    dropped_by_type: Dict[PacketType, int] = field(default_factory=lambda: defaultdict(int))
    drops_detached: int = 0
    drops_chaos: int = 0
    drops_partition: int = 0
    messages_duplicated: int = 0
    messages_retried: int = 0
    retries_by_type: Dict[PacketType, int] = field(default_factory=lambda: defaultdict(int))
    retries_abandoned: int = 0
    duplicates_suppressed: int = 0
    acks_sent: int = 0

    def record(self, message: Message) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        self.by_type_count[message.ptype] += 1
        self.by_type_bytes[message.ptype] += message.size_bytes

    def record_drop(self, message: Message, cause: str) -> None:
        """Count one dropped delivery under its cause and packet type."""
        self.messages_dropped += 1
        self.dropped_by_type[message.ptype] += 1
        if cause == "detached":
            self.drops_detached += 1
        elif cause == "chaos":
            self.drops_chaos += 1
        elif cause == "partition":
            self.drops_partition += 1
        else:  # pragma: no cover - guards future call sites
            raise ValueError(f"unknown drop cause {cause!r}")

    def snapshot(self) -> "NetworkStats":
        """A deep copy usable for interval deltas."""
        return copy.deepcopy(self)


class _Pending:
    """One unacknowledged reliable send (retransmit bookkeeping)."""

    __slots__ = ("message", "attempt", "handle")

    def __init__(self, message: Message, handle: "EventHandle"):
        self.message = message
        self.attempt = 0
        self.handle = handle


class _DedupWindow:
    """Per-link receiver dedup state.

    Sequence numbers are per (src, dst) link and start at 1, so arrivals
    are near-contiguous: ``high_water`` is the largest seq below which
    everything was delivered, and ``ahead`` holds the (few) seqs that
    arrived out of order, keeping memory O(reorder window) per link.
    """

    __slots__ = ("high_water", "ahead")

    def __init__(self) -> None:
        self.high_water = 0
        self.ahead: set = set()

    def accept(self, seq: int) -> bool:
        """True if ``seq`` is new (first delivery), False on a duplicate."""
        if seq <= self.high_water or seq in self.ahead:
            return False
        self.ahead.add(seq)
        while self.high_water + 1 in self.ahead:
            self.high_water += 1
            self.ahead.remove(self.high_water)
        return True


class Network:
    """Message fabric over a :class:`~repro.sim.kernel.SimKernel`.

    Parameters
    ----------
    kernel:
        The event loop messages are scheduled on.
    transport:
        Latency/bandwidth model (defaults to the paper's ZeroMQ numbers).
    reliable:
        Enable sequenced, acknowledged, retransmitted delivery.  Off by
        default: the perfect fabric needs none of it, and benchmarks'
        traffic accounting stays byte-identical to the classic mode.
    max_retries:
        Retransmissions per message before the fabric gives up.  Giving
        up on an *attached* destination raises (silent loss would
        corrupt protocol accounting); give-up on a detached one is the
        normal fate of messages racing a graceful departure.
    """

    def __init__(
        self,
        kernel: "SimKernel",
        transport: Optional[TransportModel] = None,
        reliable: bool = False,
        max_retries: int = 30,
    ):
        self.kernel = kernel
        self.transport = transport if transport is not None else TransportModel.zeromq()
        self.stats = NetworkStats()
        self.reliable = bool(reliable)
        self.max_retries = int(max_retries)
        self.faults: Optional["FaultPlan"] = None
        self._entities: Dict[int, "Entity"] = {}
        self._next_address = 0
        self._taps: List[Callable[[Message], None]] = []
        # Observability plane: when a Tracer is attached every send /
        # delivery / drop / retransmit becomes a causality event.  None
        # (the default) keeps the hot paths at a single attribute check.
        self.tracer = None
        # Address -> entity name, kept past detach so trace events for
        # messages racing a departure still resolve to a name.
        self._names: Dict[int, str] = {}
        # Reliable-mode state: per-link sequence counters, in-flight
        # sends keyed by (src, dst, seq) — seqs are only unique per
        # link, so the key must carry both endpoints — and per-link
        # receiver dedup.
        self._next_seq: Dict[Tuple[int, int], int] = defaultdict(int)
        self._pending: Dict[Tuple[int, int, int], _Pending] = {}
        self._dedup: Dict[Tuple[int, int], _DedupWindow] = {}

    # -- membership --------------------------------------------------------

    def attach(self, entity: "Entity") -> int:
        """Register an entity and return its unique address."""
        address = self._next_address
        self._next_address += 1
        self._entities[address] = entity
        self._names[address] = getattr(entity, "name", f"addr-{address}")
        return address

    def name_of(self, address: int) -> str:
        """The entity name once attached at ``address`` (survives detach)."""
        return self._names.get(address, f"addr-{address}")

    def detach(self, address: int) -> None:
        """Remove an entity; later messages to it are counted as dropped."""
        self._entities.pop(address, None)

    def detach_abrupt(self, address: int) -> None:
        """Crash semantics: remove an entity *and* its transport state.

        A dead process cannot retransmit, so every unacknowledged
        reliable send it originated is abandoned immediately (copies
        already on the wire still arrive — the receiver-side guards
        must tolerate them).  Sends *to* the address are handled by the
        normal detached-destination abandon path as their timers fire.
        """
        self.detach(address)
        dead = [key for key in self._pending if key[0] == address]
        for key in dead:
            entry = self._pending.pop(key)
            entry.handle.cancel()
            self.stats.retries_abandoned += 1

    def is_attached(self, address: int) -> bool:
        return address in self._entities

    # -- test/diagnostic hooks ----------------------------------------------

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Register a callback observing every sent message (for tests).

        Taps see each *send* once; retransmissions and chaos-injected
        duplicate copies are transport artifacts and are not re-tapped.
        """
        self._taps.append(tap)

    def install_faults(self, plan: "FaultPlan", reliable: bool = True) -> None:
        """Put a :class:`~repro.net.faults.FaultPlan` under the fabric.

        By default this also switches on reliable delivery — a plan that
        drops messages against a fire-and-forget fabric deadlocks the
        protocols above, which is a finding about the test setup, not
        the system.  Pass ``reliable=False`` to study exactly that.
        """
        self.faults = plan
        if reliable:
            self.reliable = True

    # -- sending -------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send a message; delivery is scheduled through the transport.

        The departure time respects the sender's busy horizon (a
        single-threaded entity cannot emit a response before finishing
        the compute charged for producing it).
        """
        if message.dst < 0:
            raise ValueError("message has no destination")
        message.send_time = self.kernel.now
        self.stats.record(message)
        for tap in self._taps:
            tap(message)
        if self.tracer is not None and message.ptype != PacketType.DELIVERY_ACK:
            self._trace("send", message, at_sender=True)
        if (
            self.reliable
            and message.ptype != PacketType.DELIVERY_ACK
            and message.seq is None
        ):
            link = (message.src, message.dst)
            self._next_seq[link] += 1
            message.seq = self._next_seq[link]
            key = (message.src, message.dst, message.seq)
            handle = self.kernel.schedule(RETRY_TIMEOUT, self._retransmit, key)
            self._pending[key] = _Pending(message, handle)
        self._transmit(message)

    def _transmit(self, message: Message) -> None:
        """Schedule one physical transmission (initial send or retry),
        subject to the installed fault plan."""
        extra_delays = [0.0]
        if self.faults is not None:
            extra_delays = self.faults.decide(message, self.kernel.now)
            if not extra_delays:
                cause = "partition" if self._partitioned(message) else "chaos"
                self.stats.record_drop(message, cause)
                if self.tracer is not None:
                    self._trace("drop", message, at_sender=False, cause=cause)
                return
            if len(extra_delays) > 1:
                self.stats.messages_duplicated += len(extra_delays) - 1
        sender = self._entities.get(message.src)
        departure = sender.available_at() if sender is not None else self.kernel.now
        same_node = self._same_node(message.src, message.dst)
        base_delay = self.transport.delay(message.size_bytes, same_node=same_node)
        for extra in extra_delays:
            self.kernel.schedule_at(departure + base_delay + extra, self._deliver, message)

    def _partitioned(self, message: Message) -> bool:
        return any(
            w.separates(message.src, message.dst, self.kernel.now)
            for w in self.faults.partitions
        )

    def _same_node(self, src: int, dst: int) -> bool:
        a = self._entities.get(src)
        b = self._entities.get(dst)
        if a is None or b is None:
            return False
        return getattr(a, "node", 0) == getattr(b, "node", 0)

    # -- delivery ------------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        if message.ptype == PacketType.DELIVERY_ACK:
            # Transport acks terminate at the fabric: clear the pending
            # entry even if the original sender has since detached.
            self._on_delivery_ack(message)
            return
        entity = self._entities.get(message.dst)
        tracer = self.tracer
        if entity is None:
            self.stats.record_drop(message, "detached")
            if tracer is not None:
                self._trace("drop", message, at_sender=False, cause="detached")
            return
        if message.seq is not None:
            # Idempotent ack: every arrival is (re-)acknowledged — the
            # previous ack may itself have been lost — but only the
            # first is dispatched to the entity.
            self._send_ack(message)
            if not self._dedup.setdefault(
                (message.dst, message.src), _DedupWindow()
            ).accept(message.seq):
                self.stats.duplicates_suppressed += 1
                entity.perf.add("transport_dups_suppressed")
                if tracer is not None:
                    self._trace("dup_suppressed", message, at_sender=False)
                return
        if tracer is not None:
            self._trace("deliver", message, at_sender=False)
        entity.handle_message(message)

    def _trace(
        self, kind: str, message: Message, at_sender: bool, cause: Optional[str] = None
    ) -> None:
        """One message event, on the sender's or the receiver's timeline."""
        src, dst = self.name_of(message.src), self.name_of(message.dst)
        self.tracer.message_event(kind, message, src if at_sender else dst, src, dst, cause=cause)

    # -- reliable-delivery plumbing -----------------------------------------

    def _send_ack(self, message: Message) -> None:
        ack = Message(
            ptype=PacketType.DELIVERY_ACK,
            payload=message.seq,
            src=message.dst,
            dst=message.src,
        )
        self.stats.acks_sent += 1
        self.send(ack)

    def _on_delivery_ack(self, ack: Message) -> None:
        # The ack travels receiver -> sender, so the acknowledged link
        # is (ack.dst, ack.src) from the original sender's view.
        entry = self._pending.pop((ack.dst, ack.src, int(ack.payload)), None)
        if entry is not None:
            entry.handle.cancel()

    def _retransmit(self, key: Tuple[int, int, int]) -> None:
        entry = self._pending.get(key)
        if entry is None:  # acked after the timer was queued
            return
        message = entry.message
        if not self.is_attached(message.dst):
            # The destination left for good (addresses are never
            # reused); the message died with it.  The delivery attempts
            # themselves already counted as detached drops.  A sender
            # that still cares gets the payload bounced back (e.g. an
            # EDGE_MIGRATE hop re-routes the edges to the new owner —
            # otherwise its ack ledger deadlocks and the edges are
            # lost with the leaver).
            del self._pending[key]
            self.stats.retries_abandoned += 1
            sender = self._entities.get(message.src)
            handler = getattr(sender, "on_reliable_abandoned", None)
            if handler is not None:
                self.kernel.schedule(0.0, lambda: handler(message))
            return
        if entry.attempt >= self.max_retries:
            raise SimulationError(
                f"reliable delivery failed: {message.ptype.name} "
                f"{message.src}->{message.dst} seq={message.seq} gave up "
                f"after {entry.attempt} retries"
            )
        entry.attempt += 1
        self.stats.messages_retried += 1
        self.stats.retries_by_type[message.ptype] += 1
        if self.tracer is not None:
            self._trace("retransmit", message, at_sender=True)
        sender = self._entities.get(message.src)
        if sender is not None:  # gone: only the fabric-wide count sees it
            sender.perf.add("transport_retries")
        timeout = min(RETRY_TIMEOUT * RETRY_BACKOFF**entry.attempt, RETRY_TIMEOUT_CAP)
        entry.handle = self.kernel.schedule(timeout, self._retransmit, key)
        self._transmit(message)

    @property
    def pending_reliable(self) -> int:
        """In-flight reliable sends awaiting a transport ack (tests)."""
        return len(self._pending)
