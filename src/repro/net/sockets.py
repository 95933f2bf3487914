"""ZeroMQ-style socket patterns over the simulated fabric (§3.5).

ElGA uses three patterns, by latency class:

* **REQ/REP** for low-latency blocking exchanges (client queries,
  directory bootstrap): :class:`ReqRepSocket` enforces the
  one-outstanding-request-per-socket discipline of a ZeroMQ REQ socket
  and correlates replies by request id; the REP side answers with
  :meth:`~repro.net.message.Message.reply`.
* **PUSH** for medium-latency non-blocking sends (graph updates, vertex
  messages): :class:`PushSocket`; when an explicit acknowledgement is
  required a second PUSH travels back, which protocol code implements by
  replying with the ``*_ACK`` packet type.
* **PUB/SUB** for high-latency broadcast (directory updates, barriers):
  :class:`PubSubSocket` filters on the single packet-type byte, exactly
  like ElGA's one-byte subscription prefixes.

Every send builds a :class:`~repro.net.message.Message`, which sizes
its payload from the packet type's declared shape (and refuses an
undeclared one); no socket takes a size of its own.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set

from repro.net.message import Message, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.sim.entity import Entity

_request_ids = itertools.count(1)


class SocketError(RuntimeError):
    """Raised on socket-pattern violations (e.g. two outstanding REQs)."""


class PushSocket:
    """Non-blocking unidirectional sends (ZeroMQ PUSH).

    The sender continues executing while the message is in flight; there
    is no implicit acknowledgement.
    """

    def __init__(self, owner: "Entity"):
        self.owner = owner
        self.network: "Network" = owner.network

    def push(self, dst: int, ptype: PacketType, payload=None, term: Optional[int] = None) -> None:
        """Send one message to ``dst`` without blocking."""
        self.network.send(
            Message(ptype=ptype, payload=payload, src=self.owner.address, dst=dst, term=term)
        )


class ReqRepSocket:
    """Blocking request/response (ZeroMQ REQ side).

    A REQ socket may have only one request outstanding; issuing a second
    before the reply arrives raises :class:`SocketError`, matching
    ZeroMQ's strict send/recv alternation.  The response is delivered to
    the callback passed to :meth:`request`.
    """

    def __init__(self, owner: "Entity"):
        self.owner = owner
        self.network: "Network" = owner.network
        self._pending_id: Optional[int] = None
        self._callback: Optional[Callable[[Message], None]] = None

    @property
    def busy(self) -> bool:
        """Whether a request is outstanding."""
        return self._pending_id is not None

    def awaits(self, request_id: int) -> bool:
        """Whether ``request_id`` is the request still outstanding
        (not yet answered, cancelled or superseded)."""
        return self._pending_id == request_id

    def request(
        self,
        dst: int,
        ptype: PacketType,
        payload=None,
        on_reply: Optional[Callable[[Message], None]] = None,
    ) -> int:
        """Issue a request; ``on_reply`` fires when the reply arrives."""
        if self._pending_id is not None:
            raise SocketError("REQ socket already has an outstanding request")
        request_id = next(_request_ids)
        self._pending_id = request_id
        self._callback = on_reply
        self.network.send(
            Message(ptype, payload, src=self.owner.address, dst=dst, request_id=request_id)
        )
        return request_id

    def cancel(self) -> None:
        """Abandon the outstanding request (timeout path).

        The reply, if it ever arrives, will no longer match
        ``_pending_id`` and is dropped by :meth:`handle_reply` — the
        caller is free to issue a fresh request immediately.
        """
        self._pending_id = None
        self._callback = None

    def handle_reply(self, message: Message) -> bool:
        """Route an incoming reply to the pending callback.

        Returns ``True`` if the message matched the outstanding request.
        Stale replies (e.g. from a directory that left) are ignored and
        return ``False`` — ElGA must tolerate these.
        """
        if message.request_id is None or message.request_id != self._pending_id:
            return False
        self._pending_id = None
        callback, self._callback = self._callback, None
        if callback is not None:
            callback(message)
        return True


class PubSubSocket:
    """Broadcast with single-byte type filtering (ZeroMQ PUB/SUB).

    Subscribers register for specific :class:`PacketType` values; the
    publisher duplicates each publication to every matching subscriber,
    as ZeroMQ does internally.
    """

    def __init__(self, owner: "Entity"):
        self.owner = owner
        self.network: "Network" = owner.network
        self._subscribers: Dict[PacketType, Set[int]] = defaultdict(set)

    def subscribe(self, subscriber: int, ptypes: Iterable[PacketType]) -> None:
        """Register ``subscriber`` for the given packet types."""
        for ptype in ptypes:
            self._subscribers[PacketType(ptype)].add(subscriber)

    def unsubscribe(self, subscriber: int, ptypes: Optional[Iterable[PacketType]] = None) -> None:
        """Drop a subscriber from some (or all) packet types."""
        if ptypes is None:
            ptypes = list(self._subscribers)
        for ptype in ptypes:
            self._subscribers[PacketType(ptype)].discard(subscriber)

    def subscribers_of(self, ptype: PacketType) -> List[int]:
        """Current subscribers for one packet type (sorted, for determinism)."""
        return sorted(self._subscribers[ptype])

    def publish(self, ptype: PacketType, payload=None, term: Optional[int] = None) -> int:
        """Send to every subscriber of ``ptype``; returns the fan-out.
        The payload is sized once, into one message copied per
        subscriber."""
        message = Message(ptype=ptype, payload=payload, src=self.owner.address, term=term)
        targets = self.subscribers_of(ptype)
        for dst in targets:
            self.network.send(message.to(dst))
        return len(targets)
