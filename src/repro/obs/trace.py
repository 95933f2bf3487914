"""Structured tracing keyed to the simulated clock.

The :class:`Tracer` records two kinds of things:

* **spans** — intervals of simulated time attributed to one entity
  (superstep compute, data-plane flush, barrier wait, checkpoint,
  recovery, whole runs).  Because simulated time never advances *inside*
  a callback, compute spans are the entity's charged busy window:
  instrument sites capture ``entity.available_at()`` before and after
  the work, which is exactly the interval the cost model billed.
* **events** — instantaneous points: message causality (send, deliver,
  retransmit, drop, duplicate suppressed, each tagged with packet type,
  link, and transport seq) and control-plane moments (barrier complete,
  suspicion, eviction, recovery broadcast).

Hot paths pay a single ``if tracer is not None`` attribute check when
tracing is disabled (the fabric's ``tracer`` attribute stays ``None``),
so the data plane keeps its throughput; when enabled, recording is an
append of one small object.

Data-plane sends additionally carry a content digest
(:func:`payload_digest`) over the *algorithmic* payload fields, so two
traces can be aligned message-by-message (:mod:`repro.obs.diff`)
ignoring transport artifacts and bookkeeping like incarnation fences.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.net.message import PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message
    from repro.sim.kernel import SimKernel

#: Packet types whose payloads are algorithm content (digested and
#: aligned by the trace diff); everything else is control or transport.
DATA_PACKET_TYPES = frozenset(
    {PacketType.VERTEX_MSG, PacketType.REPLICA_SYNC, PacketType.REPLICA_VALUE}
)

#: Payload keys that are delivery bookkeeping, not algorithm content
#: (the incarnation fence differs between a recovered and a never-
#: crashed run even when the values are bit-identical).
_DIGEST_EXCLUDED_KEYS = frozenset({"inc"})


@dataclass
class Span:
    """One closed interval of simulated time attributed to an entity."""

    entity: str
    name: str
    cat: str
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Event:
    """One instantaneous occurrence at simulated time ``time``."""

    entity: str
    name: str
    cat: str
    time: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Trace:
    """An immutable-by-convention snapshot of recorded spans/events."""

    spans: List[Span] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)

    def entities(self) -> List[str]:
        """Every entity appearing in the trace, sorted."""
        names = {s.entity for s in self.spans} | {e.entity for e in self.events}
        return sorted(names)


def payload_digest(payload: Dict[str, Any]) -> str:
    """A stable content hash of a data-plane payload: a record of
    scalar and array fields (its packet type's declared shape).

    Bit-identical payloads hash identically regardless of which run (or
    engine) produced them; field order and the incarnation fence are
    canonicalized away.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(b"d")
    for key in sorted(payload):
        if key not in _DIGEST_EXCLUDED_KEYS:
            value = payload[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray):
                h.update(b"a")
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


class Tracer:
    """Span/event recorder bound to one simulation kernel.

    Instrument sites never construct one of these — they test the
    fabric's ``tracer`` attribute for ``None`` and call through, so the
    disabled cost is one attribute load per site.
    """

    __slots__ = ("kernel", "spans", "events")

    def __init__(self, kernel: "SimKernel"):
        self.kernel = kernel
        self.spans: List[Span] = []
        self.events: List[Event] = []

    # -- recording ---------------------------------------------------------

    def complete(
        self,
        entity: str,
        name: str,
        cat: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a closed span (start/end in simulated seconds)."""
        self.spans.append(Span(entity, name, cat, start, end, args or {}))

    def instant(
        self,
        entity: str,
        name: str,
        cat: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record an instantaneous event at the current simulated time."""
        self.events.append(Event(entity, name, cat, self.kernel.now, args or {}))

    def message_event(
        self,
        kind: str,
        message: "Message",
        entity: str,
        src_name: str,
        dst_name: str,
        cause: Optional[str] = None,
    ) -> None:
        """Record one message-causality event (send/deliver/drop/...).

        ``entity`` is whose timeline the event lands on (sender for
        sends, receiver for deliveries and drops); the link is always
        recorded as ``src -> dst`` names plus raw addresses and the
        transport seq, so causality chains survive entity churn.
        """
        args: Dict[str, Any] = {
            "type": message.ptype.name,
            "src": src_name,
            "dst": dst_name,
            "src_addr": message.src,
            "dst_addr": message.dst,
            "bytes": message.size_bytes,
        }
        if message.seq is not None:
            args["seq"] = message.seq
        if cause is not None:
            args["cause"] = cause
        payload = message.payload
        if message.ptype in DATA_PACKET_TYPES:
            args["step"] = int(payload["step"])
            args["round"] = int(payload["round"])
            if kind == "send":
                args["digest"] = payload_digest(payload)
        self.events.append(
            Event(entity, kind, "message", self.kernel.now, args)
        )

    # -- access ------------------------------------------------------------

    def trace(self) -> Trace:
        """A snapshot :class:`Trace` of everything recorded so far."""
        return Trace(spans=list(self.spans), events=list(self.events))

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)
