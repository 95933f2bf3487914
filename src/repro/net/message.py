"""Messages, packet types and the wire schema.

ElGA puts a single packet-type byte first in every message, so ZeroMQ
subscription filtering is cheap, and ships each payload as a packed
struct (§3.5).  Here every :class:`Message` carries a
:class:`PacketType` tag, PUB/SUB subscriptions filter on it, and each
tag declares beside its number the payload shapes it carries: ``None``
(no payload), a size kind (a payload that is not a dict), or a record
(a dict with exactly the declared fields, a size kind each; field names
are struct layout and cost nothing).  A :class:`Message` sizes its
payload by the first shape it matches — what the latency model charges
and ``net.bytes`` sums — and raises ``TypeError`` if none matches.
The size kinds are a closed set: :func:`scalar`, :func:`array`,
:func:`text`, :func:`items`, :func:`sized`.  DESIGN.md §6r has the
packet table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, NoReturn, Optional, Tuple

import numpy as np

_NUMBERS = (int, float, np.integer, np.floating)
_COLLECTIONS = (list, tuple, set, frozenset, dict)


def _refuse(kind: str, value: Any) -> NoReturn:
    raise TypeError(f"{kind} field holds {type(value).__name__}")


def scalar(value: Any) -> int:
    """One 64-bit field (the paper's ids are 64-bit): 8 B; ``None``,
    an absent value, is free."""
    if value is None:
        return 0
    return 8 if isinstance(value, _NUMBERS) else _refuse("scalar", value)


def array(value: Any) -> int:
    """A numpy column: its buffer."""
    return value.nbytes if isinstance(value, np.ndarray) else _refuse("array", value)


def text(value: Any) -> int:
    """A name: its UTF-8 length."""
    return len(value.encode("utf-8")) if isinstance(value, str) else _refuse("text", value)


def items(value: Any) -> int:
    """A sequence or map of scalars: 8 B an item (a map ships its values)."""
    return 8 * len(value) if isinstance(value, _COLLECTIONS) else _refuse("items", value)


def sized(value: Any) -> int:
    """A struct that states its own wire size as ``nbytes``."""
    nbytes = getattr(value, "nbytes", None)
    return _refuse("sized", value) if nbytes is None else int(nbytes)


_ADVANCE = dict(run_id=scalar, step=scalar, round=scalar, phase=text)
_READY = dict(agent_id=scalar, step=scalar, round=scalar, stats=items)
_UPDATE = dict(role=text, actions=array, us=array, vs=array, reply_to=scalar, token=scalar)
_ROUND = dict(step=scalar, round=scalar, inc=scalar)  # every round data packet's header


class PacketType(enum.IntEnum):
    """Single-byte message type tags (first byte on the wire), each
    followed by the payload shapes it declares."""

    shapes: Tuple[Any, ...]

    def __new__(cls, tag: int, *shapes: Any) -> "PacketType":
        member = int.__new__(cls, tag)
        member._value_ = tag
        member.shapes = shapes
        return member

    # Directory system: bootstrap, membership, sketch, subscriptions
    DIRECTORY_QUERY = 1, None  # participant -> DirectoryMaster: which Directory?
    DIRECTORY_ASSIGN = 2, scalar, dict(retry_after=scalar)  # its address, or back off
    DIRECTORY_UPDATE = 3, sized  # broadcast DirectoryState: agents + sketch + batch id
    DIRECTORY_SYNC = 4, sized  # lead -> peer directories: DirectoryState
    AGENT_JOIN = 5, dict(agent_id=scalar, address=scalar, node=scalar, weight=scalar)
    AGENT_LEAVE = 6, dict(agent_id=scalar)
    SKETCH_DELTA = 7, sized  # agent -> directory: CountMinSketch updates
    SUBSCRIBE = 8, items, dict(remove=scalar)  # topic tags, or unsubscribe
    SPLIT_REPORT = 9, array  # agent -> directory: vertices over the split threshold

    # Superstep / barrier protocol (Figure 2)
    AGENT_READY = 10, _READY  # agent -> directory: all internal vertices inactive
    READY_REBROADCAST = 11, _READY  # directory -> lead: ready set exchange
    SUPERSTEP_ADVANCE = 12, _ADVANCE, dict(_ADVANCE, spec=sized)  # a resume ships the run
    RUN_START = 13, sized  # directory -> agents: RunSpec of an algorithm run

    # Data plane
    VERTEX_MSG = 20, dict(_ROUND, dst=array, val=array)  # values flowing along edges
    VERTEX_MSG_ACK = 21, dict(inc=scalar, count=scalar)  # second PUSH back
    EDGE_UPDATE = 22, _UPDATE  # streamer -> agent: edge insertions/deletions
    EDGE_UPDATE_ACK = 23, dict(token=scalar, count=scalar)
    EDGE_MIGRATE = 24, dict(_UPDATE, state=sized)  # agent -> agent: edges + vertex state
    EDGE_MIGRATE_ACK = 25, dict(token=scalar)
    REPLICA_SYNC = 26, dict(_ROUND, verts=array, partials=array, got=array, outdeg=array)
    REPLICA_VALUE = 27, dict(_ROUND, verts=array, values=array, active=array, outdeg=array)

    # Client path
    CLIENT_QUERY = 30, dict(vertex=scalar, program=text, token=scalar)
    CLIENT_REPLY = 31, dict(
        token=scalar, vertex=scalar, value=scalar, agent_id=scalar, run_id=scalar,
        step=scalar, inc=scalar,
    )
    RESULT_NOTICE = 32, dict(versions=items)  # directory -> client proxies: version bump

    DELIVERY_ACK = 42, scalar  # transport receipt (reliable fabric mode): the seq

    # Metrics / autoscaling
    METRIC_REPORT = 50, dict(agent_id=scalar, metrics=items)
    REBALANCE_PLAN = 52, dict(weights=items)  # planner -> directory: ring re-weight

    # Failure detection / crash recovery
    HEARTBEAT = 60, dict(agent_id=scalar)  # agent -> directory: lease refresh
    AGENT_SUSPECT = 61, dict(agent_id=scalar, address=scalar)  # lead -> master
    EVICT_CONFIRM = 62, dict(agent_id=scalar, evict=scalar)  # master -> lead: verdict
    RECOVER = 63, dict(run_id=scalar, step=scalar, incarnation=scalar, mode=text)

    # Control-plane fault tolerance (directory replication / failover)
    DIR_LEASE = 64, dict(term=scalar, version=scalar)  # lead -> peers: lease renewal
    DIRECTORY_REGISTER = 66, dict(index=scalar, address=scalar)  # directory -> master

    def size_of(self, payload: Any) -> int:
        """Wire bytes of ``payload`` (the type byte not included) by the
        first declared shape it matches; ``TypeError`` if none does."""
        fields = payload.keys() if type(payload) is dict else None
        for shape in self.shapes:
            if type(shape) is dict:
                if fields == shape.keys():
                    size = 0
                    for name, kind in shape.items():
                        try:
                            size += kind(payload[name])
                        except TypeError as exc:
                            raise TypeError(f"{self.name}.{name}: {exc}") from None
                    return size
            elif shape is None:
                if payload is None:
                    return 0
            elif fields is None:
                try:
                    return shape(payload)
                except TypeError as exc:
                    raise TypeError(f"{self.name}: {exc}") from None
        got = type(payload).__name__ if fields is None else f"a dict with fields {sorted(fields)}"
        raise TypeError(f"{self.name} declares no payload shaped like {got}")


@dataclass
class Message:
    """One message on the simulated fabric.

    Attributes
    ----------
    ptype:
        Single-byte packet type, used for dispatch and PUB/SUB filters.
    payload:
        One of the shapes ``ptype`` declares.
    src, dst:
        Network addresses.  ``dst`` is filled in by the sending socket.
    request_id:
        Correlation id for REQ/REP exchanges.
    seq:
        Per-link transport sequence number, assigned by the fabric when
        reliable delivery is enabled; ``None`` on fire-and-forget sends.
    term:
        Control-plane term the message was sent under (directory-origin
        traffic only).  Receivers fence stale-term control packets the
        same way incarnation numbers fence stale data traffic; ``None``
        means "not term-fenced" (data plane, client requests, legacy).
    size_bytes:
        Serialized size: the type byte plus the payload as ``ptype``
        declares it.
    """

    ptype: PacketType
    payload: Any = None
    src: int = -1
    dst: int = -1
    request_id: Optional[int] = None
    seq: Optional[int] = None
    term: Optional[int] = None
    send_time: float = field(default=0.0, compare=False)
    size_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.size_bytes = 1 + self.ptype.size_of(self.payload)

    def to(self, dst: int) -> "Message":
        """A copy addressed to ``dst``: one publication, sized once, for
        many subscribers."""
        copy = object.__new__(Message)
        copy.__dict__.update(self.__dict__)
        copy.dst = dst
        return copy

    def reply(self, ptype: PacketType, payload: Any = None) -> "Message":
        """A response correlated with this request, addressed back to
        its sender."""
        return Message(ptype, payload, src=self.dst, dst=self.src, request_id=self.request_id)
