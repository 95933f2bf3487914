"""Messages and packet types.

ElGA's wire protocol puts a single packet-type byte first in every
message so ZeroMQ subscription filtering is cheap (§3.5).  We keep the
same convention: every :class:`Message` carries a :class:`PacketType`
tag, and PUB/SUB subscriptions filter on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np


class PacketType(enum.IntEnum):
    """Single-byte message type tags (first byte on the wire)."""

    # Directory system
    DIRECTORY_QUERY = 1       # bootstrap: ask the DirectoryMaster for a Directory
    DIRECTORY_ASSIGN = 2      # DirectoryMaster -> participant: your Directory
    DIRECTORY_UPDATE = 3      # broadcast: agent list + sketch + batch id
    DIRECTORY_SYNC = 4        # directory <-> directory internal broadcast
    AGENT_JOIN = 5            # agent -> directory: joining the system
    AGENT_LEAVE = 6           # agent -> directory: leaving the system
    SKETCH_DELTA = 7          # agent -> directory: CountMinSketch updates
    SUBSCRIBE = 8             # participant -> directory: pub/sub registration
    SPLIT_REPORT = 9          # agent -> directory: vertex crossed split threshold

    # Superstep / barrier protocol (Figure 2)
    AGENT_READY = 10          # agent -> directory: all internal vertices inactive
    READY_REBROADCAST = 11    # directory -> directory: ready set exchange
    SUPERSTEP_ADVANCE = 12    # directory -> agents: advance to next superstep
    RUN_START = 13            # directory -> agents: begin an algorithm run

    # Data plane
    VERTEX_MSG = 20           # algorithm values flowing along edges
    VERTEX_MSG_ACK = 21       # explicit acknowledgement (second PUSH back)
    EDGE_UPDATE = 22          # streamer -> agent: edge insertion/deletion
    EDGE_UPDATE_ACK = 23
    EDGE_MIGRATE = 24         # agent -> agent: edges moving after rebalance
    EDGE_MIGRATE_ACK = 25
    REPLICA_SYNC = 26         # replica -> primary: partial aggregates
    REPLICA_VALUE = 27        # primary -> replicas: applied vertex values

    # Client path
    CLIENT_QUERY = 30         # client proxy -> agent: read one vertex result
    CLIENT_REPLY = 31
    RESULT_NOTICE = 32        # directory -> client proxies: result version bump

    # Generic REQ/REP plumbing
    REQUEST = 40
    REPLY = 41
    DELIVERY_ACK = 42         # transport-level receipt (reliable fabric mode)

    # Metrics / autoscaling
    METRIC_REPORT = 50        # agent -> directory: metric sample
    REBALANCE_PLAN = 52       # planner -> directory: ring re-weight adoption

    # Failure detection / crash recovery
    HEARTBEAT = 60            # agent -> directory: liveness lease refresh
    AGENT_SUSPECT = 61        # lead directory -> master: lease expired
    EVICT_CONFIRM = 62        # master -> lead directory: eviction verdict
    RECOVER = 63              # lead directory -> agents: roll back / restart

    # Control-plane fault tolerance (directory replication / failover)
    DIR_LEASE = 64            # lead directory -> peers: term-numbered lease renewal
    DIRECTORY_REGISTER = 66   # directory -> master: periodic (re-)registration


_SCALAR_BYTES = 8


def payload_nbytes(payload: Any) -> int:
    """Estimate the serialized size of a payload in bytes.

    ElGA's protocols are direct memory copies of packed structs, so the
    estimate charges 8 bytes per scalar (the paper uses 64-bit vertex
    IDs), actual buffer sizes for numpy arrays, and recurses through
    containers.  ``None`` is free (flag-only packets).
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bool, int, float, np.integer, np.floating)):
        return _SCALAR_BYTES
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, dict):
        # Field names ("step", "dst", …) are struct layout, not wire
        # data: a packed struct ships only its values.  Charging keys
        # would also make the struct-of-arrays data-plane packets pay
        # O(fields) string costs per packet instead of O(arrays).
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(v) for v in payload)
    if hasattr(payload, "nbytes"):
        return int(payload.nbytes)
    # Opaque object: charge a fixed struct-sized footprint.
    return 64


@dataclass
class Message:
    """One message on the simulated fabric.

    Attributes
    ----------
    ptype:
        Single-byte packet type, used for dispatch and PUB/SUB filters.
    src, dst:
        Network addresses.  ``dst`` is filled in by the sending socket.
    payload:
        Arbitrary Python/numpy payload.
    size_bytes:
        Serialized size; computed from the payload unless given
        explicitly (protocol headers add one type byte).
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
    """

    ptype: PacketType
    payload: Any = None
    src: int = -1
    dst: int = -1
    size_bytes: int = -1
    request_id: Optional[int] = None
    seq: Optional[int] = None
    term: Optional[int] = None
    send_time: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            self.size_bytes = 1 + payload_nbytes(self.payload)

    def reply(self, ptype: PacketType, payload: Any = None) -> "Message":
        """Build a response message correlated with this request."""
        return Message(ptype=ptype, payload=payload, request_id=self.request_id)
