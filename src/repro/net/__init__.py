"""Simulated message-passing layer.

This package stands in for ZeroMQ (§3.5 of the paper).  It reproduces the
communication *semantics* ElGA relies on — REQ/REP blocking requests,
non-blocking PUSH, PUB/SUB with single-byte type filtering, per-entity
serial processing, out-of-order tolerance — while charging simulated time
through a calibrated latency/bandwidth model
(:class:`~repro.net.latency.TransportModel`) instead of real sockets.

The paper measured MPI sends at ~1 µs, raw TCP at ~4 µs, and ZeroMQ at
over 20 µs on its cluster; those constants are the model's presets, so the
relative transport overheads that shape Figures 11–12 carry over.
"""

from repro.net.faults import (
    CONTROL_PTYPES,
    DATA_PTYPES,
    CrashEvent,
    FaultPlan,
    FaultRule,
    PartitionWindow,
)
from repro.net.latency import TransportModel
from repro.net.message import Message, PacketType
from repro.net.network import Network, NetworkStats
from repro.net.sockets import PubSubSocket, PushSocket, ReqRepSocket

__all__ = [
    "CONTROL_PTYPES",
    "DATA_PTYPES",
    "CrashEvent",
    "FaultPlan",
    "FaultRule",
    "Message",
    "PartitionWindow",
    "Network",
    "NetworkStats",
    "PacketType",
    "PubSubSocket",
    "PushSocket",
    "ReqRepSocket",
    "TransportModel",
]
