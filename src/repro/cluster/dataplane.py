"""Data-plane fast path: canonical combining and packet coalescing.

ElGA restricts vertex programs to commutative/associative aggregators
precisely so partial aggregation can happen anywhere in the pipeline
(§3.4).  This module supplies the two pieces the Agent's synchronous
data plane builds on:

* :func:`combine_pairs` — the *canonical per-batch reduction*: fold a
  ``(dst, val)`` multiset into one partial per destination vertex, in
  (dst, val)-lexicographic order, via ``ufunc.at``.  Because the fold
  order is a pure function of the batch *contents*, the result is
  bit-identical no matter where it runs — on the sender before the
  packet ships (the data plane) or on the receiver when the packet
  arrives (the uncombined reference the bit-identity tests build).
  ``ufunc.at`` is deliberate: ``reduceat`` / ``ufunc.reduce`` use
  pairwise summation whose tree shape depends on segment lengths,
  which would break bit-equality between paths.

* :class:`RoundBuffers` — per-(destination agent, packet type) buffers
  that merge every data-plane emission of one superstep round into a
  single struct-of-arrays packet.  Coalescing is what makes the
  *batch boundaries* canonical: a round-packet's contents are exactly
  "everything this sender produced for that destination this round",
  independent of the order replica syncs or values happened to arrive.

Together they give the two-level reduction the Agent relies on for
determinism under chaos: level 1 folds each round-packet to one
partial per vertex (sender- or receiver-side, identically); level 2
folds the partials across senders in (dst, partial)-sorted order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro import kernels
from repro.net.message import PacketType

# Data-plane packet types subject to round coalescing, in the order
# their buffers flush (syncs unblock primaries, values unblock
# replicas, vertex messages ride last).
COALESCED_TYPES = (
    PacketType.REPLICA_SYNC,
    PacketType.REPLICA_VALUE,
    PacketType.VERTEX_MSG,
)

#: Simulated seconds a receiver accrues VERTEX_MSG_ACK credits before
#: flushing one cumulative ack (``count`` = packets covered) per
#: (sender, incarnation).
ACK_BATCH_WINDOW = 2e-5


def combine_pairs(
    dst: np.ndarray, val: np.ndarray, ufunc: np.ufunc, identity: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonically reduce a (dst, val) multiset to one value per dst.

    Pairs fold in (dst, val)-lexicographic order starting from the
    aggregator identity — the same order the receive-side flush uses —
    so sender-side and receive-side reduction are bit-identical.
    Returns (sorted unique dsts, folded values).
    """
    return kernels.combine_pairs(dst, val, ufunc, identity)


def segments_by(owners: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Group rows by owner: ``(order, segments)``.

    ``order`` sorts the rows by owner and keeps input order inside a
    group (a stable sort); each ``(owner, start, end)`` segment is the
    slice ``order[start:end]`` of one owner's rows, owners ascending.
    Every place that ships one packet per destination — ingest,
    forwarding, migration, replica sync, delta seeds — groups through
    here; a run's scatter has its own CSR walk
    (:func:`repro.kernels.scatter_rows`).
    """
    order = np.argsort(owners, kind="stable")
    if len(order) == 0:
        return order, []
    grouped = owners[order]
    bounds = np.flatnonzero(np.diff(grouped)) + 1
    starts = [0, *bounds.tolist()]
    ends = [*bounds.tolist(), len(order)]
    return order, [(int(grouped[s]), s, e) for s, e in zip(starts, ends)]


def _merge_field(payloads: List[dict], key: str) -> np.ndarray:
    if len(payloads) == 1:
        return np.asarray(payloads[0][key])
    return np.concatenate([np.asarray(p[key]) for p in payloads])


class RoundBuffers:
    """Per-destination round buffers for data-plane emissions.

    One superstep round's VERTEX_MSG / REPLICA_SYNC / REPLICA_VALUE
    emissions toward the same agent are held here and merged into a
    single struct-of-arrays packet per (destination, packet type) at
    flush time.  ``emissions``/``packets`` counters feed the
    coalescing perf counters.
    """

    def __init__(self) -> None:
        self._buf: Dict[PacketType, Dict[int, List[dict]]] = {
            ptype: {} for ptype in COALESCED_TYPES
        }
        self.emissions = 0

    def add(self, agent_id: int, ptype: PacketType, payload: dict) -> None:
        self._buf[ptype].setdefault(agent_id, []).append(payload)
        self.emissions += 1

    def pending(self, ptype: PacketType) -> bool:
        return bool(self._buf[ptype])

    @property
    def empty(self) -> bool:
        return not any(self._buf[ptype] for ptype in COALESCED_TYPES)

    def clear(self) -> None:
        for ptype in COALESCED_TYPES:
            self._buf[ptype] = {}

    def drain_vertex_msgs(
        self, step: int, round_: int
    ) -> Iterator[Tuple[int, int, dict]]:
        """Yield (agent_id, n_emissions, merged payload) per destination,
        in agent-id order.  The caller combines/sends."""
        buffered = self._buf[PacketType.VERTEX_MSG]
        self._buf[PacketType.VERTEX_MSG] = {}
        for agent_id in sorted(buffered):
            payloads = buffered[agent_id]
            payload = {
                "step": step,
                "round": round_,
                "dst": _merge_field(payloads, "dst").astype(np.int64, copy=False),
                "val": _merge_field(payloads, "val").astype(np.float64, copy=False),
            }
            yield agent_id, len(payloads), payload

    def drain_replica(
        self, ptype: PacketType, step: int, round_: int
    ) -> Iterator[Tuple[int, int, dict]]:
        """Yield merged REPLICA_SYNC / REPLICA_VALUE packets per
        destination, rows in sorted-vertex order (canonical wire form:
        the merged packet does not depend on emission order)."""
        buffered = self._buf[ptype]
        self._buf[ptype] = {}
        value_key = "partials" if ptype == PacketType.REPLICA_SYNC else "values"
        flag_key = "got" if ptype == PacketType.REPLICA_SYNC else "active"
        for agent_id in sorted(buffered):
            payloads = buffered[agent_id]
            verts = _merge_field(payloads, "verts").astype(np.int64, copy=False)
            values = _merge_field(payloads, value_key)
            flags = _merge_field(payloads, flag_key)
            outdeg = _merge_field(payloads, "outdeg")
            order = np.argsort(verts, kind="stable")
            payload = {
                "step": step,
                "round": round_,
                "verts": verts[order],
                value_key: values[order],
                flag_key: flags[order],
                "outdeg": outdeg[order],
            }
            yield agent_id, len(payloads), payload
