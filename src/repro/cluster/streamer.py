"""Streamers: edge-change injection (§3.1, Figure 1).

Streamers send graph updates to Agents.  A Streamer is a full
Participant: it receives directory updates, computes each change's
owning Agent itself (both the out-copy and in-copy destinations), and
pushes grouped ``EDGE_UPDATE`` batches.  Its directory view may be
stale — Agents forward misplaced updates — so Streamers never need to
synchronize with elasticity events.

The paper streams A-BTER output straight into the cluster and measures
insertion rates above 2 M edges/s/Agent (Figure 14); the Figure 14
benchmark drives this class.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.config import ClusterConfig
from repro.cluster.dataplane import segments_by
from repro.cluster.participant import Participant
from repro.graph.stream import EdgeBatch
from repro.net.message import PacketType


class Streamer(Participant):
    """One update source.

    Use :meth:`stream_batch` to inject an :class:`EdgeBatch`; the
    ``on_complete`` callback fires (in simulated time) once every change
    has been acknowledged by its final applier.
    """

    def __init__(
        self,
        network,
        config: ClusterConfig,
        streamer_id: int,
        node: int,
        directory_address: int,
        master_address: Optional[int] = None,
    ):
        super().__init__(
            network, f"streamer-{streamer_id}", config, node, directory_address, master_address
        )
        self.streamer_id = streamer_id
        self._outstanding = 0
        self._on_complete: Optional[Callable[[float], None]] = None
        self.edges_sent = 0
        self.edges_acked = 0

    # Bound in this class body, not inherited: the end-to-end harness
    # wraps ``vars(Streamer)["handle_message"]``.
    handle_message = Participant.handle_message

    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether a previous batch is still awaiting acknowledgements."""
        return self._outstanding > 0

    def stream_batch(
        self, batch: EdgeBatch, on_complete: Optional[Callable[[float], None]] = None
    ) -> None:
        """Send one batch of changes to their owning Agents.

        Every change produces two updates — the out-copy (placed by the
        source endpoint) and the in-copy (placed by the destination) —
        so the graph's both-direction storage stays consistent.
        """
        if self.placer is None:
            raise RuntimeError(
                f"streamer {self.streamer_id} has no directory state yet; "
                "run the simulator until the first broadcast lands"
            )
        if self.busy:
            raise RuntimeError("streamer already has a batch in flight")
        self._on_complete = on_complete
        n = len(batch)
        if n == 0:
            if on_complete is not None:
                self.kernel.schedule(0.0, on_complete, self.now)
            return
        self.charge(self.config.costs.streamer_edge_op * n)
        self._outstanding = 2 * n
        self.edges_sent += n
        for role in ("out", "in"):
            own = batch.us if role == "out" else batch.vs
            other = batch.vs if role == "out" else batch.us
            order, segments = segments_by(self.placer.owner_of_edges(own, other))
            for target, start, end in segments:
                rows = order[start:end]
                payload = {
                    "role": role,
                    "actions": batch.actions[rows],
                    "us": batch.us[rows],
                    "vs": batch.vs[rows],
                    "reply_to": self.address,
                    "token": self.streamer_id,
                }
                address = self.dstate.agents.get(target)
                if address is None:
                    # Stale view named a departed agent; any live agent
                    # will forward (eventual consistency).
                    address = next(iter(sorted(self.dstate.agents.values())))
                self.push.push(address, PacketType.EDGE_UPDATE, payload)

    def _on_ack(self, payload: dict) -> None:
        count = int(payload.get("count", 1))
        self._outstanding -= count
        self.edges_acked += count
        if self._outstanding < 0:
            raise RuntimeError("streamer over-acknowledged: protocol bug")
        if self._outstanding == 0 and self._on_complete is not None:
            callback, self._on_complete = self._on_complete, None
            callback(self.now)

    _DISPATCH = {
        **Participant._DISPATCH,
        PacketType.EDGE_UPDATE_ACK: (_on_ack, False),
    }
