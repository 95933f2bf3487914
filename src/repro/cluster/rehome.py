"""Re-homing: finding a live Directory after the home one died.

A participant that notices its Directory has detached asks the
DirectoryMaster for a live one (``DIRECTORY_QUERY`` over REQ/REP) and
moves its subscription there.  The exchange has to survive the master
being down too (crashed, restarting, or answering ``retry_after`` while
its soft-state registry rebuilds), so each request carries a timeout and
failures retry with exponential backoff.  Agents (from their heartbeat
tick) and ClientProxies (from :meth:`~ClientProxy.query`) run the same
machine; what differs is only what "subscribed again" means, which each
supplies as :meth:`RehomeMixin._on_rehomed`.
"""

from __future__ import annotations

from typing import Optional

from repro.net.message import Message, PacketType
from repro.net.sockets import ReqRepSocket

#: DIRECTORY_QUERY retry policy: simulated seconds a participant waits
#: for the first DIRECTORY_ASSIGN before cancelling and re-querying, the
#: exponential factor applied per attempt (to the reply timeout and the
#: retry delay alike, capped at ``_MAX_BACKOFF``), and the attempts
#: after which it gives up until the next trigger.
MASTER_QUERY_TIMEOUT = 2e-3
MASTER_QUERY_BACKOFF = 2.0
MASTER_QUERY_RETRIES = 16
_MAX_BACKOFF = 0.1


class RehomeMixin:
    """The DIRECTORY_QUERY / timeout / backoff / retry-after machine.

    Mixed into an :class:`~repro.sim.entity.Entity` that keeps its
    subscription endpoint in ``directory_address``.  Timers are bound
    methods of the entity, so scheduled work is attributed to it.
    """

    #: An entity that can die abruptly sets this; a dead one must stop
    #: re-querying.
    crashed = False

    def _init_rehome(self, master_address: Optional[int]) -> None:
        self.master_address = master_address
        self._master_req = ReqRepSocket(self)
        self._rehome_pending = False
        self._rehome_attempts = 0

    def _on_rehomed(self) -> None:
        """``directory_address`` now names a live Directory: subscribe."""
        raise NotImplementedError

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
        if self._master_req._pending_id != request_id:
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
