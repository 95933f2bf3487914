"""Single-threaded actor base class.

ElGA follows a shared-nothing design (§3.1): each entity is single
threaded and only communicates via message passing.  :class:`Entity`
models exactly that — an entity owns private state, receives messages
through :meth:`handle_message`, and may schedule future work on the
kernel, but never touches another entity's state directly.  Work an
entity repeats on a cadence is a :class:`Periodic` chain of its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.bench.counters import PerfCounters
from repro.sim.random import entity_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.kernel import EventHandle, SimKernel


class Entity:
    """Base class for all ElGA participants and services.

    Parameters
    ----------
    network:
        The fabric this entity attaches to; attaching assigns the entity
        a unique address.
    name:
        Stable human-readable identifier, also used to derive the
        entity's private random stream.
    seed:
        Experiment root seed for the random stream derivation.
    """

    #: The kind of counter registry (``perf``) this entity carries; see
    #: :data:`repro.bench.counters.COUNTERS`.  None takes any declared name.
    KIND: Optional[str] = None

    def __init__(self, network: "Network", name: str, seed: int = 0):
        self.name = name
        # Everything this entity counts, and the only place it counts it.
        self.perf = PerfCounters(self.KIND)
        self.network = network
        self.rng: np.random.Generator = entity_rng(seed, name)
        self.address: int = network.attach(self)
        self._busy_until = 0.0
        # Lifetime simulated seconds billed through charge(); the
        # cost-model counter the Prometheus exposition reports.
        self.charged_seconds = 0.0

    # -- messaging -------------------------------------------------------

    def handle_message(self, message: "Message") -> None:
        """Process one incoming message.  Subclasses override this."""
        raise NotImplementedError(
            f"{type(self).__name__} received a message but does not override handle_message"
        )

    # -- simulated compute time ------------------------------------------

    @property
    def kernel(self):
        """The simulation kernel this entity's network runs on."""
        return self.network.kernel

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.network.kernel.now

    def charge(self, seconds: float) -> None:
        """Charge simulated compute time to this (single-threaded) entity.

        An entity processes work serially, so compute charged while the
        entity is already busy extends the busy horizon rather than
        overlapping.  :meth:`available_at` reports when the entity could
        next send a response, which the network uses to serialize this
        entity's outgoing traffic.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self.charged_seconds += seconds
        start = max(self._busy_until, self.now)
        self._busy_until = start + seconds

    def available_at(self) -> float:
        """Earliest simulated time this entity is free to act."""
        return max(self._busy_until, self.now)

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Remove this entity from the network (no further delivery)."""
        self.network.detach(self.address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} @{self.address}>"


class Periodic:
    """One timer chain of an entity: ``tick`` every ``interval`` seconds
    for as long as the tick re-arms it.

    ``tick`` is the owner's own bound method, scheduled as is, so the
    work it does is billed to the owner's class.  Each tick runs a
    guard (does the chain still have a reason to run?), its body, and
    then :meth:`arm`; a tick that returns without arming ends the chain
    until something arms it again.  Armed means the tick's event is
    still queued, so nothing has to be reset when it fires.  An
    ``interval`` of 0 switches the chain off: :meth:`arm` does nothing.
    """

    __slots__ = ("kernel", "interval", "tick", "_handle")

    def __init__(self, kernel: "SimKernel", interval: float, tick: Callable[[], None]):
        self.kernel = kernel
        self.interval = interval
        self.tick = tick
        self._handle: Optional["EventHandle"] = None

    @property
    def armed(self) -> bool:
        """Whether a tick is waiting to fire."""
        return self._handle is not None and self._handle.queued

    def arm(self) -> None:
        """Schedule the next tick ``interval`` from now (idempotent)."""
        if self.interval > 0 and not self.armed:
            self._handle = self.kernel.schedule(self.interval, self.tick)
