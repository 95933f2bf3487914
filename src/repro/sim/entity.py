"""Single-threaded actor base class.

ElGA follows a shared-nothing design (§3.1): each entity is single
threaded and only communicates via message passing.  :class:`Entity`
models exactly that — an entity owns private state, receives messages
through :meth:`handle_message`, and may schedule future work on the
kernel, but never touches another entity's state directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.random import entity_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.net.message import Message
    from repro.net.network import Network


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
        # Imported here: ``repro.bench`` pulls in the chaos harness, which
        # imports the fabric this module sits under.
        from repro.bench.counters import PerfCounters

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

    def busy_backlog(self) -> float:
        """Seconds of already-charged work not yet elapsed."""
        return max(0.0, self._busy_until - self.now)

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Remove this entity from the network (no further delivery)."""
        self.network.detach(self.address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} @{self.address}>"
