"""Reactive autoscaling (§3.4.3, Figure 18).

The paper's autoscaler "computes the exponential moving average of a
metric and scales to the average divided by a scaling factor", with a
stabilization wait (60 s) between scaling actions so the EMA can settle.
:class:`ReactiveAutoscaler` is that policy, decoupled from any
particular metric; the Figure 18 experiment feeds it client PageRank
query rates with a 30-second EMA, exactly as described.

Any suitable autoscaler or scaling measure can be plugged in [45]; the
policy interface is a single ``observe → desired`` pair.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Tuple


@dataclass
class ReactiveAutoscaler:
    """EMA-based reactive scaling policy.

    Attributes
    ----------
    scaling_factor:
        Metric units per Agent: the target agent count is
        ``ema / scaling_factor`` (e.g. queries/second one Agent should
        absorb).
    ema_window:
        Time constant of the exponential moving average, seconds (the
        paper uses 30 s of query rates).
    cooldown:
        Minimum seconds between scaling actions (the paper waits 60 s
        "to allow the EMA to stabilize").
    min_agents, max_agents:
        Clamp on the target.
    history_limit:
        Maximum decision points retained in :attr:`history`.  A serving
        loop polls ``desired()`` indefinitely, so the record must be a
        ring buffer, not an unbounded log.
    deadband:
        Hysteresis band, in agent-load units, around the integer
        boundaries of ``ema / scaling_factor``.  ``ceil`` turns an EMA
        hovering at a boundary (say 3.0 agents' worth of load wobbling
        ±ε) into a 3↔4 flap as soon as each cooldown expires; with the
        deadband, a scale-up needs the raw target to clear
        ``current + deadband`` and a scale-down needs it to drop below
        ``target - deadband``, so boundary noise holds steady instead.
    """

    scaling_factor: float
    ema_window: float = 30.0
    cooldown: float = 60.0
    min_agents: int = 1
    max_agents: int = 4096
    history_limit: int = 4096
    deadband: float = 0.25
    _ema: Optional[float] = field(default=None, repr=False)
    _last_obs_time: Optional[float] = field(default=None, repr=False)
    _last_scale_time: float = field(default=-math.inf, repr=False)
    history: Deque[Tuple[float, float, int]] = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.scaling_factor <= 0:
            raise ValueError(f"scaling_factor must be positive, got {self.scaling_factor}")
        if self.ema_window <= 0 or self.cooldown < 0:
            raise ValueError("ema_window must be positive and cooldown non-negative")
        if self.history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        if not 0.0 <= self.deadband < 1.0:
            raise ValueError(f"deadband must be in [0, 1), got {self.deadband}")
        self.history = deque(self.history, maxlen=self.history_limit)

    @property
    def ema(self) -> float:
        """Current smoothed metric value."""
        return 0.0 if self._ema is None else self._ema

    def observe(self, value: float, now: float) -> None:
        """Feed one metric sample taken at simulated time ``now``.

        Samples may arrive out of order (metric reports cross the
        fabric).  A stale sample (``now`` earlier than the newest one
        seen) gets zero weight — and must *not* rewind the observation
        clock, or the next in-order sample would see an inflated ``dt``
        and be over-weighted.
        """
        if self._ema is None or self._last_obs_time is None:
            self._ema = float(value)
            self._last_obs_time = now
            return
        dt = max(now - self._last_obs_time, 0.0)
        alpha = 1.0 - math.exp(-dt / self.ema_window)
        self._ema += alpha * (float(value) - self._ema)
        self._last_obs_time = max(self._last_obs_time, now)

    def target(self) -> int:
        """Agent count the current EMA calls for (ignoring cooldown)."""
        raw = math.ceil(self.ema / self.scaling_factor)
        return int(min(max(raw, self.min_agents), self.max_agents))

    def desired(self, current_agents: int, now: float) -> Optional[int]:
        """The scaling action to take now, or None.

        Returns a new agent count only when the cooldown has elapsed
        and the target differs from the current size; calling it
        records the decision point in :attr:`history`.
        """
        tgt = self.target()
        self.history.append((now, self.ema, tgt))
        if now - self._last_scale_time < self.cooldown:
            return None
        if tgt == current_agents:
            return None
        # Hysteresis: hold inside the deadband around the boundary the
        # raw (unclamped, un-ceiled) target just crossed.
        raw = self.ema / self.scaling_factor
        if tgt > current_agents and raw <= current_agents + self.deadband:
            return None
        if tgt < current_agents and raw >= tgt - self.deadband:
            return None
        self._last_scale_time = now
        return tgt
