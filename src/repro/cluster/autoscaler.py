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
from typing import Deque, Dict, List, Optional, Tuple

from repro.rebalance import inverse_load_weights


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


@dataclass(frozen=True)
class ScaleDecision:
    """A partition-aware scaling action: how many agents *and* what to
    move.

    Attributes
    ----------
    target:
        Desired agent count (same meaning as ``desired()``'s return).
    donors:
        Agent ids carrying above-mean load, hottest first — the
        partitions a scale-up should relieve (or a scale-down must not
        evict the peers of).
    weights:
        Suggested post-scale ring weights for the surviving members:
        inverse-load, normalized so the mean weight is unchanged.  The
        directory adopts these through the same fenced re-weight path
        the rebalance planner uses.
    reason:
        Human-readable decision summary for logs/benchmarks.
    """

    target: int
    donors: List[int]
    weights: Dict[int, float]
    reason: str


@dataclass
class PartitionAwareAutoscaler(ReactiveAutoscaler):
    """A :class:`ReactiveAutoscaler` whose decisions name what to move.

    The reactive policy answers *how many* agents; this subclass also
    consumes the per-agent load map (edge counts or per-round compute
    charges) and attaches the hottest partitions as migration donors
    plus an inverse-load weight suggestion, so the control plane can
    re-home load in the same stroke as the membership change rather
    than waiting for hash placement to even things out by luck.

    ``donor_fraction`` bounds how many donors a decision names (top
    fraction of members by load, at least one).
    """

    donor_fraction: float = 0.25

    def plan(
        self, loads: Dict[int, float], now: float
    ) -> Optional[ScaleDecision]:
        """Scaling decision from the load map, or None to hold.

        ``loads`` maps agent id -> load measure (edges held, or summed
        compute charges from the trace).  Cooldown/deadband semantics
        are exactly :meth:`desired`'s.
        """
        if not 0.0 < self.donor_fraction <= 1.0:
            raise ValueError(
                f"donor_fraction must be in (0, 1], got {self.donor_fraction}"
            )
        current = len(loads)
        tgt = self.desired(current, now)
        if tgt is None:
            return None
        mean = sum(loads.values()) / max(len(loads), 1)
        ranked = sorted(loads, key=lambda a: (-loads[a], a))
        n_donors = max(1, math.ceil(len(ranked) * self.donor_fraction))
        donors = [a for a in ranked[:n_donors] if loads[a] > mean]
        if not donors and ranked:
            donors = ranked[:1]
        weights = inverse_load_weights(loads)
        verb = "scale-up" if tgt > current else "scale-down"
        reason = (
            f"{verb} {current}->{tgt} (ema={self.ema:.3f}); "
            f"relieve agents {donors} (mean load {mean:.1f})"
        )
        return ScaleDecision(target=tgt, donors=donors, weights=weights, reason=reason)
