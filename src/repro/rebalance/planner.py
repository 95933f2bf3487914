"""Obs-driven load-adaptive rebalancing (ROADMAP item 4).

EIGA's elasticity machinery (§3.4) gives the cluster a weighted
consistent-hash ring and an EDGE_MIGRATE path, but nothing *drives*
them: placement is static-by-hash, so a skewed degree distribution or a
hot partition leaves one agent stragglingly every superstep while its
peers idle at the barrier.  This module closes the loop in the style of
xDGP's adaptive iterative repartitioning: measure per-agent load from
the trace (`TraceSummary` compute timelines) or edge residency, compute
the skew with the `partition/balance.py` primitives, and emit a
*bounded* re-weight plan for the ring.  The directory adopts the plan
through the same term-fenced, epoch-bumping path as a membership
change; agents then observe the new weights in the broadcast state and
re-home misplaced edges via the existing EDGE_MIGRATE protocol — no new
migration machinery.

The plan is deliberately conservative:

* nothing moves below ``skew_threshold`` (max/mean load),
* per-member weight changes are clamped to ``max_weight_delta`` per
  plan and ``[min_weight, max_weight]`` absolutely,
* weights are quantized to ``granularity`` so repeated planning on a
  balanced cluster converges to a fixpoint instead of dithering,
* a plan predicted not to improve the skew is withheld entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.partition.balance import imbalance_factor


def _agent_id(key) -> int:
    """Accept raw ids or trace entity names (``agent-3``)."""
    if isinstance(key, str):
        return int(key.rsplit("-", 1)[-1])
    return int(key)


def normalize_loads(loads: Mapping) -> Dict[int, float]:
    """Load map with integer agent ids (trace names parsed)."""
    return {_agent_id(k): float(v) for k, v in loads.items()}


def inverse_load_weights(
    loads: Mapping,
    current_weights: Optional[Mapping[int, float]] = None,
    min_weight: float = 0.25,
    max_weight: float = 4.0,
    max_weight_delta: float = 1.0,
    granularity: float = 0.01,
) -> Dict[int, float]:
    """Ring weights that equalize load under the proportional model.

    The ring hands a member keys in proportion to its weight, so a
    member observed at load rate ``load_i / w_i`` per unit weight is
    expected to carry ``rate_i * w'_i`` after re-weighting.  Setting
    ``w'_i ∝ 1 / rate_i`` equalizes that, normalized so the mean weight
    is preserved (total virtual-position budget unchanged), then
    clamped and quantized per the module rules.
    """
    loads = normalize_loads(loads)
    if not loads:
        return {}
    ids = sorted(loads)
    weights = {i: 1.0 for i in ids}
    if current_weights:
        weights.update({int(k): float(v) for k, v in current_weights.items() if int(k) in weights})
    load_arr = np.array([loads[i] for i in ids], dtype=np.float64)
    w_arr = np.array([weights[i] for i in ids], dtype=np.float64)
    # Idle agents still deserve keys: floor the rate at a small fraction
    # of the mean so 1/rate stays finite and the clamp does the rest.
    rate = load_arr / w_arr
    floor = max(rate.mean() * 1e-3, 1e-12)
    rate = np.maximum(rate, floor)
    ideal = 1.0 / rate
    ideal *= w_arr.mean() / ideal.mean()
    bounded = np.clip(ideal, w_arr - max_weight_delta, w_arr + max_weight_delta)
    bounded = np.clip(bounded, min_weight, max_weight)
    quantized = np.round(bounded / granularity) * granularity
    return {i: round(float(q), 9) for i, q in zip(ids, quantized)}


@dataclass(frozen=True)
class RebalancePlan:
    """A bounded ring re-weight emitted by the planner.

    ``weights`` is a *complete* member->weight map (every current
    member present), ready for fenced adoption by the lead directory.
    """

    weights: Dict[int, float]
    skew_before: float
    skew_predicted: float
    reason: str = ""

    def is_noop(self, current_weights: Mapping[int, float]) -> bool:
        """True when adoption would not change any member's weight."""
        return all(
            abs(w - float(current_weights.get(i, 1.0))) < 1e-9
            for i, w in self.weights.items()
        )


@dataclass
class RebalancePlanner:
    """Emit :class:`RebalancePlan`s from observed per-agent load.

    The engine's loop sets ``skew_threshold`` from
    ``ClusterConfig.rebalance_skew_threshold`` and takes the clamps as
    they stand here; see the module docstring for the bounding rules.
    """

    skew_threshold: float = 1.15
    min_weight: float = 0.25
    max_weight: float = 4.0
    max_weight_delta: float = 1.0
    granularity: float = 0.01
    #: Planning decisions (skew_before, skew_predicted, emitted) — kept
    #: for benchmarks and debugging.
    history: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.skew_threshold < 1.0:
            raise ValueError(f"skew_threshold must be >= 1, got {self.skew_threshold}")
        if not 0 < self.min_weight <= 1.0 <= self.max_weight:
            raise ValueError("weights must satisfy 0 < min_weight <= 1 <= max_weight")
        if self.max_weight_delta <= 0 or self.granularity <= 0:
            raise ValueError("max_weight_delta and granularity must be positive")

    def plan(
        self,
        loads: Mapping,
        current_weights: Optional[Mapping[int, float]] = None,
    ) -> Optional[RebalancePlan]:
        """A bounded re-weight plan, or None when balance is fine.

        ``loads`` maps agent id (or trace entity name) to a load
        measure: summed per-round compute seconds from
        ``TraceSummary.per_agent_compute_totals()`` (preferred — it is
        the quantity the barrier actually waits on) or edge counts from
        ``ElGACluster.edge_loads()``.
        """
        loads = normalize_loads(loads)
        if len(loads) < 2:
            return None
        ids = sorted(loads)
        weights = {i: 1.0 for i in ids}
        if current_weights:
            weights.update(
                {int(k): float(v) for k, v in current_weights.items() if int(k) in weights}
            )
        load_arr = np.array([loads[i] for i in ids], dtype=np.float64)
        skew = imbalance_factor(load_arr)
        if skew < self.skew_threshold:
            self.history.append((skew, skew, False))
            return None
        new_weights = inverse_load_weights(
            loads,
            weights,
            min_weight=self.min_weight,
            max_weight=self.max_weight,
            max_weight_delta=self.max_weight_delta,
            granularity=self.granularity,
        )
        # Predicted post-plan load under the proportional model: the
        # per-unit-weight rate is a property of the member's share of
        # hot keys, so load scales with the weight ratio.
        w_arr = np.array([weights[i] for i in ids], dtype=np.float64)
        nw_arr = np.array([new_weights[i] for i in ids], dtype=np.float64)
        predicted = imbalance_factor(load_arr * nw_arr / w_arr)
        self.history.append((skew, predicted, predicted < skew))
        if predicted >= skew:
            return None
        hot = max(ids, key=lambda i: loads[i])
        plan = RebalancePlan(
            weights=new_weights,
            skew_before=float(skew),
            skew_predicted=float(predicted),
            reason=(
                f"skew {skew:.3f} >= {self.skew_threshold} "
                f"(hottest agent-{hot}); predicted {predicted:.3f}"
            ),
        )
        if plan.is_noop(weights):
            return None
        return plan
