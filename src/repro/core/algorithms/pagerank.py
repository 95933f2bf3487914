"""PageRank vertex program (§4.3).

"At each iteration, a vertex receives messages from each in-neighbor,
aggregates them with a sum, scales the value, and sends its values out
to its out-neighbors."  Termination matches the baselines: the run halts
when the global L1 residual drops below ``tol`` or after ``max_iters``
supersteps; the paper validates agreement to 1e-8 across systems.

In the dynamic case PageRank converges from the previous fixpoint by
residual propagation: because p = (1-d)/n + d·Mᵀp is linear, only the
*change* in each vertex's scattered value needs to flow.  Every vertex
remembers the last per-edge value it sent; an active vertex scatters
``s_new - s_last`` and a receiver folds ``d · Σ deltas`` straight into
its rank.  Edge mutations (u, v, ±1) inject round-0 seeds of ±u's old
per-edge message at v, so inserting and deleting the same edge cancels
exactly.  Vertices whose |Δp| falls under an activation threshold drop
out of the frontier; the run halts on global quiescence or when the L1
residual dips below ``tol``, matching the from-scratch tolerance.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.program import VertexProgram


class PageRank(VertexProgram):
    """Synchronous PageRank.

    Parameters
    ----------
    damping:
        Damping factor d (0.85, as everywhere).
    tol:
        Global L1 convergence threshold.
    max_iters:
        Superstep cap.
    delta_tol:
        Per-vertex activation threshold for delta runs: a vertex leaves
        the frontier once |Δp| drops under it.  Defaults to
        ``tol / global_n``, which bounds the extra steady-state error of
        a delta run by ``tol · d/(1-d)`` in L1 — the same order as the
        halt tolerance itself.

    Examples
    --------
    >>> pr = PageRank(damping=0.85, tol=1e-8)
    >>> pr.aggregator
    'sum'
    """

    name = "pagerank"
    aggregator = "sum"
    needs_in_and_out = False
    supports_async = False
    supports_delta = True
    delta_messages = True
    requires_stable_n = True

    def __init__(
        self,
        damping: float = 0.85,
        tol: float = 1e-8,
        max_iters: int = 100,
        delta_tol: Optional[float] = None,
    ):
        if not 0 < damping < 1:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if tol <= 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if delta_tol is not None and delta_tol <= 0:
            raise ValueError(f"delta_tol must be positive, got {delta_tol}")
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_iters = int(max_iters)
        self.delta_tol = None if delta_tol is None else float(delta_tol)

    def _activation_threshold(self, ctx: Dict[str, Any]) -> float:
        if self.delta_tol is not None:
            return self.delta_tol
        return self.tol / max(int(ctx.get("global_n", 1)), 1)

    def initial_value(self, vertex_ids: np.ndarray, ctx: Dict[str, Any]) -> np.ndarray:
        n = max(int(ctx["global_n"]), 1)
        return np.full(len(vertex_ids), 1.0 / n)

    def scatter_values(self, values: np.ndarray, out_deg_total: np.ndarray) -> np.ndarray:
        # Dangling vertices have no out-edges, so the guard value is
        # never used — it only avoids a divide warning.
        return values / np.maximum(out_deg_total, 1.0)

    def apply(
        self, old: np.ndarray, agg: np.ndarray, got: np.ndarray, ctx: Dict[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = max(int(ctx["global_n"]), 1)
        new = kernels.pagerank_apply(
            np.asarray(agg, dtype=np.float64), (1.0 - self.damping) / n, self.damping
        )
        # PageRank is dense: every vertex recomputes and rescatters every
        # superstep until the global residual halts the run.
        return new, np.ones(len(old), dtype=bool)

    def step_stats(
        self, old: np.ndarray, new: np.ndarray, active: np.ndarray
    ) -> Dict[str, float]:
        return {
            "residual": float(np.abs(new - old).sum()),
            "active": float(active.sum()),
        }

    def halt(self, step: int, stats: Dict[str, float], ctx: Dict[str, Any]) -> bool:
        if step >= self.max_iters:
            return True
        # Step 0 is the initial scatter; residuals exist from step 1 on.
        return step >= 1 and stats.get("residual", np.inf) < self.tol

    # -- incremental (delta) hooks ------------------------------------------

    def affected(
        self,
        role: str,
        keys: np.ndarray,
        others: np.ndarray,
        actions: np.ndarray,
        ctx: Dict[str, Any],
    ) -> np.ndarray:
        # A mutated out-edge changes u's per-edge message (its degree
        # moved), so u must rescatter.  The destination v needs no
        # a-priori activation: the round-0 seed correction reaches it as
        # a message and delta_apply activates it if the change matters.
        if role == "out":
            return np.unique(keys)
        return np.empty(0, dtype=np.int64)

    def delta_seed_values(
        self,
        role: str,
        keys: np.ndarray,
        others: np.ndarray,
        actions: np.ndarray,
        values: np.ndarray,
        out_deg_old: np.ndarray,
        ctx: Dict[str, Any],
    ) -> Optional[np.ndarray]:
        if role != "out":
            return None
        # ±(u's old per-edge message): what v used to receive along the
        # mutated edge.  A vertex that had no out-edges never sent
        # anything, so its seed is zero.
        seeds = actions * values / np.maximum(out_deg_old, 1.0)
        return np.where(out_deg_old > 0, seeds, 0.0)

    def delta_flush_mask(
        self,
        values: np.ndarray,
        out_deg_total: np.ndarray,
        last_sent: np.ndarray,
        ctx: Dict[str, Any],
    ) -> Optional[np.ndarray]:
        # Unsent rank mass still owed to out-neighbors: per-edge pending
        # times fan-out.  NaN baselines (split rows) compare False.
        pending = self.scatter_values(values, out_deg_total) - last_sent
        mass = np.abs(pending) * out_deg_total
        return mass > self._activation_threshold(ctx)

    def delta_apply(
        self, old: np.ndarray, agg: np.ndarray, got: np.ndarray, ctx: Dict[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        # agg is the summed change in incoming messages; the linearity
        # of p = (1-d)/n + d·Σ means the rank moves by exactly d·agg.
        delta = np.where(got, self.damping * agg, 0.0)
        new = old + delta
        return new, np.abs(delta) > self._activation_threshold(ctx)

    def delta_stats(
        self, old: np.ndarray, new: np.ndarray, active: np.ndarray
    ) -> Dict[str, float]:
        resid = np.abs(new - old)
        return {
            "residual": float(resid.sum()),
            "active": float(active.sum()),
            # max_-prefixed: the directory folds this by maximum, not sum.
            "max_residual": float(resid.max(initial=0.0)),
        }

    def delta_halt(self, step: int, stats: Dict[str, float], ctx: Dict[str, Any]) -> bool:
        if step >= self.max_iters:
            return True
        if step < 1:
            return False
        # Frontier quiescence, or the same L1 tolerance as from-scratch.
        return stats.get("active", 0) == 0 or stats.get("residual", np.inf) < self.tol
