"""The vertex-program interface (§3.2).

ElGA's programming model is *locally persistent* [5, 72]: a vertex holds
state across the dynamic graph's lifetime, is activated by changed state
(a neighbor message, a replica update, or an edge change), and emits
messages along its edges.  Agents execute the model vectorized: each
hook receives numpy arrays covering every vertex the Agent hosts, so a
superstep is a handful of array operations rather than a Python loop per
vertex.

A program defines:

* how vertices initialize (:meth:`VertexProgram.initial_value`);
* the message each active vertex sends along its edges
  (:meth:`VertexProgram.scatter_values`), and in which directions
  (:attr:`VertexProgram.needs_in_and_out`);
* how incoming messages combine (:attr:`VertexProgram.aggregator` — a
  commutative, associative reduction so replicas can pre-aggregate);
* the state update (:meth:`VertexProgram.apply`), returning the new
  values and the next active set; and
* the global halt condition over directory-aggregated statistics
  (:meth:`VertexProgram.halt`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

_AGGREGATORS = {
    "sum": (np.add, 0.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


@dataclass
class RunSpec:
    """Everything the RUN_START broadcast carries (one algorithm run).

    Attributes
    ----------
    run_id:
        Unique id, monotone per engine.
    program:
        The (stateless) vertex program to execute.
    incremental:
        If True, vertices keep their persisted values and only vertices
        dirtied since the last run start active (Definition 2.5's
        ``B(G^i, O(G^i), Δ)``); if False, state resets and every vertex
        activates.
    global_n:
        Number of vertices in the current graph (programs like PageRank
        need it for normalization).
    mode:
        ``"sync"`` (BSP supersteps) or ``"async"`` (monotone programs
        processed on arrival, quiescence-terminated).
    """

    run_id: int
    program: "VertexProgram"
    incremental: bool = False
    global_n: int = 0
    mode: str = "sync"
    #: Vertex ids to activate for an incremental run — the endpoints of
    #: the batch's changes (Δ's touched vertices).  Ignored when
    #: ``incremental`` is False.
    activate: Optional[np.ndarray] = None
    #: How the run warms up from persisted state:
    #:
    #: * ``"scratch"`` — cold start, every vertex re-initializes;
    #: * ``"dense"``   — keep persisted values but activate everyone
    #:   (warm start without frontier tracking — the safe fallback when
    #:   the graph reshaped or |V| changed under a delta program);
    #: * ``"delta"``   — keep persisted values and activate only the
    #:   frontier seeded from each agent's dirty mutation rows
    #:   (:meth:`VertexProgram.affected`), converging from the previous
    #:   fixpoint via residual propagation.
    strategy: str = "scratch"

    @property
    def nbytes(self) -> int:
        # Control struct plus the incremental activation list.
        activate = 0 if self.activate is None else 8 * len(self.activate)
        return 64 + activate


class VertexProgram:
    """Base class for vertex-centric algorithms.

    Subclasses override the hooks below; all array arguments are
    per-hosted-vertex and must not be mutated in place.
    """

    name: str = "abstract"
    #: Reduction combining incoming messages ("sum", "min", or "max").
    #: Must be commutative and associative: replicas pre-aggregate their
    #: shard's messages before the primary combines partials.
    aggregator: str = "sum"
    #: Whether messages flow along both edge directions (WCC) or only
    #: out-edges (PageRank, SSSP).
    needs_in_and_out: bool = False
    #: Whether the program supports asynchronous execution.  Only
    #: monotone programs (min/max aggregators whose apply moves values
    #: one way) are safe to run asynchronously.
    supports_async: bool = False

    # -- incremental protocol (delta runs) ----------------------------------

    #: Whether the program can converge from the previous fixpoint with
    #: only a frontier active (strategy ``"delta"``).  Programs that
    #: cannot still benefit from ``"dense"`` warm starts.
    supports_delta: bool = False
    #: If True, active vertices scatter the *change* in their steady
    #: message (``scatter - last_sent``) instead of the absolute value,
    #: and receivers fold the aggregated delta into their state via
    #: :meth:`delta_apply` (residual propagation, e.g. PageRank).
    #: Monotone programs (WCC) leave this False: their absolute messages
    #: re-fold safely.
    delta_messages: bool = False
    #: If True, any pending deletion invalidates the previous fixpoint
    #: and forces a from-scratch run (e.g. min-label WCC cannot undo a
    #: label after the edge that carried it disappears).
    deletions_invalidate: bool = False
    #: If True, a delta run is only valid while |V| is unchanged since
    #: the fixpoint was computed (PageRank's (1-d)/n term bakes n into
    #: every persisted value); otherwise fall back to ``"dense"``.
    requires_stable_n: bool = False

    # -- derived ------------------------------------------------------------

    @property
    def ufunc(self) -> np.ufunc:
        """The numpy ufunc implementing the aggregator."""
        return _AGGREGATORS[self.aggregator][0]

    @property
    def identity(self) -> float:
        """The aggregator's identity element (accumulator initial)."""
        return _AGGREGATORS[self.aggregator][1]

    # -- hooks -----------------------------------------------------------------

    def initial_value(self, vertex_ids: np.ndarray, ctx: Dict[str, Any]) -> np.ndarray:
        """Initial per-vertex value for a from-scratch run."""
        raise NotImplementedError

    def initially_active(self, vertex_ids: np.ndarray, values: np.ndarray, ctx: Dict[str, Any]) -> np.ndarray:
        """Active mask for superstep 0 of a from-scratch run.

        Defaults to everyone; programs with a natural frontier (SSSP's
        source) narrow it.  Incremental runs ignore this — the dirty
        set from applied batches is the initial frontier instead.
        """
        return np.ones(len(vertex_ids), dtype=bool)

    def scatter_values(self, values: np.ndarray, out_deg_total: np.ndarray) -> np.ndarray:
        """Per-vertex message value sent along each (out-)edge.

        ``out_deg_total`` is the vertex's *global* out-degree — for a
        split vertex, the sum over all replicas (synchronized by the
        replica protocol) — which PageRank divides by.
        """
        raise NotImplementedError

    def apply(
        self,
        old: np.ndarray,
        agg: np.ndarray,
        got: np.ndarray,
        ctx: Dict[str, Any],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Combine old values with aggregated messages.

        Parameters
        ----------
        old, agg:
            Current values and aggregated incoming messages (identity
            where ``got`` is False).
        got:
            Which vertices received at least one message this step.

        Returns
        -------
        (new_values, active):
            The updated values and the mask of vertices active next
            superstep (i.e. that will scatter).
        """
        raise NotImplementedError

    def step_stats(
        self, old: np.ndarray, new: np.ndarray, active: np.ndarray
    ) -> Dict[str, float]:
        """Per-agent contribution to the globally-summed statistics."""
        return {"active": float(active.sum())}

    def halt(self, step: int, stats: Dict[str, float], ctx: Dict[str, Any]) -> bool:
        """Global convergence decision, evaluated by the lead directory
        from the summed stats of every agent."""
        raise NotImplementedError

    # -- incremental hooks (strategy "delta") -------------------------------

    def affected(
        self,
        role: str,
        keys: np.ndarray,
        others: np.ndarray,
        actions: np.ndarray,
        ctx: Dict[str, Any],
    ) -> np.ndarray:
        """Frontier seeds from one agent's applied mutation rows.

        Called once per edge role at delta-run start with the agent's
        un-consumed dirty rows: ``keys`` are the locally-keyed endpoints
        (sources for ``role == "out"``, destinations for ``"in"``),
        ``others`` the far endpoints, ``actions`` +1/-1 per row.
        Returns the vertex ids (among ``keys``) that join the initial
        active set.  Default: every touched endpoint.
        """
        return np.unique(keys)

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
        """Per-row structural correction delivered to ``others[i]``.

        For delta-message programs, an edge mutation (u, v, ±1) changes
        v's input by ``±`` u's previously-sent message, which u's owner
        must inject as a round-0 seed (u's own scatter only covers the
        change in its steady value).  ``values`` holds u's persisted
        value per row and ``out_deg_old`` u's out-degree *before* the
        mutations.  Return None (default) or a per-row value array;
        zero-valued rows are skipped.
        """
        return None

    def delta_flush_mask(
        self,
        values: np.ndarray,
        out_deg_total: np.ndarray,
        last_sent: np.ndarray,
        ctx: Dict[str, Any],
    ) -> Optional[np.ndarray]:
        """Vertices owing enough unsent residual to rejoin the frontier.

        Deactivated vertices hold their sub-threshold deltas against
        ``last_sent`` rather than losing them; over a long update stream
        that held mass accumulates.  At the start of each delta run the
        agent asks the program which vertices' accumulated unsent mass
        now matters; returning a bool mask forces them active so the
        debt is flushed.  Return None (default) to skip the check.
        NaN ``last_sent`` entries must compare False.
        """
        return None

    def delta_apply(
        self,
        old: np.ndarray,
        agg: np.ndarray,
        got: np.ndarray,
        ctx: Dict[str, Any],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply for delta rounds: fold the aggregated *delta* into the
        previous value.  Defaults to :meth:`apply` (correct for programs
        whose messages are absolute, e.g. monotone min-label WCC)."""
        return self.apply(old, agg, got, ctx)

    def delta_stats(
        self, old: np.ndarray, new: np.ndarray, active: np.ndarray
    ) -> Dict[str, float]:
        """Per-agent statistics for delta rounds.  Keys prefixed
        ``max_`` merge by maximum at the directory instead of summing
        (order-insensitive, so determinism is preserved)."""
        return self.step_stats(old, new, active)

    def delta_halt(self, step: int, stats: Dict[str, float], ctx: Dict[str, Any]) -> bool:
        """Halt condition for delta runs — typically global frontier
        quiescence (``active == 0``) or the residual dropping under
        ``tol``.  Defaults to :meth:`halt`."""
        return self.halt(step, stats, ctx)
