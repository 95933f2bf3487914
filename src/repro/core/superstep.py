"""Superstep sequencing: the run controller and run results.

The lead directory aggregates per-round readiness (Figure 2) and hands
the merged statistics to a :class:`SyncRunController`, which decides
what happens next:

* issue the next normal superstep (apply previous messages, scatter);
* halt, when the program's global convergence condition is met;
* or, when an elastic scale is requested mid-run (Figure 17), issue an
  *apply-only* round that drains all in-flight state into the agents'
  persistent stores, suspend, let the engine reshape the cluster and
  migrate edges, then *resume* from persisted state.

Round vs. step: a *round* is one barrier cycle (every broadcast has a
fresh round id); a *step* is an algorithm superstep (one apply).  They
differ only when scaling injects apply-only/resume rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.program import RunSpec


@dataclass
class RunResult:
    """Outcome of one algorithm run.

    Attributes
    ----------
    values:
        Vertex id -> final value, merged across agents.
    steps:
        Number of apply supersteps executed (None for async runs, which
        have no superstep structure).
    sim_seconds:
        Total simulated wall time of the run.
    round_durations:
        (phase, step, simulated duration) per barrier round; the
        Figure 8–11 per-iteration numbers come from the ``"step"``
        entries.
    stats_history:
        Globally-merged per-round statistics (residuals, active counts).
    """

    program_name: str
    run_id: int
    mode: str
    values: Dict[int, float]
    steps: Optional[int]
    sim_seconds: float
    round_durations: List[Tuple[str, int, float]] = field(default_factory=list)
    stats_history: List[Dict[str, float]] = field(default_factory=list)
    #: How the run executed: "scratch", "dense" (warm start), or
    #: "delta" (residual propagation from the previous fixpoint).
    strategy: str = "scratch"

    def value(self, vertex: int) -> Optional[float]:
        """The result for one vertex (None if the vertex is unknown)."""
        return self.values.get(int(vertex))

    def top_k(self, k: int, largest: bool = True) -> List[Tuple[int, float]]:
        """The k vertices with the largest (or smallest) values.

        Examples
        --------
        >>> r = RunResult("pr", 1, "sync", {1: 0.5, 2: 0.3, 3: 0.9}, 1, 0.0)
        >>> r.top_k(2)
        [(3, 0.9), (1, 0.5)]
        """
        ranked = sorted(self.values.items(), key=lambda kv: kv[1], reverse=largest)
        return ranked[: max(0, int(k))]

    def groups(self) -> Dict[float, List[int]]:
        """Vertices grouped by value (e.g. WCC components).

        Examples
        --------
        >>> r = RunResult("wcc", 1, "sync", {1: 0.0, 2: 0.0, 5: 5.0}, 1, 0.0)
        >>> sorted(r.groups()[0.0])
        [1, 2]
        """
        out: Dict[float, List[int]] = {}
        for v, x in self.values.items():
            out.setdefault(x, []).append(v)
        return out

    def as_array(self, n: int, default: float = np.nan) -> np.ndarray:
        """Dense value array over vertex ids ``0..n-1``."""
        out = np.full(n, default)
        for v, x in self.values.items():
            if 0 <= v < n:
                out[v] = x
        return out

    #: Barrier phases that are normal compute supersteps (as opposed to
    #: scaling's apply_only/resume choreography) — the entries Figure
    #: 8–11 per-iteration numbers are drawn from.
    COMPUTE_PHASES = ("init", "step", "delta_init", "delta_step")

    def per_step_seconds(self) -> List[float]:
        """Simulated duration of each normal compute superstep."""
        return [d for phase, _, d in self.round_durations if phase in self.COMPUTE_PHASES]

    def mean_step_seconds(self) -> float:
        """Mean per-superstep simulated time (per-iteration runtime)."""
        steps = self.per_step_seconds()
        return float(np.mean(steps)) if steps else 0.0


class SyncRunController:
    """Drives one synchronous run from the lead directory's barrier.

    Installed as ``lead.run_controller``; invoked with
    ``(round, step, merged_stats)`` whenever every agent has reported
    ready for a round.  Returns the next SUPERSTEP_ADVANCE payload or
    None to hold the barrier (engine-managed suspension).
    """

    def __init__(
        self,
        spec: RunSpec,
        kernel,
        scale_plan: Optional[Dict[int, int]] = None,
        on_suspended: Optional[Callable[..., None]] = None,
        crash_plan: Optional[Dict[int, dict]] = None,
        on_crash: Optional[Callable[[dict], None]] = None,
        tracer=None,
        rebalance_plan: Optional[Dict[int, Dict[int, float]]] = None,
    ):
        self.spec = spec
        self.kernel = kernel
        self.scale_plan = dict(scale_plan or {})
        # Mid-run re-weights: {superstep: {agent_id: ring weight}}.
        # Shares the scale plan's apply_only/suspend/resume choreography
        # — the barrier drains in-flight state, the engine adopts the
        # weights (migrating edges), and the run resumes from persisted
        # values.  A step may carry both a scale and a re-weight.
        self.rebalance_plan = dict(rebalance_plan or {})
        self.on_suspended = on_suspended
        self.crash_plan = dict(crash_plan or {})
        self.on_crash = on_crash
        self.tracer = tracer
        # Delta runs get their own phase names so traces, timelines, and
        # the agents' phase dispatch can tell residual rounds apart.
        self._delta = spec.strategy == "delta"
        self.phase = "delta_init" if self._delta else "init"
        self.round_started_at = kernel.now
        self.round_durations: List[Tuple[str, int, float]] = []
        self.stats_history: List[Dict[str, float]] = []
        self.done = False
        self.final_step = 0
        self._last_round = 0
        self._ctx = {"global_n": spec.global_n}
        # Idempotency guard for lead failover: a newly-elected lead
        # re-collects READY for the in-flight round and re-drives the
        # barrier, so the same round id can reach this controller twice.
        # The decision (and its side effects: durations, stats history,
        # scale_plan/crash_plan pops) must happen exactly once; replays
        # get the memoised response verbatim.
        self._processed_round = -1
        self._last_response: Optional[dict] = None

    # -- payload builders -------------------------------------------------

    def _payload(self, round_id: int, step: int, phase: str) -> dict:
        self.phase = phase
        self.round_started_at = self.kernel.now
        self._last_round = round_id
        return {
            "run_id": self.spec.run_id,
            "round": round_id,
            "step": step,
            "phase": phase,
        }

    def _halt_payload(self, step: int) -> dict:
        self.done = True
        self.final_step = step
        return {"run_id": self.spec.run_id, "phase": "halt", "step": step, "round": -1}

    # -- barrier callback -----------------------------------------------------

    def __call__(self, round_id: int, step: int, stats: Dict[str, float]) -> Optional[dict]:
        if round_id <= self._processed_round:
            return self._last_response
        response = self._advance(round_id, step, stats)
        self._processed_round = round_id
        self._last_response = response
        return response

    def _advance(self, round_id: int, step: int, stats: Dict[str, float]) -> Optional[dict]:
        duration = self.kernel.now - self.round_started_at
        self.round_durations.append((self.phase, step, duration))
        self.stats_history.append(dict(stats))
        if self.tracer is not None:
            self.tracer.complete(
                "controller",
                f"round:{self.phase}",
                "round",
                self.round_started_at,
                self.kernel.now,
                {"round": round_id, "step": step, "phase": self.phase},
            )
        program = self.spec.program
        halts = program.delta_halt if self._delta else program.halt

        if self.phase == "apply_only":
            # All in-flight state is now persisted; agents are suspended.
            if halts(step, stats, self._ctx):
                return self._halt_payload(step)
            if self.on_suspended is None:
                raise RuntimeError("apply_only completed but no suspension handler")
            self.on_suspended(
                round_id,
                step,
                self.scale_plan.pop(step - 1, None),
                self.rebalance_plan.pop(step - 1, None),
            )
            return None

        # A resume round only re-scatters — no applies ran, so its stats
        # are empty and must not be mistaken for quiescence.
        if self.phase != "resume" and halts(step, stats, self._ctx):
            return self._halt_payload(step)
        if step in self.scale_plan or step in self.rebalance_plan:
            # Drain in-flight state, then the engine reshapes the cluster.
            # A crash due at this step fires too — otherwise the entry
            # was silently swallowed (this branch returned before the
            # crash check ever ran) and "crash mid-reshape" could not be
            # exercised at all.  The victim dies with the apply_only /
            # migration window open; the lead's lease sweep still
            # detects it because detached endpoints are never lease-
            # refreshed, quiet phase or not.
            if self.crash_plan and self.on_crash is not None:
                due = self.crash_plan.pop(step, None)
                if due:
                    self.on_crash(due)
            return self._payload(round_id + 1, step + 1, "apply_only")
        if self.crash_plan and self.on_crash is not None:
            due = self.crash_plan.pop(step, None)
            if due:
                # The ADVANCE for the next step goes out now; fire the
                # crash while that round is in flight (abrupt: nothing
                # drains).
                self.on_crash(due)
        return self._payload(round_id + 1, step + 1, "delta_step" if self._delta else "step")

    def next_round(self) -> int:
        """The first round id not yet used by any issued payload."""
        return self._last_round + 1

    def mark_restarted(self) -> None:
        """Reset phase tracking when recovery restarts the run."""
        self.phase = "delta_init" if self._delta else "init"
        self.round_started_at = self.kernel.now
        # Recovery may legitimately revisit round ids; drop the replay
        # memo so post-restart rounds are decided afresh.
        self._processed_round = -1
        self._last_response = None

    def resume_payload(self, round_id: int, step: int) -> dict:
        """Built by the engine once migration has quiesced.

        Carries the full RunSpec: agents that joined during the
        suspension bootstrap their run state from it (they never saw
        the original RUN_START).
        """
        payload = self._payload(round_id, step, "resume")
        payload["spec"] = self.spec
        return payload
