"""Superstep sequencing: the run controller and run results.

The lead directory aggregates per-round readiness (Figure 2) and hands
the merged statistics to a :class:`SyncRunController`, which decides
what happens next:

* issue the next normal superstep (apply previous messages, scatter);
* halt, when the program's global convergence condition is met;
* or, when a reshape is due mid-run (an elastic scale, Figure 17, or a
  ring re-weight), issue an *apply-only* round that drains all in-flight
  state into the agents' persistent stores, suspend, reshape the cluster
  and migrate edges, then *resume* from persisted state.

The controller lives exactly one synchronous run, and everything that
run does besides barrier rounds is its own: the one ``{step: events}``
plan (:func:`step_plan`) of reshapes and injected crashes, the recovery
the lead hands it on an eviction, and the one path by which a held
barrier re-opens.  Where the run stands is one field, ``status``, moved
only along the rows of :data:`TRANSITIONS`.

Round vs. step: a *round* is one barrier cycle (every broadcast has a
fresh round id); a *step* is an algorithm superstep (one apply).  They
differ only when a reshape or a recovery injects apply-only/resume
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.program import RunSpec

#: Simulated seconds after an injected master crash before the master is
#: restarted (the operator's MTTR in the simulation).
MASTER_RESTART_DELAY = 5e-3

#: What a crash-plan entry may name; absent keys mean 0 / False.
CRASH_KEYS = frozenset({"agents", "lead", "master"})

#: A sync run's reshape/recovery status -> the statuses it may move to.
#: ``running`` may roll back to a common checkpoint; ``reshaped`` (resumed
#: after a mid-run reshape) may not — its checkpoints were taken under
#: the pre-reshape partition — so a crash there restarts the run.  A
#: restarted run is ``running`` again: every checkpoint of its fresh run
#: id postdates the reshape.  A move without a row raises.
TRANSITIONS: Dict[str, FrozenSet[str]] = {
    "running": frozenset({"suspended", "rolling-back", "restarting", "halted"}),
    "suspended": frozenset({"reshaped", "restarting"}),
    "reshaped": frozenset({"suspended", "restarting", "halted"}),
    "rolling-back": frozenset({"running"}),
    "restarting": frozenset({"running"}),
    "halted": frozenset(),
}


def step_plan(mode: str, config, scale_plan=None, crash_plan=None, rebalance_plan=None) -> dict:
    """Merge ``ElGA.run``'s three mid-run plans into one ``{step:
    events}`` plan, refusing what could never fire.

    ``events`` holds ``"scale"`` (an agent count), ``"weights"`` (a ring
    re-weight) and/or ``"crash"`` (``{"agents": n, "lead": bool,
    "master": bool}``) — whatever is due after that superstep.  Plans
    need the barrier (sync mode); a crash entry is a dict of
    :data:`CRASH_KEYS` only, and agent and lead crashes need the failure
    detection and failover that would recover from them.
    """
    plans = {"scale_plan": scale_plan, "crash_plan": crash_plan, "rebalance_plan": rebalance_plan}
    for name, plan in plans.items():
        if plan and mode != "sync":
            raise ValueError(f"{name} requires synchronous mode")
    crashes = list((crash_plan or {}).values())
    if not all(isinstance(e, dict) and set(e) <= CRASH_KEYS for e in crashes):
        raise TypeError(
            'crash_plan entries must be {"agents": n, "lead": bool, "master": bool} dicts'
        )
    if any(e.get("agents", 0) > 0 for e in crashes) and config.heartbeat_interval <= 0:
        raise ValueError("crash_plan needs failure detection: set heartbeat_interval > 0")
    if any(e.get("lead") for e in crashes) and (
        config.dir_lease_interval <= 0 or config.n_directories < 2
    ):
        raise ValueError(
            "a lead-directory crash needs failover: set "
            "dir_lease_interval > 0 and n_directories >= 2"
        )
    merged: Dict[int, dict] = {}
    for kind, plan in (("scale", scale_plan), ("weights", rebalance_plan), ("crash", crash_plan)):
        for step, value in (plan or {}).items():
            merged.setdefault(step, {})[kind] = value
    return merged


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

    Installed through ``cluster.install_run_controller``.  The lead calls
    it with ``(round, step, merged_stats)`` whenever every agent has
    reported ready for a round — it returns the next SUPERSTEP_ADVANCE
    payload, or None to hold the barrier while a reshape lands — and
    calls :meth:`on_evicted` the moment it evicts a crashed agent.  What
    the run schedules in simulated time (crash injection, the reshape
    and recovery waits) are closures of this module, so the end-to-end
    benchmark bills them to ``core``.
    """

    def __init__(self, spec: RunSpec, cluster, plan: Optional[Dict[int, dict]] = None):
        self.spec = spec
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.tracer = cluster.network.tracer
        # {step: events} (see step_plan); each step's entry is popped
        # once, when that step's barrier completes.
        self.plan = dict(plan or {})
        # (step, reshape events) of the apply-only drain in flight; the
        # reshape happens when the drain completes.
        self._drain: Optional[Tuple[int, dict]] = None
        self.status = "running"
        # The membership the run's checkpoints describe: set at start,
        # after a reshape, and after a replacement joins.
        self.members = set(cluster.agents)
        # Delta runs get their own phase names so traces, timelines, and
        # the agents' phase dispatch can tell residual rounds apart.
        self._delta = spec.strategy == "delta"
        self.phase = "delta_init" if self._delta else "init"
        self.round_started_at = self.kernel.now
        self.round_durations: List[Tuple[str, int, float]] = []
        self.stats_history: List[Dict[str, float]] = []
        self.final_step = 0
        self._last_round = 0
        self._ctx = {"global_n": spec.global_n}
        # Idempotency guard for lead failover: a newly-elected lead
        # re-collects READY for the in-flight round and re-drives the
        # barrier, so the same round id can reach this controller twice.
        # The decision (and its side effects: durations, stats history,
        # the plan pop, a crash or a drain) must happen exactly once;
        # replays get the memoised response verbatim.
        self._processed_round = -1
        self._last_response: Optional[dict] = None

    @property
    def done(self) -> bool:
        return self.status == "halted"

    def _to(self, status: str) -> None:
        """Move the run's status along one row of :data:`TRANSITIONS`."""
        if status not in TRANSITIONS[self.status]:
            raise RuntimeError(f"a sync run cannot go from {self.status} to {status}")
        self.status = status

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

    def resume_payload(self, round_id: int, step: int) -> dict:
        """The ADVANCE that re-opens a held barrier at ``step``.

        Carries the full RunSpec: agents that joined while the barrier
        was held bootstrap their run state from it (they never saw the
        original RUN_START).
        """
        payload = self._payload(round_id, step, "resume")
        payload["spec"] = self.spec
        return payload

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
        # A resume round only re-scatters — no applies ran, so its stats
        # are empty and must not be mistaken for quiescence.
        if self.phase != "resume" and halts(step, stats, self._ctx):
            self._to("halted")
            self.final_step = step
            return {"run_id": self.spec.run_id, "phase": "halt", "step": step, "round": -1}
        if self.phase == "apply_only":
            # All in-flight state is now persisted; agents are suspended.
            self._reshape(step)
            return None
        due = self.plan.pop(step, {})
        if due.get("crash"):
            self._crash(due["crash"])
        reshape = {kind: due[kind] for kind in ("scale", "weights") if kind in due}
        if reshape:
            # Drain in-flight state; the reshape happens once it is
            # persisted everywhere.
            self._drain = (step, reshape)
            return self._payload(round_id + 1, step + 1, "apply_only")
        return self._payload(round_id + 1, step + 1, "delta_step" if self._delta else "step")

    # -- what the run does between barrier rounds ------------------------------

    def _reshape(self, step: int) -> None:
        """Mid-run elastic scaling and/or re-weighting of the drained
        cluster, then a resume at ``step`` once it has landed.

        Runs inside the simulator (from the barrier callback), so the
        whole sequence happens in simulated time, like the paper's
        operator issuing pdsh/SIGINT commands mid-computation.
        """
        events = self._drain[1]
        self._drain = None
        self._to("suspended")
        if events.get("weights"):
            self.cluster.rebalance(events["weights"], settle=False)
        if events.get("scale") is not None:
            self.cluster.scale_to(events["scale"], settle=False)
        self.members = set(self.cluster.agents)
        self._reopen(step)

    def _crash(self, entry: dict) -> None:
        """Fire a crash-plan entry a beat after the superstep's ADVANCE
        goes out, so the failure lands mid-superstep with messages in
        flight (mid-drain, when a reshape is due at the same step: the
        lead's lease sweep still detects the victim, because detached
        endpoints are never lease-refreshed, quiet phase or not).

        A crashed master is restarted after ``MASTER_RESTART_DELAY``; a
        crashed lead Directory is *not* — the peers' election replaces
        it."""
        cluster = self.cluster

        def crash() -> None:
            if entry.get("lead"):
                cluster.crash_directory()
            if entry.get("master"):
                cluster.crash_master()
                cluster.kernel.schedule(MASTER_RESTART_DELAY, cluster.restart_master)
            for _ in range(entry.get("agents", 0)):
                if len(cluster.agents) > 1:
                    cluster.crash_agent()

        self.kernel.schedule(5e-4, crash)

    def on_evicted(self, agent_id: int) -> None:
        """Directory-driven recovery, end to end (runs in simulated time).

        Called by the lead the moment it evicts a crashed agent.  The
        sequence:

        1. Decide the recovery mode from the *durable* store: roll the
           whole cluster back to the newest checkpoint step every
           member (including the victim) holds, or — when there is no
           such step, checkpointing is off, the run reshaped, or another
           member is missing too — restart the run (WAL-only
           degradation).  A reshape whose drain the crash interrupted
           goes back into the plan: the recovered run drains for it
           again when it reaches that step.
        2. Broadcast RECOVER; every surviving agent rolls back (or
           drops the run) and bumps its data-incarnation fence.
        3. Once all survivors acknowledge (observed via their recovery
           epoch), bring up the replacement: it restores the victim's
           checkpoint, replays the WAL suffix, and joins — the
           membership broadcast then migrates every edge to where the
           new ring says it lives.
        4. When migration quiesces, re-open the barrier
           (:meth:`_reopen`): resume at the checkpoint step, or re-issue
           RUN_START.
        """
        if self.status == "halted":
            return
        cluster = self.cluster
        run_id = self.spec.run_id
        step = 0
        if (
            cluster.config.checkpoint_every > 0
            and self.status == "running"
            and self.members - {agent_id} == set(cluster.agents)
        ):
            common: List[int] = []
            for member in sorted(set(cluster.agents) | {agent_id}):
                steps = cluster.recovery.slot(member).checkpoints.steps_for(run_id)
                common.append(max(steps) if steps else 0)
            step = min(common) if common else 0
        mode = "rollback" if step >= 1 else "restart"
        self._to("rolling-back" if mode == "rollback" else "restarting")
        if self._drain is not None:
            drained_at, events = self._drain
            self.plan[drained_at] = events
            self._drain = None
        incarnation = cluster.bump_incarnation()
        cluster.recovery_log.append(
            {
                "event": "recover",
                "mode": mode,
                "crashed": agent_id,
                "step": step,
                "incarnation": incarnation,
            }
        )
        cluster.lead.broadcast_recover(
            {"mode": mode, "run_id": run_id, "step": step, "incarnation": incarnation}
        )

        def bring_up_replacement() -> None:
            cluster.replace_crashed_agent(
                agent_id,
                run_id=run_id if mode == "rollback" else None,
                step=step if mode == "rollback" else None,
            )
            self.members = set(cluster.agents)
            self._reopen(step)

        self._when(
            lambda: all(a.recover_epoch >= incarnation for a in cluster.agents.values()),
            bring_up_replacement,
        )

    def _reopen(self, step: int) -> None:
        """The one way a held barrier re-opens.

        At the first millisecond tick at which the reshape has landed
        everywhere, resume at ``step`` — or, when recovery is restarting
        the run, re-issue RUN_START under a fresh run id.  Unless the
        status moved on meanwhile: a crash mid-suspension hands the
        barrier to a restart, and a late resume from the pre-crash
        suspension would replay a stale round into it.
        """
        status = self.status

        def reopen() -> None:
            if self.status != status:
                return
            if status != "restarting":
                self._to("reshaped" if status == "suspended" else "running")
                self.cluster.lead.send_advance(self.resume_payload(self._last_round + 1, step))
                return
            # A *fresh* run_id: straggling control traffic from the
            # aborted attempt (same old run_id, possibly retransmitted
            # much later by the reliable transport) is then rejected by
            # the agents' run_id guard instead of corrupting the new run.
            self.cluster.recovery.prune_run(self.spec.run_id)
            self.spec = replace(self.spec, run_id=self.spec.run_id + 1)
            self._to("running")
            self.phase = "delta_init" if self._delta else "init"
            self.round_started_at = self.kernel.now
            # Round ids start over; post-restart rounds are decided afresh.
            self._processed_round = -1
            self._last_response = None
            self.cluster.lead.send_run_start(self.spec)

        self._when(lambda: self.status != status or self._reshaped(), reopen)

    def _when(self, ready: Callable[[], bool], then: Callable[[], None]) -> None:
        """Run ``then`` at the first simulated millisecond tick, counted
        from now, at which ``ready()`` holds."""

        def poll() -> None:
            if ready():
                then()
            else:
                self.kernel.schedule(1e-3, poll)

        self.kernel.schedule(1e-3, poll)

    def _reshaped(self) -> bool:
        """Whether a reshape has landed everywhere: every agent adopted
        the lead's state and no migration is outstanding.  A suspended
        agent has no heartbeat tick to notice a dead home directory
        from, so orphans are sent to re-home first."""
        self.cluster.rehome_orphans()
        return self.cluster.consistent()
