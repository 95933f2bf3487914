"""Run controller and RunResult unit behavior."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import ElGA, PageRank, WCC
from repro.core.program import RunSpec
from repro.core.superstep import TRANSITIONS, RunResult, SyncRunController, step_plan
from repro.sim import SimKernel

BUSY = {"residual": 1.0, "active": 5}


class FakeCluster:
    """What a SyncRunController reaches of ElGACluster, recording every
    action in ``actions``.  Reshapes land at once, survivors acknowledge
    a RECOVER at once, and every member holds the value checkpoints
    listed in ``checkpoints``."""

    def __init__(self, checkpoint_every=0, checkpoints=()):
        self.kernel = SimKernel()
        self.network = SimpleNamespace(tracer=None)
        self.config = SimpleNamespace(checkpoint_every=checkpoint_every)
        self.agents = {i: SimpleNamespace(recover_epoch=0) for i in range(4)}
        self.actions = []
        self.recovery_log = []
        self.incarnation = 0
        steps = SimpleNamespace(steps_for=lambda run_id: list(checkpoints))
        self.recovery = SimpleNamespace(
            slot=lambda agent_id: SimpleNamespace(checkpoints=steps),
            prune_run=lambda run_id: self.actions.append(("prune_run", run_id)),
        )
        self.lead = SimpleNamespace(
            send_advance=lambda payload: self.actions.append(
                ("advance", payload["phase"], payload["round"], payload["step"])
            ),
            send_run_start=lambda spec: self.actions.append(("run_start", spec.run_id)),
            broadcast_recover=self._broadcast_recover,
        )

    def _broadcast_recover(self, payload):
        self.actions.append(("recover", payload["mode"], payload["step"]))
        for agent in self.agents.values():
            agent.recover_epoch = payload["incarnation"]

    def scale_to(self, n_agents, settle):
        self.actions.append(("scale_to", n_agents))

    def rebalance(self, weights, settle):
        self.actions.append(("rebalance", weights))

    def crash_agent(self):
        victim = max(self.agents)
        del self.agents[victim]
        self.actions.append(("crash_agent", victim))
        return victim

    def replace_crashed_agent(self, agent_id, run_id=None, step=None):
        self.agents[agent_id] = SimpleNamespace(recover_epoch=self.incarnation)
        self.actions.append(("replace", agent_id, step))

    def bump_incarnation(self):
        self.incarnation += 1
        return self.incarnation

    def rehome_orphans(self):
        return False

    def consistent(self):
        return True

    def count(self, kind):
        return sum(1 for action in self.actions if action[0] == kind)


def make_controller(program, plan=None, **cluster):
    fake = FakeCluster(**cluster)
    spec = RunSpec(run_id=1, program=program, global_n=100)
    return SyncRunController(spec, fake, plan), fake


def test_normal_progression():
    ctrl, _ = make_controller(PageRank(max_iters=10))
    payload = ctrl(0, 0, {"residual": 1.0})
    assert payload["phase"] == "step"
    assert payload["step"] == 1 and payload["round"] == 1
    payload = ctrl(1, 1, {"residual": 1.0})
    assert payload["step"] == 2


def test_halts_on_convergence():
    ctrl, _ = make_controller(PageRank(tol=1e-3, max_iters=50))
    ctrl(0, 0, {})
    payload = ctrl(1, 1, {"residual": 1e-6})
    assert payload["phase"] == "halt"
    assert ctrl.done
    assert ctrl.final_step == 1


def test_halts_on_iteration_cap():
    ctrl, _ = make_controller(PageRank(tol=0.0 + 1e-300, max_iters=2))
    ctrl(0, 0, {})
    ctrl(1, 1, {"residual": 1.0})
    payload = ctrl(2, 2, {"residual": 1.0})
    assert payload["phase"] == "halt"


def test_scale_plan_triggers_apply_only():
    ctrl, cluster = make_controller(WCC(), {1: {"scale": 8}})
    ctrl(0, 0, {"active": 5})
    payload = ctrl(1, 1, {"active": 5})
    assert payload["phase"] == "apply_only"
    # apply_only completion holds the barrier while the cluster reshapes.
    result = ctrl(2, 2, {"active": 3})
    assert result is None
    assert cluster.actions == [("scale_to", 8)]
    assert ctrl.status == "suspended"
    cluster.kernel.run()
    assert cluster.actions[-1] == ("advance", "resume", 3, 2)
    assert ctrl.status == "reshaped"
    assert ctrl.resume_payload(3, 2)["spec"] is ctrl.spec


def test_rebalance_plan_triggers_apply_only():
    ctrl, cluster = make_controller(WCC(), {1: {"weights": {0: 2.0, 1: 0.5}}})
    ctrl(0, 0, {"active": 5})
    payload = ctrl(1, 1, {"active": 5})
    assert payload["phase"] == "apply_only"
    result = ctrl(2, 2, {"active": 3})
    assert result is None
    # No scale target, but the weight map rides through.
    assert cluster.actions == [("rebalance", {0: 2.0, 1: 0.5})]


def test_resume_round_never_halts():
    ctrl, cluster = make_controller(WCC(), {1: {"scale": 8}})
    ctrl(0, 0, {"active": 5})
    ctrl(1, 1, {"active": 5})
    assert ctrl(2, 2, {"active": 3}) is None  # suspension
    cluster.kernel.run()  # the reshape lands; the controller resumes
    payload = ctrl(3, 2, {})  # resume completes with empty stats
    assert payload["phase"] == "step"


def test_apply_only_can_halt_directly():
    ctrl, _ = make_controller(PageRank(tol=1.0, max_iters=50), {1: {"scale": 4}})
    ctrl(0, 0, {})
    ctrl(1, 1, {"residual": 10.0})
    payload = ctrl(2, 2, {"residual": 1e-9})
    assert payload["phase"] == "halt"


def test_round_durations_recorded():
    ctrl, cluster = make_controller(PageRank(max_iters=3))
    cluster.kernel.schedule(0.5, lambda: None)
    cluster.kernel.run()
    ctrl(0, 0, {})
    assert ctrl.round_durations == [("init", 0, 0.5)]


# ----------------------------------------------------------------------
# one step plan
# ----------------------------------------------------------------------


def _config(**kw):
    return SimpleNamespace(
        **{"heartbeat_interval": 0.005, "dir_lease_interval": 0.0, "n_directories": 1, **kw}
    )


def test_step_plan_merges_the_three_plans_once():
    plan = step_plan(
        "sync", _config(), {2: 8}, {2: {"agents": 1}}, {2: {0: 2.0}, 5: {1: 0.5}}
    )
    assert plan == {
        2: {"scale": 8, "weights": {0: 2.0}, "crash": {"agents": 1}},
        5: {"weights": {1: 0.5}},
    }
    assert step_plan("async", _config()) == {}


@pytest.mark.parametrize("kind", ["scale_plan", "crash_plan", "rebalance_plan"])
def test_async_run_refuses_every_plan(kind):
    """A plan needs the barrier; async mode used to drop a scale plan
    without a word."""
    elga = ElGA(nodes=1, agents_per_node=2, seed=2, heartbeat_interval=0.005)
    elga.ingest_edges(np.array([0, 1, 2]), np.array([1, 2, 0]))
    plan = {"scale_plan": {1: 3}, "crash_plan": {1: {"agents": 1}},
            "rebalance_plan": {1: {0: 2.0}}}[kind]
    with pytest.raises(ValueError, match=f"{kind} requires synchronous mode"):
        elga.run(WCC(), mode="async", **{kind: plan})


def test_crash_entry_with_unknown_key_is_refused():
    """``{"agent": 1}`` used to be accepted and never fire."""
    elga = ElGA(nodes=1, agents_per_node=2, seed=2)
    elga.ingest_edges(np.array([0, 1, 2]), np.array([1, 2, 0]))
    with pytest.raises(TypeError, match="crash_plan entries"):
        elga.run(PageRank(max_iters=3), crash_plan={2: {"agent": 1}})


# ----------------------------------------------------------------------
# status table, crash injection, recovery
# ----------------------------------------------------------------------


def test_status_table_is_closed():
    assert set().union(*TRANSITIONS.values()) <= set(TRANSITIONS)
    assert TRANSITIONS["halted"] == frozenset()
    reachable, frontier = {"running"}, ["running"]
    while frontier:
        for nxt in TRANSITIONS[frontier.pop()] - reachable:
            reachable.add(nxt)
            frontier.append(nxt)
    assert reachable == set(TRANSITIONS)


def test_unknown_transition_raises():
    ctrl, _ = make_controller(PageRank(max_iters=3))
    with pytest.raises(RuntimeError, match="cannot go from running to reshaped"):
        ctrl._to("reshaped")
    ctrl._to("halted")
    with pytest.raises(RuntimeError, match="cannot go from halted to running"):
        ctrl._to("running")


def test_crash_and_scale_due_at_one_step_fire_once_each():
    """The crash lands mid-drain and forces a restart: the reshape it
    interrupted goes back into the plan and drains again on the
    restarted run — once, and the crash does not fire a second time."""
    ctrl, cluster = make_controller(
        PageRank(max_iters=10), {1: {"scale": 8, "crash": {"agents": 1}}}
    )
    ctrl(0, 0, BUSY)
    assert ctrl(1, 1, BUSY)["phase"] == "apply_only"
    cluster.kernel.run()  # the crash fires a beat after the ADVANCE
    victim = cluster.actions[-1][1]
    ctrl.on_evicted(victim)  # before the drain could complete
    assert ctrl.status == "restarting"
    cluster.kernel.run()
    assert cluster.actions[-1] == ("run_start", 2)
    assert ctrl.status == "running" and ctrl.spec.run_id == 2
    ctrl(0, 0, BUSY)
    assert ctrl(1, 1, BUSY)["phase"] == "apply_only"
    assert ctrl(2, 2, BUSY) is None
    cluster.kernel.run()
    assert cluster.count("crash_agent") == 1 and cluster.count("scale_to") == 1
    assert cluster.actions[-1] == ("advance", "resume", 3, 2)


def test_crash_after_the_drain_restarts_without_a_second_reshape():
    """The victim dies while the suspension lands: the run reshaped, so
    it restarts; the pending resume of the suspension never goes out."""
    ctrl, cluster = make_controller(
        PageRank(max_iters=10), {1: {"scale": 8}}, checkpoint_every=2, checkpoints=[2]
    )
    ctrl(0, 0, BUSY)
    ctrl(1, 1, BUSY)
    assert ctrl(2, 2, BUSY) is None and ctrl.status == "suspended"
    ctrl.on_evicted(cluster.crash_agent())
    cluster.kernel.run()
    assert [a[0] for a in cluster.actions] == [
        "scale_to", "crash_agent", "recover", "replace", "prune_run", "run_start"
    ]
    assert cluster.actions[2] == ("recover", "restart", 0)
    ctrl(0, 0, BUSY)
    assert ctrl(1, 1, BUSY)["phase"] == "step"
    assert cluster.count("scale_to") == 1


def test_rollback_needs_a_run_that_never_reshaped():
    ctrl, cluster = make_controller(
        PageRank(max_iters=10), {3: {"crash": {"agents": 1}}},
        checkpoint_every=2, checkpoints=[2],
    )
    for step in range(4):
        ctrl(step, step, BUSY)
    cluster.kernel.run()
    ctrl.on_evicted(cluster.actions[-1][1])
    assert ctrl.status == "rolling-back"
    cluster.kernel.run()
    assert cluster.actions[-3:] == [
        ("recover", "rollback", 2), ("replace", 3, 2), ("advance", "resume", 5, 2)
    ]
    assert ctrl.status == "running"

    ctrl, cluster = make_controller(
        PageRank(max_iters=10), {1: {"scale": 4}}, checkpoint_every=2, checkpoints=[2]
    )
    ctrl(0, 0, BUSY)
    ctrl(1, 1, BUSY)
    ctrl(2, 2, BUSY)
    cluster.kernel.run()
    assert ctrl.status == "reshaped"
    ctrl.on_evicted(cluster.crash_agent())
    assert ctrl.status == "restarting"


def test_overlapping_recoveries_fail_loudly():
    """Two recovery chains would re-issue two RUN_STARTs under one data
    incarnation; a second eviction before the first re-opened the
    barrier raises instead."""
    ctrl, cluster = make_controller(PageRank(max_iters=10))
    ctrl(0, 0, BUSY)
    ctrl.on_evicted(cluster.crash_agent())
    with pytest.raises(RuntimeError, match="from restarting to restarting"):
        ctrl.on_evicted(cluster.crash_agent())


def test_replayed_round_refires_nothing():
    """A lead elected mid-round re-drives the barrier: the same round
    reaches the controller twice and must pop, crash and drain once."""
    ctrl, cluster = make_controller(
        PageRank(max_iters=10), {1: {"scale": 8, "crash": {"agents": 1}}}
    )
    ctrl(0, 0, BUSY)
    first = ctrl(1, 1, BUSY)
    assert ctrl(1, 1, BUSY) is first
    assert ctrl(2, 2, BUSY) is None
    assert ctrl(2, 2, BUSY) is None
    cluster.kernel.run()
    assert [a[0] for a in cluster.actions] == ["scale_to", "crash_agent", "advance"]


def test_the_fingerprint_scenarios_walk_these_transitions(monkeypatch):
    """Mid-run scale, rollback, restart and lead failover, as the
    pinned scenarios drive them — every move a row of the table."""
    from tests.integration.test_fingerprint import (
        _failover_scenario, _restart_scenario, _scenario,
    )

    seen = []
    move = SyncRunController._to

    def recording(self, status):
        seen.append((self.status, status))
        move(self, status)

    monkeypatch.setattr(SyncRunController, "_to", recording)
    walked = {}
    for name, scenario in (
        ("paths", _scenario), ("restart", _restart_scenario), ("failover", _failover_scenario)
    ):
        seen.clear()
        scenario()
        walked[name] = list(seen)
    halt = [("running", "halted")]
    scale = [("running", "suspended"), ("suspended", "reshaped"), ("reshaped", "halted")]
    assert walked == {
        "paths": halt + scale + halt * 4
        + [("running", "rolling-back"), ("rolling-back", "running")] + halt,
        "restart": halt + [("running", "restarting"), ("restarting", "running")] + halt * 2,
        "failover": halt * 2 + scale,
    }


def test_run_result_step_helpers():
    result = RunResult(
        program_name="x",
        run_id=1,
        mode="sync",
        values={0: 1.0},
        steps=2,
        sim_seconds=1.0,
        round_durations=[("init", 0, 0.1), ("step", 1, 0.2), ("apply_only", 2, 0.05)],
    )
    assert result.per_step_seconds() == [0.1, 0.2]
    assert result.mean_step_seconds() == pytest.approx(0.15)
    empty = RunResult("x", 1, "sync", {}, 0, 0.0)
    assert empty.mean_step_seconds() == 0.0


def test_run_result_as_array_default():
    result = RunResult("x", 1, "sync", {1: 2.0}, 1, 0.0)
    arr = result.as_array(3)
    assert np.isnan(arr[0]) and arr[1] == 2.0
