"""The Agent's round machine: the phase table, the run status table and
the receive gate."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.rounds import FRESH, PHASES, RESUMED, RUN_STATUS, RoundMixin
from repro.core import ElGA, PageRank
from repro.core.program import RunSpec
from repro.core.superstep import SyncRunController
from repro.net.message import PacketType
from repro.sim import SimKernel
from tests.integration.test_fingerprint import (
    _failover_scenario,
    _restart_scenario,
    _scenario,
)


def _cluster(sent):
    """The parts of a cluster a controller touches to scale it and
    resume; the resume lands in ``sent``."""
    return SimpleNamespace(
        kernel=SimKernel(),
        network=SimpleNamespace(tracer=None),
        agents={},
        scale_to=lambda n, settle: None,
        rehome_orphans=lambda: False,
        consistent=lambda: True,
        lead=SimpleNamespace(send_advance=sent.append),
    )


def _emitted_phases(strategy):
    """Drive a controller through a plain step, a mid-run scale
    (apply_only, then the controller's resume) and a halt; collect every
    phase it names — in ADVANCE payloads and as its own round label."""
    spec = RunSpec(run_id=1, program=PageRank(max_iters=3), global_n=4, strategy=strategy)
    sent = []
    cluster = _cluster(sent)
    controller = SyncRunController(spec, cluster, {1: {"scale": 5}})
    seen = [controller.phase]
    busy = {"l1_residual": 1.0, "active": 4}
    first = controller(0, 0, busy)  # init done -> step 1
    drain = controller(1, 1, busy)  # a scale is due at step 1 -> apply_only
    assert controller(2, 2, busy) is None  # suspended: the controller reshapes
    cluster.kernel.run()  # ... and resumes once the reshape has landed
    (resume,) = sent
    after = controller(3, 2, {})  # resume done -> next step
    halt = controller(4, 3, {"l1_residual": 0.0, "active": 0})
    seen += [payload["phase"] for payload in (first, drain, resume, after, halt)]
    return seen


def test_every_phase_a_controller_emits_has_a_row():
    emitted = set(_emitted_phases("scratch")) | set(_emitted_phases("delta"))
    assert "halt" in emitted  # ends the run instead of opening a round
    assert emitted - {"halt"} == set(PHASES)


def test_phase_rows_say_what_the_rounds_do():
    for name, row in PHASES.items():
        # A round that builds its table applies nothing (there is no
        # previous round), and its split choreography is degree-only.
        assert (row.table is not None) == row.degree_only == (not row.applies), name
        assert row.table in (None, FRESH, RESUMED)
        # Parking the run and sending are exclusive; only a sending
        # apply round is a coordinated checkpoint step.
        assert row.suspends != row.scatters, name
        assert row.checkpointable == (row.applies and row.scatters), name
    assert [name for name, row in PHASES.items() if row.seeds] == ["delta_init"]
    assert PHASES["resume"].table == RESUMED


def test_unknown_phase_still_raises():
    elga = ElGA(nodes=1, agents_per_node=1, seed=3)
    elga.ingest_edges(np.array([0, 1]), np.array([1, 0]))
    agent = elga.cluster.agents[0]
    agent._on_run_start(RunSpec(run_id=9, program=PageRank(max_iters=3), global_n=2))
    with pytest.raises(ValueError, match="unknown advance phase 'warp'"):
        agent._on_advance({"run_id": 9, "round": 1, "step": 1, "phase": "warp"})
    agent.finalize_run(persist=False)


def test_one_gate_serves_every_round_data_packet():
    assert set(RoundMixin._ROUND_INGEST) == {
        PacketType.VERTEX_MSG, PacketType.REPLICA_SYNC, PacketType.REPLICA_VALUE
    }


@pytest.mark.parametrize("kind", sorted(RoundMixin._ROUND_INGEST), ids=lambda p: p.name)
def test_gate_fences_buffers_and_acks_each_kind_alike(kind):
    elga = ElGA(nodes=1, agents_per_node=2, seed=4)
    elga.ingest_edges(np.array([0, 1]), np.array([1, 0]))
    agent = elga.cluster.agents[0]
    early = {"round": 0, "step": 0, "inc": 0}
    # Before any run: held for the bootstrap, acknowledged.
    agent._on_round_data(kind, early, src=agent.address)
    assert agent._early_data == {0: [(kind, early)]}
    assert agent._ack_credits == {(agent.address, 0): 1}
    agent._early_data = {}
    # A future round of a live run: held under its round.
    agent._on_run_start(RunSpec(run_id=5, program=PageRank(max_iters=3), global_n=2))
    future = {"round": 4, "step": 4, "inc": 0}
    agent._on_round_data(kind, future, src=agent.address)
    assert agent._early_data == {4: [(kind, future)]}
    # A pre-recovery incarnation: dropped without an ack.
    credits = dict(agent._ack_credits)
    agent._data_inc = 2
    agent._on_round_data(kind, {"round": 0, "step": 0, "inc": 1}, src=agent.address)
    assert agent._ack_credits == credits and agent._early_data == {4: [(kind, future)]}
    agent.finalize_run(persist=False)
    elga.cluster.settle()


@pytest.fixture
def walked(monkeypatch):
    """Every (from, to) move of a run status, as the moves happen."""
    seen = set()
    move = RoundMixin._run_to

    def recording(self, status):
        seen.add((self.run.status, status))
        move(self, status)

    monkeypatch.setattr(RoundMixin, "_run_to", recording)
    return seen


def test_the_fingerprint_scenarios_walk_the_run_status_rows(walked):
    """Plain, delta and async runs, a mid-run scale (drain, park, a
    joiner bootstrapping from the resume), a crash rollback, a restart,
    a lead election and a re-weight: every move is a row."""
    for scenario in (_scenario, _restart_scenario, _failover_scenario):
        scenario()
    rows = {(status, to) for status, targets in RUN_STATUS.items() for to in targets}
    # A rollback that finds an agent parked needs a crash to interrupt
    # a drain; none of these scenarios times one that way.
    assert walked == rows - {("parked", "waiting")}


def test_an_unknown_run_status_move_raises():
    elga = ElGA(nodes=1, agents_per_node=1, seed=3)
    elga.ingest_edges(np.array([0, 1]), np.array([1, 0]))
    agent = elga.cluster.agents[0]
    agent._on_run_start(RunSpec(run_id=9, program=PageRank(max_iters=3), global_n=2))
    assert agent.run.status == "ready"  # one agent: every ack is local
    with pytest.raises(RuntimeError, match="ready -> parked"):
        agent._run_to("parked")
    assert agent.run.status == "ready"
    agent.finalize_run(persist=False)
    agent._on_run_start(RunSpec(run_id=10, program=PageRank(), global_n=2, mode="async"))
    assert agent.run.status == "async" and RUN_STATUS["async"] == frozenset()
    with pytest.raises(RuntimeError, match="async -> open"):
        agent._run_to("open")
    agent.finalize_run(persist=False)
    elga.cluster.settle()


def test_the_gate_holds_data_while_waiting_and_the_resume_replays_it():
    elga = ElGA(nodes=1, agents_per_node=1, seed=3, checkpoint_every=1)
    elga.ingest_edges(np.array([0, 1]), np.array([1, 0]))
    agent = elga.cluster.agents[0]
    agent._on_run_start(RunSpec(run_id=5, program=PageRank(max_iters=3), global_n=2))
    run = agent.run
    run.step = 1
    agent._take_value_checkpoint(run)
    agent._on_recover({"incarnation": 1, "run_id": 5, "mode": "rollback", "step": 1})
    assert run.status == "waiting" and run.table is None
    # Waiting, even data tagged with the live round is held, and acked.
    due = {"round": 3, "step": 1, "inc": 1, "dst": np.array([1]), "val": np.array([0.5])}
    stale = dict(due, round=run.round, step=0)
    for payload in (due, stale):
        agent._on_round_data(PacketType.VERTEX_MSG, payload, src=agent.address)
    assert agent._early_data == {
        3: [(PacketType.VERTEX_MSG, due)], run.round: [(PacketType.VERTEX_MSG, stale)]
    }
    assert agent._ack_credits == {(agent.address, 1): 2}
    assert run.pending_msgs == []
    # A step ADVANCE cannot reopen the run; the resume does, and replays
    # what was held for its round.
    agent._on_advance({"run_id": 5, "round": 3, "step": 1, "phase": "step"})
    assert run.status == "waiting"
    agent._on_advance({"run_id": 5, "round": 3, "step": 1, "phase": "resume"})
    assert run.status in ("open", "ready") and 3 not in agent._early_data
    # Held data is ingested ahead of the resume's own (local) scatter.
    assert run.pending_msgs[0][0] is due["dst"]
    # The run's end drops the rest.
    agent.finalize_run(persist=False)
    assert agent._early_data == {}
    elga.cluster.settle()
