"""Failure/edge-condition injection: the robustness §3 promises.

ElGA "is flexible with receiving messages out-of-order and/or destined
for the wrong node.  It buffers such messages appropriately and forwards
them to the best known destination to achieve eventual consistency."
"""

import numpy as np
import pytest

from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph
from repro.graph import EdgeBatch
from repro.net.message import Message, PacketType
from tests.conftest import reference_wcc


def test_future_round_messages_are_buffered_and_replayed():
    """Inject a data message tagged for a future round directly; the
    agent must hold it and apply it when the round arrives."""
    elga = ElGA(nodes=1, agents_per_node=2, seed=70)
    elga.ingest_edges(np.array([0, 1]), np.array([1, 0]))
    agent = elga.cluster.agents[0]
    from repro.core.program import RunSpec

    spec = RunSpec(run_id=5, program=PageRank(max_iters=3), global_n=2)
    agent._on_run_start(spec)
    hosted = int(agent.run.table.ids[0]) if len(agent.run.table) else 0
    future = {
        "step": 2,
        "round": 2,
        "dst": np.array([hosted]),
        "val": np.array([0.5]),
    }
    agent._on_round_data(PacketType.VERTEX_MSG, future, src=agent.address)
    assert agent._early_data  # stored, not applied
    agent.finalize_run(persist=False)


def test_duplicate_directory_update_is_idempotent():
    elga = ElGA(nodes=2, agents_per_node=2, seed=71)
    elga.ingest_edges(np.arange(20), (np.arange(20) + 1) % 20)
    agent = elga.cluster.agents[0]
    state = agent.dstate
    edges_before = elga.cluster.total_resident_edges()
    agent._on_directory_update(state)  # same version again
    elga.cluster.settle()
    assert elga.cluster.total_resident_edges() == edges_before


def test_agent_leave_during_idle_period_loses_nothing():
    us, vs, n = powerlaw_graph(400, 3000, alpha=2.2, seed=72)
    elga = ElGA(nodes=2, agents_per_node=3, seed=73)
    elga.ingest_edges(us, vs, n_streamers=2)
    elga.run(WCC())
    # Remove the agent holding the most edges — worst case.
    loads = elga.cluster.edge_loads()
    victim = max(loads, key=loads.get)
    elga.cluster.remove_agent(victim)
    assert elga.validate_against_reference()
    # Results still collectible and correct after the churn.
    result = elga.run(WCC())
    ref, _ = reference_wcc(us, vs)
    assert {v: int(x) for v, x in result.values.items()} == ref


def test_rapid_membership_churn():
    us, vs, n = powerlaw_graph(300, 2000, alpha=2.3, seed=74)
    elga = ElGA(nodes=2, agents_per_node=2, seed=75)
    elga.ingest_edges(us, vs)
    total = elga.cluster.total_resident_edges()
    # Join and leave repeatedly without waiting in between.
    for _ in range(3):
        elga.cluster.add_agent(settle=False)
    victims = sorted(elga.cluster.agents)[:2]
    for victim in victims:
        elga.cluster.remove_agent(victim, settle=False)
    elga.cluster.settle()
    assert elga.cluster.total_resident_edges() == total
    assert elga.cluster.consistent()
    assert elga.validate_against_reference()


def test_ingest_concurrent_with_queries():
    """Goal 4: maintenance supports concurrent client queries."""
    elga = ElGA(nodes=2, agents_per_node=2, seed=76)
    elga.ingest_edges(np.arange(50), (np.arange(50) + 1) % 50)
    elga.run(WCC())
    client = elga.cluster.new_client()
    answers = []
    # Interleave queries with a streaming batch (no settle in between).
    streamer = elga.cluster.new_streamer()
    streamer.stream_batch(EdgeBatch.insertions([100, 101], [101, 102]))
    for v in (0, 1, 2):
        client.query(v, "wcc", answers.append)
    elga.cluster.settle()
    assert answers == [0.0, 0.0, 0.0]
    assert streamer.edges_acked == 4


def test_unexpected_packet_type_raises():
    elga = ElGA(nodes=1, agents_per_node=1, seed=77)
    agent = elga.cluster.agents[0]
    bogus = Message(ptype=PacketType.READY_REBROADCAST, payload={})
    bogus.src = agent.address
    bogus.dst = agent.address
    with pytest.raises(ValueError):
        agent.handle_message(bogus)


def test_sketch_drift_recovery():
    """Even if the broadcast sketch lags behind true degrees (flushes
    pending), placement stays consistent and results correct."""
    us, vs, n = powerlaw_graph(400, 4000, alpha=2.1, seed=78)
    elga = ElGA(nodes=2, agents_per_node=3, seed=79, replication_threshold=200)
    # Ingest WITHOUT flushing the sketch.
    elga.apply_batch(EdgeBatch.insertions(us, vs), n_streamers=2, flush=False)
    result = elga.run(WCC())
    ref, _ = reference_wcc(us, vs)
    assert {v: int(x) for v, x in result.values.items()} == ref
    # Flush now: hubs split late but correctly.
    elga.cluster.flush_sketches()
    result2 = elga.run(WCC())
    assert {v: int(x) for v, x in result2.values.items()} == ref
