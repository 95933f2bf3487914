"""Agent internals: vertex tables, stores, routing caches, state hygiene."""

import numpy as np
import pytest

from repro.cluster.agent import _VertexTable
from repro.core import ElGA, PageRank, WCC
from repro.core.program import RunSpec
from repro.graph import EdgeBatch


def test_vertex_table_pos_roundtrip():
    table = _VertexTable(np.array([2, 5, 9], dtype=np.int64))
    assert table.pos(np.array([5, 2, 9])).tolist() == [1, 0, 2]
    assert len(table) == 3


def test_vertex_table_pos_missing_raises():
    table = _VertexTable(np.array([2, 5, 9], dtype=np.int64))
    with pytest.raises(KeyError):
        table.pos(np.array([3]))
    with pytest.raises(KeyError):
        table.pos(np.array([100]))  # past the end


def test_edge_arrays_sorted_and_complete():
    elga = ElGA(nodes=1, agents_per_node=1, seed=24)
    elga.ingest_edges(np.array([3, 1, 3]), np.array([0, 2, 2]))
    agent = elga.cluster.agents[0]
    keys, others = agent.out_store.arrays()
    assert keys.tolist() == [1, 3, 3]
    assert others.tolist() == [2, 0, 2]


def test_hosted_vertices_cover_both_stores():
    elga = ElGA(nodes=1, agents_per_node=1, seed=25)
    elga.ingest_edges(np.array([0, 7]), np.array([7, 3]))
    agent = elga.cluster.agents[0]
    hosted = agent._hosted_vertex_ids()
    assert set(hosted.tolist()) == {0, 3, 7}


def test_local_results_during_active_run_reads_table():
    elga = ElGA(nodes=1, agents_per_node=1, seed=26)
    elga.ingest_edges(np.array([0, 1]), np.array([1, 0]))
    agent = elga.cluster.agents[0]
    spec = RunSpec(run_id=50, program=PageRank(max_iters=3), global_n=2)
    agent._on_run_start(spec)
    live = agent.local_results("pagerank")
    assert set(live) == {0, 1}
    assert live[0] == pytest.approx(0.5)  # initial value 1/n
    agent.finalize_run(persist=False)


def test_client_query_of_live_run_value():
    elga = ElGA(nodes=1, agents_per_node=1, seed=27)
    elga.ingest_edges(np.array([0, 1]), np.array([1, 0]))
    agent = elga.cluster.agents[0]
    spec = RunSpec(run_id=51, program=PageRank(max_iters=3), global_n=2)
    agent._on_run_start(spec)
    from repro.net.message import Message, PacketType

    client = elga.cluster.new_client()
    client.query(0, "pagerank")
    elga.cluster.settle()
    assert client.latencies  # answered from the live table
    agent.finalize_run(persist=False)


def test_state_pruned_after_migration():
    """Goal 2 hygiene: persisted state for departed vertices is dropped."""
    elga = ElGA(nodes=2, agents_per_node=2, seed=28)
    us = np.arange(100)
    elga.ingest_edges(us, (us + 1) % 100)
    elga.run(WCC())
    elga.scale_to(12)
    for agent in elga.cluster.agents.values():
        hosted = set(agent.out_store) | set(agent.in_store)
        for v in agent.persistent.get("wcc", {}):
            assert v in hosted


def test_charge_accumulates_during_superstep():
    elga = ElGA(nodes=1, agents_per_node=2, seed=29)
    elga.ingest_edges(np.arange(50), (np.arange(50) + 1) % 50)
    before = {aid: a.available_at() for aid, a in elga.cluster.agents.items()}
    elga.run(PageRank(max_iters=2, tol=1e-15))
    total_busy = sum(
        a.available_at() - before[aid] for aid, a in elga.cluster.agents.items()
    )
    assert total_busy > 0


def test_forwarded_count_zero_in_steady_state():
    elga = ElGA(nodes=2, agents_per_node=2, seed=30)
    elga.ingest_edges(np.arange(60), (np.arange(60) + 1) % 60)
    assert all(a.metrics.updates_forwarded == 0 for a in elga.cluster.agents.values())


def test_batch_clock_increments_per_batch():
    elga = ElGA(nodes=1, agents_per_node=2, seed=31)
    r1 = elga.apply_batch(EdgeBatch.insertions([0], [1]))
    r2 = elga.apply_batch(EdgeBatch.insertions([1], [2]))
    assert r2["batch_id"] == r1["batch_id"] + 1
    # Every agent's directory view carries the latest clock.
    for agent in elga.cluster.agents.values():
        assert agent.dstate.batch_id == r2["batch_id"]
