"""Agent internals: vertex tables, stores, routing caches, state hygiene."""

import numpy as np
import pytest

from repro.cluster.edgestore import IdSet, ValueColumn
from repro.cluster.shard import ProgramState, ShardState
from repro.cluster.vertextable import (
    _RunState,
    _VertexTable,
    build_table,
    hosted_vertex_ids,
    scatter_segments,
)
from repro.core import ElGA, PageRank, WCC
from repro.core.program import RunSpec
from repro.graph import EdgeBatch
from repro.hashing import ConsistentHashRing
from repro.partition.cache import PlacementCache
from repro.partition.placer import EdgePlacer
from repro.sketch import CountMinSketch


def hand_shard(edges, **fields):
    """A shard holding both copies of ``edges`` (one agent owns all)."""
    us, vs = (np.asarray(col, dtype=np.int64) for col in zip(*edges))
    ones = np.ones(len(us), dtype=np.int8)
    shard = ShardState(CountMinSketch(64, 2), **fields)
    shard.out_store.apply(us, vs, ones)
    shard.in_store.apply(vs, us, ones)
    return shard


def hand_placer(agents, split=(), degrees=None, threshold=10):
    """A bound placement cache over ``agents`` whose global sketch has
    seen ``degrees`` ({vertex: degree}); ``split`` is the registry."""
    sketch = CountMinSketch(256, 4)
    for vertex, degree in (degrees or {}).items():
        sketch.add(np.array([vertex]), np.array([degree]))
    placer = EdgePlacer(
        ConsistentHashRing(agents), sketch, threshold, split_gate=frozenset(split)
    )
    return PlacementCache().bind((1, 0, 0), placer)


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


def test_vertex_table_pos_on_an_empty_table_raises_key_error():
    """A shard that hosts nothing still answers "not hosted here",
    naming the ids, rather than an IndexError from its error path."""
    table = _VertexTable(np.empty(0, dtype=np.int64))
    assert table.pos(np.empty(0, dtype=np.int64)).tolist() == []
    with pytest.raises(KeyError, match=r"\[3 7\]"):
        table.pos(np.array([3, 7]))


def test_edge_arrays_sorted_and_complete():
    elga = ElGA(nodes=1, agents_per_node=1, seed=24)
    elga.ingest_edges(np.array([3, 1, 3]), np.array([0, 2, 2]))
    agent = elga.cluster.agents[0]
    keys, others = agent.shard.out_store.arrays()
    assert keys.tolist() == [1, 3, 3]
    assert others.tolist() == [2, 0, 2]


def test_hosted_vertices_cover_both_stores():
    shard = hand_shard([(0, 7), (7, 3)])
    hosted, my_split = hosted_vertex_ids(shard, hand_placer([0]), frozenset(), 0)
    assert hosted.tolist() == [0, 3, 7]
    assert my_split == {}


def test_hosted_vertices_include_edgeless_split_replicas():
    """A replica of a split vertex takes part in replica sync even if
    the second-level hash gave it no edges; a registered vertex whose
    degree does not (yet) replicate is hosted only where it has edges."""
    placer = hand_placer([0, 1, 2, 3], split={50, 60}, degrees={50: 35})
    replicas = placer.replica_set(50)
    assert len(replicas) == 4 and placer.replica_set(60) != replicas
    for agent_id in replicas:
        hosted, my_split = hosted_vertex_ids(
            ShardState(CountMinSketch(64, 2)), placer, frozenset({50, 60}), agent_id
        )
        assert hosted.tolist() == [50]
        assert my_split == {50: replicas}


def test_build_table_fresh_run_without_a_cluster():
    shard = hand_shard([(0, 1), (0, 2), (1, 2), (2, 0)])
    placer = hand_placer([0])
    run = _RunState(RunSpec(run_id=1, program=PageRank(max_iters=3), global_n=3))
    lookups = build_table(run, shard, placer, frozenset(), 0, resume=False)
    table = run.table
    assert table.ids.tolist() == [0, 1, 2]
    assert table.out_deg_local.tolist() == [2.0, 1.0, 1.0]
    assert table.values.tolist() == pytest.approx([1 / 3] * 3)
    assert table.active.all() and (table.split_k == 1).all()
    # PageRank scatters along out-copies only: one routing resolution,
    # every edge bound for the only agent.  The routing is a CSR over
    # the out-store's own key-sorted rows: the others column is shared.
    assert lookups == [(4, 0)]
    out = run.out_routing
    assert out.off.tolist() == [0, 2, 3, 4]
    assert np.shares_memory(out.dst, shard.out_store.arrays()[1])
    assert out.owner.tolist() == [0, 0, 0, 0] and out.cap.tolist() == [0, 4]
    rows = np.repeat(np.arange(len(table)), np.diff(out.off))
    assert sorted(zip(table.ids[rows].tolist(), out.dst.tolist())) == [
        (0, 1), (0, 2), (1, 2), (2, 0)
    ]
    assert run.in_routing is None and run.routing_uncharged is None
    sent = list(scatter_segments(run, np.array([0, 2]), np.array([10.0, 30.0])))
    assert [(agent, count) for agent, count, _, _ in sent] == [(0, 3)]
    assert sorted(zip(sent[0][2].tolist(), sent[0][3].tolist())) == [
        (0, 30.0), (1, 10.0), (2, 10.0)
    ]


def test_build_table_resume_joins_persisted_state():
    state = ProgramState(ValueColumn.from_dict({0: 0.0, 1: 0.0, 2: 7.0}), IdSet([1]))
    shard = hand_shard([(0, 1), (1, 2), (3, 2)], programs={"wcc": state})
    run = _RunState(RunSpec(run_id=2, program=WCC(), global_n=4))
    lookups = build_table(run, shard, hand_placer([0]), frozenset(), 0, resume=True)
    table = run.table
    # Persisted values where there are some, the program's initial
    # value (own id) for a vertex that arrived during the suspension.
    assert table.values.tolist() == [0.0, 0.0, 7.0, 3.0]
    assert table.active.tolist() == [False, True, False, False]
    # WCC scatters both ways: out-copies resolved first, then in-copies.
    assert len(lookups) == 2
    for routing in (run.out_routing, run.in_routing):
        assert np.bincount(routing.owner).tolist() == [3]  # three edges to agent 0
    assert run.out_routing.off.tolist() == [0, 1, 2, 2, 3]  # 0->1, 1->2, 3->2
    assert run.in_routing.off.tolist() == [0, 0, 1, 3, 3]  # 1<-0, 2<-1, 2<-3


def test_build_table_delta_run_seeds_frontier_from_dirty_rows():
    state = ProgramState(ValueColumn.from_dict({v: 0.0 for v in range(4)} | {4: 4.0}))
    shard = hand_shard([(0, 1), (1, 2), (2, 3)], programs={"wcc": state})
    shard.dirty_seen["wcc"] = 0  # wcc's last run finalized here
    # A streamed insert (3, 4) that wcc has not consumed yet.
    for store, role, key, other in (
        (shard.out_store, "out", 3, 4), (shard.in_store, "in", 4, 3)
    ):
        applied = store.apply(np.array([key]), np.array([other]), np.array([1], dtype=np.int8))
        shard.dirty_log.append_batch(role, *applied)
    spec = RunSpec(run_id=3, program=WCC(), global_n=5, incremental=True, strategy="delta")
    run = _RunState(spec)
    build_table(run, shard, hand_placer([0]), frozenset(), 0, resume=False)
    assert set(run.delta_pending) == {"out", "in"}
    assert run.table.ids[run.table.active].tolist() == [3, 4]
    # Routing is resolved but its charge deferred to first scatter.
    assert run.routing_uncharged.tolist() == [1.0, 2.0, 2.0, 2.0, 1.0]


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
        hosted = set(agent.shard.out_store) | set(agent.shard.in_store)
        for v in agent.shard.programs["wcc"].values:
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
