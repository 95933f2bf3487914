"""Agent ingest path: updates, dedup, sketch maintenance, buffering."""

import numpy as np

from repro.cluster import ClusterConfig, ElGACluster
from repro.graph import EdgeBatch


def make_cluster(**kw):
    defaults = dict(nodes=2, agents_per_node=2, seed=2)
    defaults.update(kw)
    return ElGACluster(ClusterConfig(**defaults))


def test_each_edge_stored_twice():
    c = make_cluster()
    c.ingest(EdgeBatch.insertions([0, 1, 2], [1, 2, 0]))
    assert c.total_resident_edges() == 6  # out-copy + in-copy each


def test_duplicate_insert_not_double_counted():
    c = make_cluster()
    c.ingest(EdgeBatch.insertions([0, 0], [1, 1]))
    assert c.total_resident_edges() == 2
    # The sketch must count the effective degree once.
    c.flush_sketches()
    assert c.lead.state.sketch.query(0) == 1
    assert c.lead.state.sketch.query(1) == 1


def test_deletion_removes_both_copies():
    c = make_cluster()
    c.ingest(EdgeBatch.insertions([0], [1]))
    c.ingest(EdgeBatch.deletions([0], [1]))
    assert c.total_resident_edges() == 0


def test_deleting_absent_edge_is_noop():
    c = make_cluster()
    c.ingest(EdgeBatch.deletions([5], [6]))
    assert c.total_resident_edges() == 0
    c.flush_sketches()
    assert c.lead.state.sketch.query(5) == 0


def test_sketch_tracks_degrees_exactly_without_collisions():
    c = make_cluster(sketch_width=4096)
    us = np.arange(20)
    vs = (np.arange(20) + 1) % 20
    c.ingest(EdgeBatch.insertions(us, vs))
    c.flush_sketches()
    for v in range(20):
        assert c.lead.state.sketch.query(v) >= 2  # degree in+out


def test_delete_then_reinsert_restores_sketch():
    c = make_cluster()
    batch = EdgeBatch.insertions(np.arange(10), (np.arange(10) + 3) % 10)
    c.ingest(batch)
    c.flush_sketches()
    before = c.lead.state.sketch.copy()
    c.ingest(EdgeBatch.deletions(batch.us, batch.vs))
    c.ingest(batch)
    c.flush_sketches()
    assert c.lead.state.sketch == before


def test_threshold_crossing_reports_split():
    c = make_cluster(replication_threshold=10)
    star_vs = np.arange(1, 30)
    c.ingest(EdgeBatch.insertions(np.zeros(29, dtype=np.int64), star_vs))
    c.flush_sketches()
    assert 0 in c.lead.state.split_vertices


def test_split_vertex_edges_spread_after_registry_broadcast():
    c = make_cluster(replication_threshold=10)
    star_vs = np.arange(1, 40)
    c.ingest(EdgeBatch.insertions(np.zeros(39, dtype=np.int64), star_vs))
    c.flush_sketches()
    holders = [aid for aid, a in c.agents.items() if 0 in a.shard.out_store]
    assert len(holders) > 1  # out-copies spread across replicas


def test_edges_conserved_across_split_migration():
    c = make_cluster(replication_threshold=10)
    star_vs = np.arange(1, 40)
    c.ingest(EdgeBatch.insertions(np.zeros(39, dtype=np.int64), star_vs))
    c.flush_sketches()
    assert c.total_resident_edges() == 2 * 39


def test_ingest_report_metrics():
    c = make_cluster()
    report = c.ingest(EdgeBatch.insertions(np.arange(100), (np.arange(100) + 1) % 100))
    assert report["edges"] == 100
    assert report["sim_seconds"] > 0
    assert report["edges_per_second"] > 0


def test_agent_metrics_count_updates():
    c = make_cluster()
    c.ingest(EdgeBatch.insertions(np.arange(50), (np.arange(50) + 1) % 50))
    total_applied = sum(a.metrics.updates_applied for a in c.agents.values())
    assert total_applied == 100  # both copies
