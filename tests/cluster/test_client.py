"""ClientProxy query path."""

import numpy as np
import pytest

from repro.core import ElGA, WCC


@pytest.fixture(scope="module")
def served_engine():
    elga = ElGA(nodes=2, agents_per_node=2, seed=10)
    us = np.array([0, 1, 2, 5, 6])
    vs = np.array([1, 2, 0, 6, 5])
    elga.ingest_edges(us, vs)
    elga.run(WCC())
    return elga


def test_query_returns_algorithm_result(served_engine):
    assert served_engine.query(2, "wcc") == 0.0
    assert served_engine.query(6, "wcc") == 5.0


def test_query_unknown_vertex_returns_none(served_engine):
    assert served_engine.query(999, "wcc") is None


def test_query_unknown_program_returns_none(served_engine):
    assert served_engine.query(0, "no-such-algorithm") is None


def test_latency_recorded(served_engine):
    client = served_engine.cluster.clients[0]
    n_before = len(client.latencies)
    served_engine.query(0, "wcc")
    assert len(client.latencies) == n_before + 1
    assert client.latencies[-1] > 0


def test_queries_spread_across_replicas():
    """Split-vertex queries bypass the second hash and pick a random
    replica (§3.4.1) — read load on a hot vertex spreads."""
    elga = ElGA(nodes=2, agents_per_node=3, seed=11, replication_threshold=10)
    star = np.arange(1, 40)
    elga.ingest_edges(np.zeros(39, dtype=np.int64), star)
    elga.run(WCC())
    client = elga.cluster.new_client()
    served_before = {aid: a.metrics.queries_served for aid, a in elga.cluster.agents.items()}
    for _ in range(60):
        client.query(0, "wcc")
    elga.cluster.settle()
    served = {
        aid: a.metrics.queries_served - served_before[aid]
        for aid, a in elga.cluster.agents.items()
    }
    replicas = [aid for aid, count in served.items() if count > 0]
    assert len(replicas) > 1


def test_concurrent_queries_all_answered(served_engine):
    client = served_engine.cluster.new_client()
    answers = []
    for v in range(3):
        client.query(v, "wcc", answers.append)
    served_engine.cluster.settle()
    assert len(answers) == 3
    assert client.perf.counts["client_replies_received"] >= 3
