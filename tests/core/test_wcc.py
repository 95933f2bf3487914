"""Distributed WCC correctness."""

import numpy as np

from repro.core import ElGA, WCC
from tests.conftest import reference_wcc


def test_small_graph_components(engine, small_graph):
    us, vs, _ = small_graph
    result = engine.run(WCC())
    ref, _ = reference_wcc(us, vs)
    assert {v: int(x) for v, x in result.values.items()} == ref


def test_disconnected_components():
    elga = ElGA(nodes=2, agents_per_node=2, seed=13)
    us = np.array([0, 1, 10, 11, 20])
    vs = np.array([1, 2, 11, 12, 21])
    elga.ingest_edges(us, vs)
    result = elga.run(WCC())
    labels = result.values
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[10] == labels[11] == labels[12] == 10
    assert labels[20] == labels[21] == 20


def test_directionality_ignored():
    """WCC treats edges as undirected: a directed chain is one component."""
    elga = ElGA(nodes=2, agents_per_node=2, seed=14)
    elga.ingest_edges(np.array([2, 1]), np.array([1, 0]))  # 2->1->0
    result = elga.run(WCC())
    assert result.values[0] == result.values[1] == result.values[2] == 0


def test_skewed_graph_with_splits(skewed_engine, skewed_graph):
    us, vs, _ = skewed_graph
    result = skewed_engine.run(WCC())
    ref, _ = reference_wcc(us, vs)
    assert {v: int(x) for v, x in result.values.items()} == ref


def test_same_iteration_count_as_reference(engine, small_graph):
    us, vs, _ = small_graph
    result = engine.run(WCC())
    _, ref_iters = reference_wcc(us, vs)
    # The distributed run needs one extra quiescence-confirming step.
    assert abs(result.steps - ref_iters) <= 1


def test_sync_and_async_agree(skewed_graph):
    us, vs, _ = skewed_graph
    elga = ElGA(nodes=2, agents_per_node=3, seed=15, replication_threshold=300)
    elga.ingest_edges(us, vs, n_streamers=2)
    sync_result = elga.run(WCC(), mode="sync")
    async_result = elga.run(WCC(), mode="async")
    assert sync_result.values == async_result.values


def test_async_has_no_superstep_structure(engine):
    result = engine.run(WCC(), mode="async")
    assert result.steps is None
    assert result.mode == "async"
    assert result.sim_seconds > 0
