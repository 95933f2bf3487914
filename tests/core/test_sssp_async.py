"""Asynchronous execution and SSSP (the §3.2 async model)."""

import networkx as nx
import numpy as np
import pytest

from repro.core import ElGA, PageRank, SSSP


def reference_distances(us, vs, source):
    G = nx.DiGraph()
    G.add_edges_from(zip(us.tolist(), vs.tolist()))
    return nx.single_source_shortest_path_length(G, source)


def test_sssp_matches_bfs(engine, small_graph):
    us, vs, _ = small_graph
    result = engine.run(SSSP(source=0), mode="async")
    ref = reference_distances(us, vs, 0)
    for v, d in ref.items():
        assert result.values[v] == d


def test_unreachable_vertices_stay_infinite():
    elga = ElGA(nodes=2, agents_per_node=2, seed=18)
    elga.ingest_edges(np.array([0, 5]), np.array([1, 6]))
    result = elga.run(SSSP(source=0), mode="async")
    assert result.values[1] == 1.0
    assert np.isinf(result.values[5]) and np.isinf(result.values[6])


def test_sssp_respects_direction():
    elga = ElGA(nodes=2, agents_per_node=2, seed=19)
    elga.ingest_edges(np.array([1]), np.array([0]))  # edge into the source
    result = elga.run(SSSP(source=0), mode="async")
    assert np.isinf(result.values[1])  # not reachable along out-edges


def test_sssp_sync_and_async_agree(skewed_engine, skewed_graph):
    us, vs, n = skewed_graph
    deg = np.bincount(us, minlength=n)
    source = int(np.argmax(deg))
    sync_result = skewed_engine.run(SSSP(source=source), mode="sync")
    async_result = skewed_engine.run(SSSP(source=source), mode="async")
    assert sync_result.values == async_result.values


def test_sssp_through_split_vertices(skewed_engine, skewed_graph):
    """Distances crossing split hubs rely on the async replica gossip."""
    us, vs, n = skewed_graph
    deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    source = int(np.argmax(deg))
    assert len(skewed_engine.cluster.lead.state.split_vertices) > 0
    result = skewed_engine.run(SSSP(source=source), mode="async")
    ref = reference_distances(us, vs, source)
    for v, d in ref.items():
        assert result.values[v] == d


def test_a_long_local_path_relaxes_on_a_flat_stack():
    """One agent holds a 5,000-vertex path, so every hop of the
    relaxation chain is local and the chain is as long as the path: it
    must run on an explicit stack, not one Python frame per hop."""
    n = 5_000
    elga = ElGA(nodes=1, agents_per_node=1, seed=3)
    elga.ingest_edges(np.arange(n - 1), np.arange(1, n))
    result = elga.run(SSSP(source=0), mode="async")
    assert [result.values[v] for v in range(n)] == list(range(n))


def test_async_rejects_non_monotone_programs(engine):
    with pytest.raises(ValueError):
        engine.run(PageRank(), mode="async")


def test_unknown_mode_rejected(engine):
    with pytest.raises(ValueError):
        engine.run(SSSP(source=0), mode="magic")
