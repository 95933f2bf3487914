"""The five design goals (§1.1), tested as system properties."""

import numpy as np
import pytest

from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph
from repro.graph import EdgeBatch


@pytest.fixture(scope="module")
def loaded():
    us, vs, n = powerlaw_graph(1500, 18000, alpha=2.1, seed=80)
    elga = ElGA(nodes=4, agents_per_node=4, seed=81, replication_threshold=300)
    elga.ingest_edges(us, vs, n_streamers=4)
    return elga, us, vs, n


def test_goal1_skewed_degree_distributions(loaded):
    """Goal 1: operates on graphs with skewed degree distributions —
    hubs split instead of sinking one agent."""
    elga, us, vs, n = loaded
    deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    assert deg.max() > 20 * deg[deg > 0].mean()  # the input is skewed
    assert len(elga.cluster.lead.state.split_vertices) > 0
    result = elga.run(PageRank(max_iters=5, tol=1e-15))
    assert len(result.values) > 0


def test_goal2_memory_bounded_per_participant(loaded):
    """Goal 2: every participant holds O((n+m)/P + P) state — resident
    edges stay near the fair share plus the hub split granularity, and
    the directory broadcast is O(P + d·w), not O(n)."""
    elga, us, vs, n = loaded
    P = elga.n_agents
    m_copies = elga.cluster.total_resident_edges()
    fair = m_copies / P
    for aid, load in elga.cluster.edge_loads().items():
        assert load < 4 * fair + elga.config.replication_threshold, aid
    state = elga.cluster.lead.state
    sketch_and_membership = state.sketch.nbytes + 16 * P
    assert state.nbytes <= sketch_and_membership + 8 * len(state.split_vertices) + 64
    assert state.nbytes < 1e7  # fixed-size, graph-independent


def test_goal3_log_p_lookups(loaded):
    """Goal 3: frequent operations depend on P only as O(log P)."""
    costs = loaded[0].config.costs
    lookup_small = costs.placement_lookup_cost(4096, 8, ring_positions=8 * 100)
    lookup_big = costs.placement_lookup_cost(4096, 8, ring_positions=8192 * 100)
    # 1024x more ring positions -> only log-factor growth (< 2.5x here).
    assert lookup_big / lookup_small < 2.5


def test_goal4_low_latency_updates_with_concurrent_queries(loaded):
    """Goal 4: continuous updates, low-latency maintenance, concurrent
    queries."""
    elga, us, vs, n = loaded
    elga.run(WCC())
    batch = EdgeBatch.insertions([n + 1], [0])
    elga.apply_batch(batch)
    result = elga.run(WCC(), incremental=True)
    # A one-edge change is maintained in a couple of supersteps...
    assert result.steps <= 3
    # ...and queries answer concurrently with system activity.
    assert elga.query(n + 1, "wcc") == result.values[n + 1]


def test_goal5_scale_up_and_down_during_computation(loaded):
    """Goal 5: scaling up or down, manually, during computation."""
    elga, us, vs, n = loaded
    before = elga.n_agents
    result = elga.run(PageRank(max_iters=6, tol=1e-15), scale_plan={2: before + 6})
    assert elga.n_agents == before + 6
    assert result.steps == 6
    elga.scale_to(before)
    assert elga.n_agents == before
    assert elga.cluster.consistent()
