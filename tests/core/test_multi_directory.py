"""Multi-directory deployments: the scalable directory system (§3.3)."""

import pytest

from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph
from tests.conftest import reference_pagerank, reference_wcc


@pytest.fixture(scope="module")
def multi_dir_engine():
    us, vs, n = powerlaw_graph(600, 5000, alpha=2.2, seed=95)
    elga = ElGA(nodes=3, agents_per_node=3, seed=96, n_directories=3)
    elga.ingest_edges(us, vs, n_streamers=3)
    return elga, us, vs


def test_agents_spread_across_directories(multi_dir_engine):
    elga, _, _ = multi_dir_engine
    homes = {a.directory_address for a in elga.cluster.agents.values()}
    assert len(homes) == 3


def test_barrier_works_through_ready_forwarding(multi_dir_engine):
    """Non-lead directories forward readiness to the lead (Figure 2's
    inter-directory rebroadcast) — a run must still converge exactly."""
    elga, us, vs = multi_dir_engine
    result = elga.run(PageRank(max_iters=20, tol=1e-12))
    ref, iters = reference_pagerank(us, vs, max_iters=20, tol=1e-12)
    assert result.steps == iters
    worst = max(abs(result.values[v] - x) for v, x in ref.items())
    assert worst < 1e-8


def test_wcc_with_multiple_directories(multi_dir_engine):
    elga, us, vs = multi_dir_engine
    result = elga.run(WCC())
    ref, _ = reference_wcc(us, vs)
    assert {v: int(x) for v, x in result.values.items()} == ref


def test_elasticity_with_multiple_directories(multi_dir_engine):
    elga, us, vs = multi_dir_engine
    before = elga.cluster.total_resident_edges()
    elga.scale_to(12)
    assert elga.cluster.total_resident_edges() == before
    # All directories share the new membership.
    versions = {d.state.version for d in elga.cluster.directories}
    assert len(versions) == 1
    memberships = {tuple(d.state.agent_ids()) for d in elga.cluster.directories}
    assert len(memberships) == 1


def test_incremental_run_with_multiple_directories(multi_dir_engine):
    elga, us, vs = multi_dir_engine
    from repro.graph import EdgeBatch

    elga.run(WCC())
    elga.apply_batch(EdgeBatch.insertions([9000], [0]))
    result = elga.run(WCC(), incremental=True)
    assert result.values[9000] == result.values[0]
