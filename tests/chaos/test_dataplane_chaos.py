"""Combining determinism under data-plane chaos.

The fast path's referee: with drops, duplicates, and reordering all
active, a combining cluster must converge bit-identically to (a) its
own fault-free reference and (b) a fault-free cluster that never
combined at all.  Split vertices are forced (low replication
threshold) so the replica sync/value choreography runs through the
coalesced path too.
"""

import pytest

from repro.bench.chaos import FaultPlan
from repro.core import ElGA, PageRank
from repro.core.algorithms import WCC
from tests.conftest import ship_uncombined

from .harness import assert_chaos_survives, chaos_graph

pytestmark = [pytest.mark.chaos, pytest.mark.dataplane]

SPLIT_THRESHOLD = 40  # low enough that chaos_graph's hubs split


def _plan(seed: int) -> FaultPlan:
    return FaultPlan.data_plane_chaos(
        seed=seed, drop_p=0.05, dup_p=0.08, reorder_p=0.25
    )


@pytest.mark.parametrize("plan_seed", [3, 11])
def test_combining_survives_drop_dup_reorder(plan_seed):
    """Chaos run (combining on, default) == fault-free reference,
    bitwise, for both the sum (PageRank) and min (WCC) aggregators."""
    report = assert_chaos_survives(
        _plan(plan_seed),
        programs=[PageRank(max_iters=12), WCC()],
        replication_threshold=SPLIT_THRESHOLD,
    )
    assert report.faults_injected > 0


def test_chaotic_combining_matches_faultfree_uncombined():
    """The strongest claim: a combining cluster under chaos produces
    the exact bits of a pristine cluster that combines nothing."""
    us, vs = chaos_graph()
    plain = ship_uncombined(
        ElGA(nodes=2, agents_per_node=2, seed=9, replication_threshold=SPLIT_THRESHOLD)
    )
    fast = ElGA(
        nodes=2,
        agents_per_node=2,
        seed=9,
        replication_threshold=SPLIT_THRESHOLD,
        reliable_transport=True,
    )
    fast.cluster.network.install_faults(_plan(7))
    plain.ingest_edges(us, vs)
    fast.ingest_edges(us, vs)
    for make in (lambda: PageRank(max_iters=12), WCC):
        r_plain = plain.run(make())
        r_fast = fast.run(make())
        assert r_fast.values == r_plain.values  # bitwise on floats
    assert any(
        a.metrics.pairs_combined > 0 for a in fast.cluster.agents.values()
    ), "combining never fired under chaos"
    assert any(
        a.metrics.replica_syncs > 0 for a in fast.cluster.agents.values()
    ), "no split vertices — the replica choreography went untested"


def test_fault_seed_does_not_leak_into_results():
    """Different fault schedules (same cluster seed) give identical
    bits: delivery order cannot reach the reduction tree."""
    results = []
    for plan_seed in (13, 21):
        us, vs = chaos_graph()
        engine = ElGA(
            nodes=2,
            agents_per_node=2,
            seed=9,
            replication_threshold=SPLIT_THRESHOLD,
            reliable_transport=True,
        )
        engine.cluster.network.install_faults(_plan(plan_seed))
        engine.ingest_edges(us, vs)
        results.append(engine.run(PageRank(max_iters=12)).values)
    assert results[0] == results[1]
