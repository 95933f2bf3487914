"""Result-preservation claims of the rebalance loop.

The invariant shipped with ROADMAP item 4: re-weighting the ring —
between runs or mid-run — changes *where* vertices live, never *what*
the algorithms compute.  Two qualifications, both pinned here:

* The persistent fixpoint moves with the edges bit-for-bit, so reads
  before and after a migration are identical.
* A *re-execution* under a different partition is bit-identical for
  partition-independent folds (WCC's min); float-add programs
  (PageRank) are deterministic given the plan — the same plan on the
  same graph always produces the same bits — but may differ at ULP
  level from a run under another partition, exactly like the data
  plane's documented grouping sensitivity.
"""

import pytest

from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph

pytestmark = pytest.mark.rebalance

SKEW_WEIGHTS = {0: 1.8, 1: 0.6, 2: 1.0, 3: 0.7}


def _build(seed: int = 11, **overrides) -> ElGA:
    elga = ElGA(nodes=2, agents_per_node=2, seed=seed, **overrides)
    us, vs, _ = powerlaw_graph(80, 400, alpha=2.1, seed=4)
    elga.ingest_edges(us, vs)
    return elga


def test_migration_preserves_persistent_results_bitwise():
    """Every vertex's published fixpoint reads back bit-identical after
    a migration moved it to a different agent."""
    elga = _build()
    result = elga.run(PageRank(max_iters=12))
    loads_before = elga.cluster.edge_loads()
    report = elga.rebalance(SKEW_WEIGHTS)
    assert report["migrate_messages"] > 0
    assert elga.cluster.edge_loads() != loads_before
    assert elga.cluster.consistent()
    for vertex, value in result.values.items():
        got = elga.query(int(vertex), "pagerank")
        assert got == value  # bitwise: the value moved with the edge


def test_wcc_rerun_identical_across_migration():
    """WCC's min-fold is partition-independent: a full re-execution
    under the re-weighted ring reproduces the labels bit-for-bit."""
    elga = _build()
    before = elga.run(WCC()).values
    elga.rebalance(SKEW_WEIGHTS)
    after = elga.run(WCC()).values
    assert before == after


def test_mid_run_rebalance_wcc_identical_to_undisturbed_run():
    """Suspending WCC mid-run to migrate hot partitions must not change
    the answer relative to a run that never rebalanced."""
    plain = _build().run(WCC()).values
    rebalanced_engine = _build()
    result = rebalanced_engine.run(WCC(), rebalance_plan={2: SKEW_WEIGHTS})
    assert rebalanced_engine.cluster.current_weights() == {
        i: SKEW_WEIGHTS.get(i, 1.0) for i in range(4)
    }
    assert result.values == plain


def test_mid_run_rebalance_is_deterministic():
    """Two engines given the same plan produce the same bits — the
    mirror property the chaos scenarios lean on."""
    a = _build().run(PageRank(max_iters=10), rebalance_plan={3: SKEW_WEIGHTS})
    b = _build().run(PageRank(max_iters=10), rebalance_plan={3: SKEW_WEIGHTS})
    assert a.values == b.values
    assert a.steps == b.steps


def test_mid_run_rebalance_requires_sync_mode():
    elga = _build()
    with pytest.raises(ValueError):
        elga.run(WCC(), mode="async", rebalance_plan={1: SKEW_WEIGHTS})


def test_maybe_rebalance_closes_the_loop_from_trace():
    """Skewed observed load -> plan -> adoption, end to end, with the
    collected results unharmed."""
    elga = _build(tracing=True, rebalance_skew_threshold=1.1)
    result = elga.run(PageRank(max_iters=10))
    report = elga.maybe_rebalance()
    assert report is not None
    assert report["skew_predicted"] < report["skew_before"]
    assert report["migrate_messages"] > 0
    adopted = elga.cluster.current_weights()
    assert adopted == {int(k): v for k, v in report["weights"].items()}
    assert any(w != 1.0 for w in adopted.values())
    # Published results still read back bit-identical post-migration.
    for vertex in list(result.values)[:20]:
        assert elga.query(int(vertex), "pagerank") == result.values[vertex]


def test_maybe_rebalance_holds_when_balanced():
    """A cluster the planner already balanced is left alone: the loop
    reaches a fixpoint instead of dithering between plans."""
    elga = _build(tracing=True, rebalance_skew_threshold=1.1)
    elga.run(PageRank(max_iters=10))
    first = elga.maybe_rebalance()
    assert first is not None
    elga.run(PageRank(max_iters=10))
    second = elga.maybe_rebalance()
    if second is not None:  # one corrective step is tolerated...
        elga.run(PageRank(max_iters=10))
        assert elga.maybe_rebalance() is None  # ...but it must converge
