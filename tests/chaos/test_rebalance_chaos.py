"""Migration atomicity under chaos (ROADMAP item 4 acceptance).

A mid-run ring re-weight moves hot partitions over the same
EDGE_MIGRATE path elasticity uses — while the fault plan drops and
duplicates that very traffic and, in the hard scenarios, kills a
participant with migrations in flight.  The claims:

* the run converges bit-identical to a fault-free engine executing the
  same re-weight plan (the mirror idiom of the scale scenarios);
* both rings end up carrying the adopted weights — a crash cannot
  half-apply a plan;
* the cluster invariants (no edge lost/duplicated, fences monotone,
  migration quiescent) hold at every settle point.
"""

import pytest

from repro.bench.chaos import run_chaos_scenario
from repro.core import PageRank, WCC
from repro.gen import powerlaw_graph
from repro.net.faults import CrashEvent, FaultPlan

from .harness import chaos_graph

pytestmark = [pytest.mark.chaos, pytest.mark.rebalance]

SKEW_WEIGHTS = {0: 1.8, 1: 0.6, 2: 1.0, 3: 0.7}
REBALANCE_AT = {2: SKEW_WEIGHTS}


def _expected_weights():
    return {i: SKEW_WEIGHTS.get(i, 1.0) for i in range(4)}


def _assert_contract(report, expect_crash: bool):
    for program, equal in report.bit_equal.items():
        assert equal, (
            f"{program} diverged under plan seed {report.plan_seed} "
            f"(steps={report.steps}, drops={report.drops_chaos}, "
            f"dups={report.messages_duplicated}, "
            f"recoveries={report.recoveries})"
        )
    assert report.faults_injected > 0, "plan injected nothing"
    assert report.migrate_messages > 0, "no migration traffic — plan never applied"
    assert report.weights_chaos == report.weights_reference == _expected_weights()
    if expect_crash:
        assert report.recoveries >= 1 or report.elections >= 1


def test_drop_dup_during_migration_pagerank_bit_identical():
    """5% drop + 5% dup on the data plane (EDGE_MIGRATE included), no
    crash: both engines share one partition timeline, so even the
    float-add program must match bit-for-bit."""
    us, vs = chaos_graph()
    plan = FaultPlan.data_plane_chaos(seed=21, drop_p=0.05, dup_p=0.05)
    report = run_chaos_scenario(
        us, vs, plan, rebalance_plan=REBALANCE_AT, programs=[PageRank(max_iters=12), WCC()]
    )
    _assert_contract(report, expect_crash=False)
    assert report.drops_chaos > 0 and report.messages_duplicated > 0


def test_agent_crash_mid_migration_converges():
    """An agent dies abruptly with the re-weight migration in flight
    (5% drop + 5% dup underneath).  Recovery must restart cleanly under
    the adopted weights and still match the fault-free run."""
    us, vs = chaos_graph()
    plan = FaultPlan.data_plane_chaos(
        seed=22,
        drop_p=0.05,
        dup_p=0.05,
        crashes=[CrashEvent(after_step=2, abrupt=True, target="agent")],
    )
    report = run_chaos_scenario(
        us,
        vs,
        plan,
        rebalance_plan=REBALANCE_AT,
        programs=[WCC()],
        heartbeat_interval=0.005,
        lease_timeout=0.025,
        checkpoint_every=2,
    )
    _assert_contract(report, expect_crash=True)
    assert report.recoveries >= 1


def test_lead_failover_mid_migration_converges():
    """The lead directory dies right at the re-weight window: the
    successor's election must carry the adopted weights (term-fenced
    state replication) and the run must still converge bit-identical."""
    us, vs = chaos_graph()
    plan = FaultPlan.data_plane_chaos(
        seed=23,
        drop_p=0.05,
        dup_p=0.05,
        crashes=[CrashEvent(after_step=2, abrupt=True, target="directory")],
    )
    report = run_chaos_scenario(us, vs, plan, rebalance_plan=REBALANCE_AT, programs=[WCC()])
    _assert_contract(report, expect_crash=True)
    assert report.elections >= 1
    assert report.lead_elections >= 1


def test_crash_with_unacked_migration_loses_no_edges():
    """Regression: the migration sweep used to WAL-log the removal the
    moment it shipped a batch.  An agent crashing abruptly with the
    EDGE_MIGRATE still in flight then replayed the removal from its
    WAL — and the edges existed nowhere (on this graph: eight in-copies
    simply vanished, caught by the residency invariant).  The removal
    now enters the log only when the receiving hop acks, so the
    replacement restores the rows and re-ships them under the current
    directory."""
    us, vs, _ = powerlaw_graph(120, 700, alpha=2.0, seed=2)
    plan = FaultPlan.data_plane_chaos(
        seed=22,
        drop_p=0.05,
        dup_p=0.05,
        crashes=[CrashEvent(after_step=2, abrupt=True, target="agent")],
    )
    report = run_chaos_scenario(
        us,
        vs,
        plan,
        rebalance_plan=REBALANCE_AT,
        programs=[WCC()],
        heartbeat_interval=0.005,
        lease_timeout=0.025,
        checkpoint_every=2,
    )
    _assert_contract(report, expect_crash=True)
    assert report.recoveries >= 1


def test_between_runs_migration_under_chaos_preserves_results():
    """The persistent fixpoint moves with the edges even when the
    migration itself runs over a lossy, duplicating fabric."""
    from repro.bench.chaos import build_engine_pair, check_cluster_invariants

    us, vs = chaos_graph()
    plan = FaultPlan.data_plane_chaos(seed=24, drop_p=0.05, dup_p=0.05)
    _, chaos = build_engine_pair(plan, seed=9)
    chaos.ingest_edges(us, vs)
    values = chaos.run(WCC()).values
    report = chaos.rebalance(SKEW_WEIGHTS)
    assert report["migrate_messages"] > 0
    check_cluster_invariants(chaos)
    assert chaos._collect("wcc") == values
    stats = chaos.cluster.network.stats
    assert stats.drops_chaos > 0  # the fabric really was abused
