"""The chaos invariant matrix: fault plans x cluster invariants.

Every test here makes the same strong claim: with a fault plan abusing
the fabric underneath a reliable transport, algorithm results are
*bit-identical* to a fault-free run and no cluster invariant (edge
conservation, directory monotonicity, migration quiescence) breaks.
Seeds are fixed so a CI failure replays locally from the test name.
"""

import pytest

from repro.bench.chaos import fault_matrix
from repro.net import CrashEvent, FaultPlan, PartitionWindow

from tests.chaos.harness import assert_chaos_survives, chaos_graph

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("name", sorted(fault_matrix()))
def test_fault_matrix(name):
    """Each named plan in the sweep converges bit-equal under abuse."""
    plan = fault_matrix(seed=0)[name]
    report = assert_chaos_survives(plan)
    assert all(s > 0 for s in report.steps.values())


def test_acceptance_scenario():
    """The issue's acceptance bar: >=5% drop and >=5% duplication on
    data messages plus one mid-run agent crash — PageRank and WCC both
    bit-equal to the fault-free run, with retry counters > 0."""
    plan = FaultPlan.data_plane_chaos(
        seed=3, drop_p=0.05, dup_p=0.05, crashes=[CrashEvent(after_step=3)]
    )
    report = assert_chaos_survives(plan)
    assert set(report.bit_equal) == {"pagerank", "wcc"}
    assert report.messages_retried > 0
    assert report.drops_chaos > 0
    assert report.messages_duplicated > 0
    assert report.scale_plan  # the crash actually reshaped the cluster


def test_chaos_replay_is_deterministic():
    """Identical seeds => identical injected-fault counts and identical
    results: a failing plan replays exactly."""
    us, vs = chaos_graph()
    reports = [
        assert_chaos_survives(
            FaultPlan.data_plane_chaos(seed=7, crashes=[CrashEvent(after_step=2)]),
            us,
            vs,
        )
        for _ in range(2)
    ]
    a, b = reports
    assert a.drops_chaos == b.drops_chaos
    assert a.messages_duplicated == b.messages_duplicated
    assert a.messages_retried == b.messages_retried
    assert a.steps == b.steps


def test_partition_window_heals():
    """A transient partition during ingest-era traffic delays but never
    loses messages once it lifts (retransmits carry them across)."""
    # Agents sit at addresses 2..5 (directory master/lead take 0..1);
    # the window isolates two of them during the ingest wave (it starts
    # at once: the cluster's bootstrap ends within 0.1 ms), then lifts
    # well before the runs start.
    plan = FaultPlan(
        seed=11,
        partitions=[PartitionWindow(group=frozenset({3, 4}), start_s=0.0, end_s=7e-3)],
    )
    report = assert_chaos_survives(plan)
    assert report.drops_partition > 0
    assert report.ok


def test_crash_two_agents_in_sequence():
    """Two crash events compound: the cluster shrinks twice mid-run and
    still converges bit-equal."""
    plan = FaultPlan.data_plane_chaos(
        seed=13,
        drop_p=0.03,
        dup_p=0.03,
        crashes=[CrashEvent(after_step=2), CrashEvent(after_step=4)],
    )
    report = assert_chaos_survives(plan)
    assert len(report.scale_plan) == 2


def test_fault_free_plan_is_transparent():
    """A plan with no rules behaves exactly like no plan at all."""
    report = assert_chaos_survives(FaultPlan(seed=1), expect_faults=False)
    assert report.faults_injected == 0
    assert report.messages_retried == 0
