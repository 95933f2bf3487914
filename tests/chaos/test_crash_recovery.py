"""Crash-recovery acceptance: abrupt agent death under data-plane chaos.

The claim under test is the PR's tentpole contract: an Agent killed
mid-PageRank — detached from the fabric with no drain, while the
reliable transport underneath is dropping 5% and duplicating 5% of data
traffic — is detected by heartbeat leases, evicted by the directory,
and replaced from its durable checkpoint + WAL; the run then converges
**bit-identical** to a fault-free reference, with edge conservation and
directory-epoch monotonicity holding at every settle.

All seeds are fixed; recovery itself must be deterministic (same seed
and fault plan ⇒ the same eviction, the same replacement id, the same
replay counts).
"""

import pytest

from repro.core import PageRank
from repro.net.faults import CrashEvent, FaultPlan
from tests.chaos.harness import assert_chaos_survives, chaos_graph

pytestmark = [pytest.mark.chaos, pytest.mark.recovery]

#: Failure detection + checkpointing knobs every scenario here shares.
#: Heartbeats every 5 ms against a 25 ms lease; checkpoint every 2
#: supersteps so a rollback step always exists by mid-run.
RECOVERY_CONFIG = dict(
    heartbeat_interval=0.005,
    lease_timeout=0.025,
    checkpoint_every=2,
)


def crash_plan(seed: int = 0, after_step: int = 3) -> FaultPlan:
    """5% drop + 5% dup on the data plane, one abrupt kill mid-run."""
    return FaultPlan.data_plane_chaos(
        seed=seed,
        drop_p=0.05,
        dup_p=0.05,
        crashes=[CrashEvent(after_step=after_step, abrupt=True)],
    )


def test_abrupt_crash_mid_pagerank_recovers_bit_identical():
    """The headline acceptance scenario (checkpoint rollback path)."""
    report = assert_chaos_survives(
        crash_plan(seed=21),
        programs=[PageRank(max_iters=12)],
        **RECOVERY_CONFIG,
    )
    assert report.crash_plan == {3: {"agents": 1, "lead": False, "master": False}}
    assert report.recoveries == 1
    events = {e["event"] for e in report.recovery_log}
    assert events == {"crash", "recover", "replace"}
    recover = next(e for e in report.recovery_log if e["event"] == "recover")
    assert recover["mode"] == "rollback"
    assert recover["step"] >= 1  # rolled back to a real checkpoint


def test_recovery_then_second_program_still_converges():
    """After a crash-recovery cycle the cluster is healthy: a second
    program (WCC, the harness default) runs on the recovered membership
    and also matches its reference bit-for-bit."""
    report = assert_chaos_survives(crash_plan(seed=33), **RECOVERY_CONFIG)
    assert report.recoveries == 1
    assert len(report.bit_equal) == 2 and report.ok


def test_recovery_is_deterministic_per_seed():
    """Same seed, same plan ⇒ the identical recovery trace: crash time,
    eviction, recovery mode and step, replacement id, WAL replay and
    edge-restore counts."""
    kwargs = dict(programs=[PageRank(max_iters=10)], **RECOVERY_CONFIG)
    first = assert_chaos_survives(crash_plan(seed=5), **kwargs)
    second = assert_chaos_survives(crash_plan(seed=5), **kwargs)
    assert first.recovery_log == second.recovery_log
    assert first.recoveries == 1


def test_crash_without_checkpoints_degrades_to_restart():
    """``checkpoint_every=0``: no rollback point exists, so recovery
    must degrade gracefully — restart the run from WAL-restored edges
    and pre-run values — rather than deadlock the barrier."""
    report = assert_chaos_survives(
        crash_plan(seed=8),
        programs=[PageRank(max_iters=12)],
        heartbeat_interval=0.005,
        lease_timeout=0.025,
        checkpoint_every=0,
    )
    assert report.recoveries == 1
    recover = next(e for e in report.recovery_log if e["event"] == "recover")
    assert recover["mode"] == "restart"
    assert recover["step"] == 0


def test_crash_plan_requires_failure_detection():
    """A crash plan with heartbeats disabled is a configuration error,
    not a deadlock: the engine refuses up front."""
    import numpy as np

    from repro.core import ElGA

    elga = ElGA(nodes=2, agents_per_node=2, seed=1)
    us, vs = chaos_graph(n=20, m=60)
    elga.ingest_edges(np.asarray(us), np.asarray(vs))
    with pytest.raises(ValueError, match="heartbeat"):
        elga.run(PageRank(max_iters=5), crash_plan={2: {"agents": 1}})
    # One plan shape: a bare victim count is not an entry.
    with pytest.raises(TypeError):
        elga.run(PageRank(max_iters=5), crash_plan={2: 1})
