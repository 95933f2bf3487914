"""Tracing under chaos: the ISSUE's acceptance scenario.

A traced chaos run must export a valid Chrome trace, and the diff must
(a) find *no* divergence between a fault-free reference and a chaos run
whose transport recovered every fault, and (b) pinpoint the first
divergent message when recovery reshapes the round structure.
"""

import numpy as np
import pytest

from repro.bench.chaos import fault_matrix, run_chaos_scenario
from repro.core import PageRank
from repro.net.faults import CrashEvent, FaultPlan
from repro.obs import TraceSummary, diff_traces, to_chrome_trace, validate_chrome_trace

pytestmark = [pytest.mark.obs, pytest.mark.chaos]


def _graph(seed=3, n=40, m=150):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, m), rng.integers(0, n, m)


def test_recovered_chaos_run_aligns_with_reference():
    us, vs = _graph()
    plan = fault_matrix(seed=0)["data-loss"]
    report = run_chaos_scenario(
        us, vs, plan, programs=[PageRank(max_iters=6)], tracing=True
    )
    assert report.ok and report.faults_injected > 0
    assert set(report.traces) == {"reference", "chaos"}
    # Retransmits and duplicate copies are transport artifacts; logical
    # message multisets and barriers must align exactly.
    assert diff_traces(report.traces["reference"], report.traces["chaos"]) is None
    validate_chrome_trace(to_chrome_trace(report.traces["chaos"]))


@pytest.mark.recovery
def test_crash_recovery_trace_pinpoints_divergence():
    us, vs = _graph()
    plan = FaultPlan.data_plane_chaos(
        seed=2, crashes=[CrashEvent(after_step=3, abrupt=True)]
    )
    report = run_chaos_scenario(
        us,
        vs,
        plan,
        programs=[PageRank(max_iters=8)],
        heartbeat_interval=2e-3,
        checkpoint_every=2,
        tracing=True,
    )
    assert report.ok and report.recoveries == 1
    chaos = report.traces["chaos"]
    names = {e.name for e in chaos.events}
    assert {"suspect", "evict", "recover_broadcast", "recover", "restore"} <= names
    validate_chrome_trace(to_chrome_trace(chaos))
    # The rollback replays rounds the reference never ran, so the diff
    # names the earliest round whose message multiset differs.
    div = diff_traces(report.traces["reference"], chaos)
    assert div is not None
    assert div.kind in ("message", "payload")
    assert div.step is not None and div.step >= 0
    assert "diverged at superstep" in div.describe()
    summary = TraceSummary.from_trace(chaos)
    assert summary.total_compute() > 0 and summary.total_wait() > 0


def test_untraced_chaos_report_has_no_traces():
    us, vs = _graph()
    plan = fault_matrix(seed=0)["data-loss"]
    report = run_chaos_scenario(us, vs, plan, programs=[PageRank(max_iters=4)])
    assert report.ok and report.traces == {}

