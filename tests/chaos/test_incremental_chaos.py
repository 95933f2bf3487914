"""Chaos ride-along for the incremental delta engine.

The contract: an agent abruptly killed *mid-delta-run* — while the run
is converging from the previous fixpoint with only a frontier active —
is detected, evicted, and replaced from its durable state (checkpoint
rollback or WAL-replay restart), and the recovered run's result is
**bit-identical** to the fault-free incremental run on the same stream.
Warm-start state (persisted fixpoint values, residual baselines, dirty
mutation rows) must therefore survive the crash intact.
"""

import numpy as np
import pytest

from repro.core import ElGA, PageRank
from repro.graph import EdgeBatch

pytestmark = [pytest.mark.chaos, pytest.mark.recovery, pytest.mark.incremental]

RECOVERY_CONFIG = dict(
    heartbeat_interval=0.005,
    lease_timeout=0.025,
    checkpoint_every=2,
)


def _incremental_run(crash_plan=None, checkpoint_every=2):
    """Fixpoint -> insert batch -> incremental delta run (maybe crashed)."""
    config = dict(RECOVERY_CONFIG, checkpoint_every=checkpoint_every)
    elga = ElGA(nodes=2, agents_per_node=2, seed=29, **config)
    us = np.concatenate([np.arange(40), np.array([0, 5, 11])])
    vs = np.concatenate([(np.arange(40) + 1) % 40, np.array([20, 30, 4])])
    elga.ingest_edges(us, vs)
    pr = PageRank(max_iters=200, tol=1e-8)
    elga.run(pr)
    elga.apply_batch(EdgeBatch.insertions([7, 25], [19, 2]))
    result = elga.run(pr, incremental=True, crash_plan=crash_plan)
    return elga, result


def test_crash_mid_delta_run_recovers_bit_identical():
    _, fault_free = _incremental_run()
    elga, recovered = _incremental_run(crash_plan={3: {"agents": 1}})
    assert fault_free.strategy == recovered.strategy == "delta"
    assert len(elga.cluster.recovery_log) >= 2  # crash + recover events
    recover = next(
        e for e in elga.cluster.recovery_log if e["event"] == "recover"
    )
    assert recover["mode"] == "rollback"
    assert recovered.values == fault_free.values  # bit-identical


def test_crash_mid_delta_run_without_checkpoints_restarts_bit_identical():
    """WAL-only degradation: with no rollback point the delta run is
    restarted from persisted warm-start state and still lands on the
    identical answer."""
    _, fault_free = _incremental_run(checkpoint_every=0)
    elga, recovered = _incremental_run(crash_plan={1: {"agents": 1}}, checkpoint_every=0)
    assert fault_free.strategy == recovered.strategy == "delta"
    recover = next(
        e for e in elga.cluster.recovery_log if e["event"] == "recover"
    )
    assert recover["mode"] == "restart"
    assert recovered.values == fault_free.values
