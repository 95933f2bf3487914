"""Reactive EMA autoscaler policy (§3.4.3, Figure 18)."""

import pytest

from repro.cluster import ReactiveAutoscaler


def test_ema_converges_to_constant_signal():
    a = ReactiveAutoscaler(scaling_factor=10.0, ema_window=30.0)
    for t in range(0, 300, 5):
        a.observe(100.0, float(t))
    assert a.ema == pytest.approx(100.0, rel=0.01)


def test_target_is_ema_over_scaling_factor():
    a = ReactiveAutoscaler(scaling_factor=10.0)
    a.observe(95.0, 0.0)
    assert a.target() == 10  # ceil(95/10)


def test_target_clamped():
    a = ReactiveAutoscaler(scaling_factor=1.0, min_agents=2, max_agents=8)
    a.observe(0.0, 0.0)
    assert a.target() == 2
    a.observe(1e9, 1.0)
    assert a.target() == 8


def test_cooldown_blocks_rapid_scaling():
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=60.0, ema_window=1.0)
    a.observe(10.0, 0.0)
    assert a.desired(current_agents=1, now=0.0) == 10
    a.observe(50.0, 5.0)
    # Within the cooldown window: hold.
    assert a.desired(current_agents=10, now=30.0) is None
    a.observe(50.0, 60.0)
    assert a.desired(current_agents=10, now=61.0) is not None


def test_no_action_when_at_target():
    a = ReactiveAutoscaler(scaling_factor=10.0, cooldown=0.0)
    a.observe(100.0, 0.0)
    assert a.desired(current_agents=10, now=1.0) is None


def test_ema_responds_to_step_function():
    """The Figure 18 workload: a step change in query rate pulls the
    EMA (and hence the target) over within a few windows."""
    a = ReactiveAutoscaler(scaling_factor=10.0, ema_window=30.0, cooldown=0.0)
    for t in range(0, 120, 5):
        a.observe(40.0, float(t))
    low_target = a.target()
    for t in range(120, 300, 5):
        a.observe(160.0, float(t))
    high_target = a.target()
    assert low_target == 4
    assert high_target == 16


def test_scale_down_after_calm():
    a = ReactiveAutoscaler(scaling_factor=10.0, ema_window=10.0, cooldown=0.0)
    for t in range(0, 50, 2):
        a.observe(200.0, float(t))
    assert a.desired(current_agents=1, now=50.0) == 20
    for t in range(50, 200, 2):
        a.observe(10.0, float(t))
    assert a.desired(current_agents=20, now=200.0) <= 2


def test_history_records_decisions():
    a = ReactiveAutoscaler(scaling_factor=5.0, cooldown=0.0)
    a.observe(25.0, 0.0)
    a.desired(current_agents=1, now=0.0)
    assert len(a.history) == 1
    now, ema, target = a.history[0]
    assert target == 5


def test_validation():
    with pytest.raises(ValueError):
        ReactiveAutoscaler(scaling_factor=0)
    with pytest.raises(ValueError):
        ReactiveAutoscaler(scaling_factor=1, ema_window=0)


# ---------------------------------------------------------------------------
# Cooldown edge cases (stabilization-window boundary behavior)
# ---------------------------------------------------------------------------


def test_scale_request_inside_stabilization_window_is_held():
    """A scale-up signal arriving while the window from the *previous*
    action is still open must be held — and must surface again once the
    window closes, not be forgotten."""
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=60.0, ema_window=1.0)
    a.observe(4.0, 0.0)
    assert a.desired(current_agents=1, now=0.0) == 4  # action at t=0
    a.observe(12.0, 1.0)
    # Demand spikes immediately after: every probe inside (0, 60) holds.
    for now in (1.0, 30.0, 59.999):
        assert a.desired(current_agents=4, now=now) is None
    # The held request resurfaces as soon as the window closes.
    assert a.desired(current_agents=4, now=60.0) is not None


def test_cooldown_boundary_is_inclusive():
    """Exactly ``cooldown`` seconds after an action, the next action is
    allowed (the wait is "at least", strict inequality on the hold)."""
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=10.0, ema_window=1.0)
    a.observe(2.0, 0.0)
    assert a.desired(current_agents=1, now=0.0) == 2
    a.observe(5.0, 5.0)
    assert a.desired(current_agents=2, now=9.999) is None
    assert a.desired(current_agents=2, now=10.0) == 5


def test_blocked_attempts_do_not_reset_cooldown():
    """Probing during the window must not postpone the window's end —
    only *actions* restart the clock."""
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=10.0, ema_window=1.0)
    a.observe(3.0, 0.0)
    assert a.desired(current_agents=1, now=0.0) == 3
    for now in (2.0, 4.0, 6.0, 8.0, 9.9):  # hammer the policy
        a.observe(8.0, now)  # sustained demand: EMA converges to 8
        assert a.desired(current_agents=3, now=now) is None
    assert a.desired(current_agents=3, now=10.0) == 8


def test_first_action_not_blocked_by_initial_cooldown():
    """A fresh autoscaler has no prior action: the first decision may
    fire immediately, even at t=0."""
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=3600.0)
    a.observe(7.0, 0.0)
    assert a.desired(current_agents=1, now=0.0) == 7


def test_no_op_probe_during_cooldown_then_converged_target():
    """If demand returns to the current size while held, the window's
    end produces no action (the request expired naturally)."""
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=10.0, ema_window=0.5)
    a.observe(4.0, 0.0)
    assert a.desired(current_agents=1, now=0.0) == 4
    a.observe(12.0, 1.0)
    assert a.desired(current_agents=4, now=2.0) is None
    # Demand subsides below the current size before the window closes:
    # the decayed EMA's ceiling lands back on the current agent count.
    for t in range(3, 10):
        a.observe(3.0, float(t))
    assert a.desired(current_agents=4, now=10.0) is None


def test_zero_cooldown_allows_back_to_back_actions():
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=0.0, ema_window=0.1)
    a.observe(2.0, 0.0)
    assert a.desired(current_agents=1, now=0.0) == 2
    a.observe(30.0, 1.0)
    assert a.desired(current_agents=2, now=1.0) is not None


# ---------------------------------------------------------------------------
# Integer-boundary hysteresis (deadband)
# ---------------------------------------------------------------------------


def test_boundary_noise_does_not_flap():
    """An EMA wobbling ±ε around an integer boundary must not oscillate
    the cluster.  ``ceil`` alone turns raw=3.05 into target 4 and
    raw=2.95 back into target 3, so each cooldown expiry flapped 3↔4;
    the deadband holds both directions."""
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=10.0, ema_window=0.1)
    a.observe(3.05, 0.0)
    # raw=3.05 -> ceil says 4, but 3.05 <= 3 + deadband: hold at 3.
    assert a.desired(current_agents=3, now=0.0) is None
    # Noise dips below the boundary: raw=2.95 from a cluster of 4 says
    # target 3, but 2.95 >= 3 - deadband: hold at 4.
    for t in range(1, 6):
        now = float(t) * 20.0  # every probe is past the cooldown
        a.observe(3.05 if t % 2 else 2.95, now)
        assert a.desired(current_agents=4 if t % 2 else 3, now=now) is None


def test_deadband_crossing_still_scales():
    """Hysteresis must not make the policy inert: demand clearly past
    the band scales in both directions."""
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=0.0, ema_window=0.1)
    a.observe(3.4, 0.0)  # raw=3.4 > 3 + 0.25
    assert a.desired(current_agents=3, now=0.0) == 4
    for t in range(1, 60):
        a.observe(2.6, float(t))  # raw -> 2.6 < 3 - 0.25
    assert a.desired(current_agents=4, now=60.0) == 3


def test_deadband_zero_restores_pure_ceil_policy():
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=0.0, deadband=0.0)
    a.observe(3.05, 0.0)
    assert a.desired(current_agents=3, now=0.0) == 4


def test_deadband_validated():
    with pytest.raises(ValueError):
        ReactiveAutoscaler(scaling_factor=1.0, deadband=1.0)
    with pytest.raises(ValueError):
        ReactiveAutoscaler(scaling_factor=1.0, deadband=-0.1)


# ---------------------------------------------------------------------------
# Load-snapshot hygiene under failures
# ---------------------------------------------------------------------------


def test_load_snapshot_excludes_crashed_and_suspected_agents():
    """The autoscaler's input — ``cluster.collect_metrics()`` — must not
    size the cluster off ghosts.  A crashed agent's last METRIC_REPORT
    lingers in its (non-lead) directory's store; a suspected agent may
    be seconds from eviction.  Both are dropped from the snapshot."""
    import numpy as np

    from repro.core import ElGA

    elga = ElGA(nodes=2, agents_per_node=2, seed=3)
    rng = np.random.default_rng(1)
    us = rng.integers(0, 30, size=120)
    vs = rng.integers(0, 30, size=120)
    keep = us != vs
    elga.ingest_edges(us[keep], vs[keep])
    cluster = elga.cluster

    snaps = cluster.collect_metrics()
    assert set(snaps) == set(cluster.agents)

    victim = sorted(cluster.agents)[0]
    cluster.crash_agent(victim)
    snaps = cluster.collect_metrics()
    assert victim not in snaps
    # The stale report is still physically present in some directory's
    # store — the filter, not garbage collection, keeps it out.
    assert any(victim in d.metric_store for d in cluster.directories)

    suspect = sorted(cluster.agents)[0]
    leases = cluster.lead.lead_state
    leases.move_lease(suspect, "suspected", cluster.kernel.now)
    try:
        assert suspect in cluster.lead.suspected_agents()
        snaps = cluster.collect_metrics()
        assert suspect not in snaps
        assert set(snaps) == set(cluster.agents) - {suspect}
    finally:
        leases.move_lease(suspect, "live", cluster.kernel.now)
    assert not cluster.lead.suspected_agents()


# ---------------------------------------------------------------------------
# Out-of-order samples and history bounds
# ---------------------------------------------------------------------------


def test_stale_sample_gets_zero_weight():
    a = ReactiveAutoscaler(scaling_factor=1.0, ema_window=30.0)
    a.observe(100.0, 10.0)
    before = a.ema
    a.observe(1e6, 4.0)  # late-arriving report from the past
    assert a.ema == before


def test_stale_sample_does_not_rewind_observation_clock():
    """A stale sample must not rewind ``_last_obs_time``: the next
    in-order sample would then see an inflated ``dt`` and be
    over-weighted relative to a run that never saw the straggler."""
    clean = ReactiveAutoscaler(scaling_factor=1.0, ema_window=30.0)
    dirty = ReactiveAutoscaler(scaling_factor=1.0, ema_window=30.0)
    for a in (clean, dirty):
        a.observe(100.0, 0.0)
        a.observe(100.0, 10.0)
    dirty.observe(100.0, 2.0)  # stale: zero weight, no clock movement
    clean.observe(50.0, 11.0)
    dirty.observe(50.0, 11.0)
    assert dirty.ema == clean.ema
    assert dirty._last_obs_time == 11.0


def test_history_is_bounded():
    a = ReactiveAutoscaler(scaling_factor=1.0, cooldown=0.0, history_limit=16)
    a.observe(10.0, 0.0)
    for t in range(200):
        a.desired(current_agents=10, now=float(t))
    assert len(a.history) == 16
    # Ring buffer: oldest decisions evicted, newest retained.
    assert a.history[0][0] == 184.0 and a.history[-1][0] == 199.0


def test_history_limit_validated():
    with pytest.raises(ValueError):
        ReactiveAutoscaler(scaling_factor=1.0, history_limit=0)
