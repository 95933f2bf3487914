"""FaultPlan policy unit tests: matching, determinism, scale plans."""

import math

import numpy as np
import pytest

from repro.core import WCC, RunSpec
from repro.net import (
    CONTROL_PTYPES,
    DATA_PTYPES,
    CrashEvent,
    FaultPlan,
    FaultRule,
    Message,
    PacketType,
    PartitionWindow,
)

#: One declared payload for each packet type these tests send.
PAYLOADS = {
    PacketType.VERTEX_MSG: {"step": 0, "round": 0, "inc": 0, "dst": np.zeros(1, dtype=np.int64),
                            "val": np.zeros(1)},
    PacketType.AGENT_READY: {"agent_id": 0, "step": 0, "round": 0, "stats": {}},
    PacketType.RUN_START: RunSpec(run_id=1, program=WCC()),
    PacketType.DELIVERY_ACK: 1,
}


def msg(ptype=PacketType.VERTEX_MSG, src=0, dst=1):
    return Message(ptype=ptype, payload=PAYLOADS[ptype], src=src, dst=dst)


# ---------------------------------------------------------------------------
# FaultRule matching
# ---------------------------------------------------------------------------


def test_rule_matches_ptype_filter():
    rule = FaultRule(ptypes=frozenset({PacketType.VERTEX_MSG}))
    assert rule.matches(msg(PacketType.VERTEX_MSG), now=0.0)
    assert not rule.matches(msg(PacketType.AGENT_READY), now=0.0)


def test_rule_none_ptypes_matches_everything():
    rule = FaultRule()
    for ptype in (PacketType.VERTEX_MSG, PacketType.RUN_START, PacketType.DELIVERY_ACK):
        assert rule.matches(msg(ptype), now=0.0)


def test_rule_link_filter():
    rule = FaultRule(src=3, dst=7)
    assert rule.matches(msg(src=3, dst=7), now=0.0)
    assert not rule.matches(msg(src=3, dst=8), now=0.0)
    assert not rule.matches(msg(src=4, dst=7), now=0.0)


def test_rule_time_window():
    rule = FaultRule(start_s=1.0, end_s=2.0)
    assert not rule.matches(msg(), now=0.5)
    assert rule.matches(msg(), now=1.0)
    assert rule.matches(msg(), now=1.999)
    assert not rule.matches(msg(), now=2.0)  # half-open interval


def test_rule_probability_validation():
    with pytest.raises(ValueError):
        FaultRule(drop_p=1.5)
    with pytest.raises(ValueError):
        FaultRule(dup_p=-0.1)
    with pytest.raises(ValueError):
        FaultRule(start_s=2.0, end_s=1.0)
    with pytest.raises(ValueError):
        FaultRule(reorder_window_s=-1e-3)


def test_first_matching_rule_wins():
    specific = FaultRule(name="specific", ptypes=frozenset({PacketType.VERTEX_MSG}), drop_p=1.0)
    general = FaultRule(name="general", drop_p=0.0)
    plan = FaultPlan(seed=0, rules=[specific, general])
    assert plan.decide(msg(PacketType.VERTEX_MSG), now=0.0) == []
    assert plan.decide(msg(PacketType.RUN_START), now=0.0) == [0.0]


# ---------------------------------------------------------------------------
# FaultPlan decisions
# ---------------------------------------------------------------------------


def test_no_rules_is_transparent():
    plan = FaultPlan(seed=0)
    for _ in range(100):
        assert plan.decide(msg(), now=0.0) == [0.0]
    assert sum(plan.injected.values()) == 0


def test_drop_always():
    plan = FaultPlan(seed=0, rules=[FaultRule(drop_p=1.0)])
    assert plan.decide(msg(), now=0.0) == []
    assert plan.injected["drops"] == 1


def test_duplicate_always():
    plan = FaultPlan(seed=0, rules=[FaultRule(dup_p=1.0)])
    delays = plan.decide(msg(), now=0.0)
    assert len(delays) == 2
    assert plan.injected["dups"] == 1


def test_reorder_delay_bounded_by_window():
    plan = FaultPlan(
        seed=0, rules=[FaultRule(reorder_p=1.0, reorder_window_s=2e-3)]
    )
    for _ in range(50):
        (delay,) = plan.decide(msg(), now=0.0)
        assert 0.0 <= delay <= 2e-3
    assert plan.injected["reorders"] == 50


def test_delay_spike_adds_fixed_latency():
    plan = FaultPlan(seed=0, rules=[FaultRule(delay_p=1.0, delay_spike_s=7e-3)])
    (delay,) = plan.decide(msg(), now=0.0)
    assert delay == pytest.approx(7e-3)


def test_same_seed_same_decisions():
    def trace(seed):
        plan = FaultPlan(
            seed=seed,
            rules=[FaultRule(drop_p=0.3, dup_p=0.3, reorder_p=0.3)],
        )
        return [tuple(plan.decide(msg(), now=0.0)) for _ in range(200)], dict(
            plan.injected
        )

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


def test_probabilities_roughly_respected():
    plan = FaultPlan(seed=1, rules=[FaultRule(drop_p=0.25)])
    n = 2000
    dropped = sum(1 for _ in range(n) if plan.decide(msg(), now=0.0) == [])
    assert 0.18 < dropped / n < 0.32


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def test_partition_separates_across_boundary_only():
    window = PartitionWindow(group=frozenset({1, 2}), start_s=0.0, end_s=1.0)
    assert window.separates(1, 5, now=0.5)
    assert window.separates(5, 2, now=0.5)
    assert not window.separates(1, 2, now=0.5)  # both inside
    assert not window.separates(5, 6, now=0.5)  # both outside
    assert not window.separates(1, 5, now=1.0)  # window closed


def test_partition_checked_before_rules():
    plan = FaultPlan(
        seed=0,
        rules=[FaultRule(drop_p=0.0)],
        partitions=[PartitionWindow(group=frozenset({0}), start_s=0.0, end_s=1.0)],
    )
    assert plan.decide(msg(src=0, dst=1), now=0.5) == []
    assert plan.injected["partition_drops"] == 1
    assert plan.decide(msg(src=0, dst=1), now=1.5) == [0.0]


# ---------------------------------------------------------------------------
# Crash schedule -> scale plan
# ---------------------------------------------------------------------------


def test_scale_plan_compounds_removals():
    plan = FaultPlan(
        seed=0,
        crashes=[CrashEvent(after_step=5), CrashEvent(after_step=2, agents_removed=2)],
    )
    # Events sort by step; removals compound.
    assert plan.scale_plan(8) == {2: 6, 5: 5}


def test_scale_plan_refuses_total_annihilation():
    plan = FaultPlan(seed=0, crashes=[CrashEvent(after_step=1, agents_removed=4)])
    with pytest.raises(ValueError):
        plan.scale_plan(4)


def test_scale_plan_empty_without_crashes():
    assert FaultPlan(seed=0).scale_plan(4) == {}


# ---------------------------------------------------------------------------
# Preset constructors
# ---------------------------------------------------------------------------


def test_data_plane_preset_spares_control():
    plan = FaultPlan.data_plane_chaos(seed=0, drop_p=1.0)
    assert plan.decide(msg(PacketType.VERTEX_MSG), now=0.0) == []
    assert plan.decide(msg(PacketType.AGENT_READY), now=0.0) == [0.0]
    assert plan.decide(msg(PacketType.DELIVERY_ACK), now=0.0) == [0.0]


def test_control_plane_preset_spares_data():
    plan = FaultPlan.control_plane_chaos(seed=0, drop_p=1.0)
    assert plan.decide(msg(PacketType.RUN_START), now=0.0) == []
    assert plan.decide(msg(PacketType.VERTEX_MSG), now=0.0) == [0.0]


def test_full_chaos_hits_everything():
    plan = FaultPlan.full_chaos(seed=0, drop_p=1.0)
    for ptype in (PacketType.VERTEX_MSG, PacketType.RUN_START, PacketType.DELIVERY_ACK):
        assert plan.decide(msg(ptype), now=0.0) == []


def test_ptype_partition_is_disjoint():
    assert not (DATA_PTYPES & CONTROL_PTYPES)
    assert PacketType.DELIVERY_ACK not in DATA_PTYPES | CONTROL_PTYPES


def test_rule_window_defaults_open_ended():
    rule = FaultRule()
    assert rule.start_s == 0.0
    assert rule.end_s == math.inf
