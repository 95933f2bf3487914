"""Epoch token propagation and the agents' placement fast path."""

import numpy as np
import pytest

from repro.core import ElGA


def build(seed=11):
    elga = ElGA(nodes=2, agents_per_node=2, seed=seed)
    rng = np.random.default_rng(seed)
    us = rng.integers(0, 300, size=600).astype(np.int64)
    vs = rng.integers(0, 300, size=600).astype(np.int64)
    elga.ingest_edges(us, vs)
    return elga


def test_broadcast_carries_epoch():
    elga = build()
    for agent in elga.cluster.agents.values():
        assert agent.dstate is not None
        assert agent.dstate.epoch is not None
        term, membership, sketch_v, n_split = agent.dstate.epoch
        assert term == 0  # no election has happened
        assert membership >= len(elga.cluster.agents)
        assert n_split == len(agent.dstate.split_vertices)


def test_batch_clock_bump_preserves_cache_epoch():
    elga = build()
    agents = list(elga.cluster.agents.values())
    before_epochs = [a.dstate.epoch for a in agents]
    before_inval = [
        a.perf.counts.get("placement_epoch_invalidations", 0) for a in agents
    ]
    elga.cluster.lead.advance_batch_clock()
    elga.cluster.settle()
    for agent, epoch, inval in zip(agents, before_epochs, before_inval):
        assert agent.dstate.epoch == epoch
        assert (
            agent.perf.counts.get("placement_epoch_invalidations", 0) == inval
        ), "batch-clock-only broadcast must not invalidate the placement cache"


def test_membership_change_invalidates():
    elga = build()
    agents_before = {
        aid: a.perf.counts.get("placement_epoch_invalidations", 0)
        for aid, a in elga.cluster.agents.items()
    }
    elga.scale_to(len(agents_before) + 1)
    grew = False
    for aid, before in agents_before.items():
        agent = elga.cluster.agents.get(aid)
        if agent is None:
            continue
        if agent.perf.counts.get("placement_epoch_invalidations", 0) > before:
            grew = True
    assert grew, "a join must change the epoch and invalidate caches"


def test_placement_counters_surface():
    elga = build()
    counters = elga.placement_counters()
    counts = counters.counts
    assert counts.get("placement_cache_misses", 0) > 0
    # Ingest resolves each edge at the streamer and again at the agent;
    # repeats within the same epoch must produce hits somewhere.
    assert counts.get("placement_cache_hits", 0) > 0


def test_metrics_report_includes_cache_counters():
    elga = build()
    for agent in elga.cluster.agents.values():
        agent.report_metrics()
    elga.cluster.settle()
    store = elga.cluster.lead.metric_store
    assert store
    total_hits = sum(m.get("placement_cache_hits", 0) for m in store.values())
    total_misses = sum(m.get("placement_cache_misses", 0) for m in store.values())
    assert total_misses > 0
    assert total_hits >= 0


# ---------------------------------------------------------------------------
# what an adoption re-examines, and what it rebuilds
# ---------------------------------------------------------------------------


def recheck_counts(elga):
    return {
        aid: (a.metrics.migrate_rows_rechecked, a.metrics.migrate_rechecks_skipped)
        for aid, a in elga.cluster.agents.items()
    }


def test_batch_clock_tick_rechecks_nothing_and_is_still_charged():
    elga = build()
    cluster = elga.cluster
    rings = {aid: a.placer.ring for aid, a in cluster.agents.items()}
    before = recheck_counts(elga)
    charged = {aid: a.charged_seconds for aid, a in cluster.agents.items()}
    cluster.lead.advance_batch_clock()
    cluster.settle()
    for aid, agent in cluster.agents.items():
        rows, skipped = before[aid]
        assert recheck_counts(elga)[aid] == (rows, skipped + 1)
        assert agent.placer.ring is rings[aid]
        # The modelled cluster still pays the paper's full pass.
        expected = cluster.config.costs.elga_migrate_check * agent.total_edges
        assert expected > 0
        assert agent.charged_seconds - charged[aid] == pytest.approx(expected)


def test_sketch_flush_keeps_the_ring_and_its_memo():
    elga = build()
    cluster = elga.cluster
    rings = {aid: a.placer.ring for aid, a in cluster.agents.items()}
    streamer_ring = cluster.streamers[0].placer.ring
    epochs = {aid: a.dstate.epoch for aid, a in cluster.agents.items()}
    rng = np.random.default_rng(3)
    elga.ingest_edges(rng.integers(0, 300, 200), rng.integers(300, 600, 200))
    hits = elga.placement_counters().counts["placement_ring_memo_hits"]
    for aid, agent in cluster.agents.items():
        assert agent.dstate.epoch != epochs[aid], "the flush must have bumped the epoch"
        assert agent.dstate.ring_epoch == epochs[aid][:2]
        assert agent.placer.ring is rings[aid]
    assert cluster.streamers[0].placer.ring is streamer_ring
    # Re-ingesting known vertices after the flush is answered by the memo.
    elga.ingest_edges(rng.integers(0, 300, 200), rng.integers(300, 600, 200))
    assert elga.placement_counters().counts["placement_ring_memo_hits"] > hits


def test_membership_change_rechecks_every_resident_row_once():
    elga = build()
    cluster = elga.cluster
    survivors = dict(cluster.agents)
    rings = {aid: a.placer.ring for aid, a in survivors.items()}
    before = recheck_counts(elga)
    resident = {aid: a.total_edges for aid, a in survivors.items()}
    cluster.add_agent()  # one join, one broadcast
    for aid, agent in survivors.items():
        assert agent.placer.ring is not rings[aid]
        rows, skipped = recheck_counts(elga)[aid]
        assert rows - before[aid][0] == resident[aid]
        assert skipped == before[aid][1]
    assert elga.validate_against_reference()
