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


# ---------------------------------------------------------------------------
# one ring per membership, shared by every participant that adopts it
# ---------------------------------------------------------------------------


def participants(cluster):
    return [*cluster.agents.values(), *cluster.streamers, *cluster.clients]


def the_ring(cluster):
    """The one ring object every participant of ``cluster`` holds."""
    everyone = participants(cluster)
    assert {type(p).__name__ for p in everyone} == {"Agent", "Streamer", "ClientProxy"}
    rings = {id(p.placer.ring): p.placer.ring for p in everyone}
    assert len(rings) == 1, "participants of one membership must share one ring"
    (ring,) = rings.values()
    state = cluster.lead.state
    assert ring.members() == state.agent_ids()
    assert [ring.weight_of(a) for a in ring.members()] == [
        state.weights.get(a, 1.0) for a in ring.members()
    ]
    return ring


def test_scale_to_hands_every_participant_the_same_new_ring():
    elga = build()
    elga.cluster.new_client()
    elga.cluster.settle()
    before = the_ring(elga.cluster)
    elga.scale_to(7)
    after = the_ring(elga.cluster)
    assert after is not before
    assert len(after) == 7 and len(before) == 4, "the old ring is not updated in place"
    with pytest.raises(TypeError):
        after.add(99)
    assert elga.validate_against_reference()


def test_weights_only_adoption_is_a_different_ring():
    elga = build()
    elga.cluster.new_client()
    elga.cluster.settle()
    before = the_ring(elga.cluster)
    elga.cluster.rebalance({1: 2.0})
    after = the_ring(elga.cluster)
    assert after is not before
    assert after.members() == before.members()
    assert (before.weight_of(1), after.weight_of(1)) == (1.0, 2.0)
    assert elga.validate_against_reference()


@pytest.mark.ctrlplane
def test_lead_failover_over_unchanged_membership_keeps_the_ring():
    from repro.core import PageRank

    elga = ElGA(
        nodes=2, agents_per_node=2, seed=11, n_directories=3, dir_lease_interval=2e-3,
        dir_lease_timeout=6e-3, heartbeat_interval=0.005, lease_timeout=0.025,
        checkpoint_every=2,
    )
    rng = np.random.default_rng(11)
    us, vs = rng.integers(0, 300, 600), rng.integers(0, 300, 600)
    keep = us != vs
    elga.ingest_edges(us[keep], vs[keep])
    cluster = elga.cluster
    rings = {aid: a.placer.ring for aid, a in cluster.agents.items()}
    elga.run(PageRank(max_iters=6), crash_plan={3: {"lead": True}})
    assert cluster.lead.term == 1
    # The next run start re-homes the dead lead's agents, and its first
    # broadcast carries the successor's term to everyone.
    elga.run(PageRank(max_iters=2))
    for aid, agent in cluster.agents.items():
        assert agent.dstate.term == 1, "the successor's state must have been adopted"
        assert agent.placer.ring is rings[aid]


def test_scale_event_builds_at_most_one_ring_per_membership(monkeypatch):
    from repro.hashing.ring import ConsistentHashRing

    elga = ElGA(nodes=4, agents_per_node=4, seed=11)
    rng = np.random.default_rng(11)
    elga.ingest_edges(rng.integers(0, 300, 600), rng.integers(300, 600, 600))
    elga.cluster.new_client()
    elga.cluster.settle()
    built = []
    init = ConsistentHashRing.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(tuple(self.members()))

    monkeypatch.setattr(ConsistentHashRing, "__init__", counting_init)
    elga.scale_to(24)
    # Eight joins publish at most eight memberships; 18 to 26
    # participants adopt each of them.
    assert 1 <= len(built) <= 8
    assert len(set(built)) == len(built)
    assert built[-1] == tuple(range(24))
    assert len(the_ring(elga.cluster)) == 24
