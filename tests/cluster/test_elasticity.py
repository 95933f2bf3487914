"""Elastic scaling: join, leave, migration, consistency (§3.4.3)."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.graph import EdgeBatch
from repro.net import FaultPlan, FaultRule
from repro.net.message import PacketType


def loaded_cluster(**kw):
    defaults = dict(nodes=2, agents_per_node=2, seed=4)
    defaults.update(kw)
    c = ElGACluster(ClusterConfig(**defaults))
    rng = np.random.default_rng(0)
    us = rng.integers(0, 200, 1500)
    vs = rng.integers(0, 200, 1500)
    keep = us != vs
    c.ingest(EdgeBatch.insertions(us[keep], vs[keep]))
    c.flush_sketches()
    return c, int(c.total_resident_edges())


def test_join_preserves_every_edge():
    c, total = loaded_cluster()
    c.add_agent()
    assert c.total_resident_edges() == total
    assert c.consistent()


def test_new_agent_receives_load():
    c, _ = loaded_cluster()
    new = c.add_agent()
    assert new.total_edges > 0


def test_leave_preserves_every_edge():
    c, total = loaded_cluster()
    victim = sorted(c.agents)[0]
    c.remove_agent(victim)
    assert c.total_resident_edges() == total
    assert victim not in c.lead.state.agents
    assert c.consistent()


def test_leaving_agent_fully_drains_and_detaches():
    c, _ = loaded_cluster()
    victim_id = sorted(c.agents)[1]
    victim = c.agents[victim_id]
    address = victim.address
    c.remove_agent(victim_id)
    assert victim.total_edges == 0
    assert not c.network.is_attached(address)


def test_a_graceful_leaver_releases_its_recovery_slot():
    """Nothing restores an agent that drained away: after a scale-down
    no slot is left for a departed id, and the leaver holds none.  A
    crashed member's slot still carries over to its replacement."""
    c, total = loaded_cluster()
    agents = dict(c.agents)
    slots = c.recovery._slots
    assert set(slots) == set(agents)
    c.scale_to(2)
    departed = sorted(set(agents) - set(c.agents))
    assert len(departed) == 2
    for agent_id in departed:
        assert agents[agent_id].status == "detached"
        assert agents[agent_id]._recovery is None
    assert set(slots) == set(c.agents)
    victim = c.crash_agent(sorted(c.agents)[0])
    assert victim in slots
    c.replace_crashed_agent(victim)
    c.settle()
    assert c.agents[victim].total_edges > 0
    assert c.total_resident_edges() == total
    assert c.consistent()


def test_join_moves_only_a_fraction():
    """Consistent hashing: one new agent out of P+1 should move roughly
    1/(P+1) of edges, not reshuffle everything (Figure 16)."""
    c, total = loaded_cluster(nodes=4, agents_per_node=4)
    c.add_agent()
    moved_edges = sum(a.metrics.edges_migrated for a in c.agents.values())
    assert 0 < moved_edges < 0.5 * total


def test_scale_to_round_trip_preserves_graph():
    c, total = loaded_cluster()
    c.scale_to(12)
    assert len(c.agents) == 12
    assert c.total_resident_edges() == total
    c.scale_to(2)
    assert len(c.agents) == 2
    assert c.total_resident_edges() == total
    assert c.consistent()


def test_scale_down_to_one_agent():
    c, total = loaded_cluster()
    c.scale_to(1)
    only = next(iter(c.agents.values()))
    assert only.total_edges == total


def test_scale_below_one_rejected():
    c, _ = loaded_cluster()
    with pytest.raises(ValueError):
        c.scale_to(0)


def test_placement_correct_after_scaling():
    """Every resident edge must live exactly where current placement
    says — i.e. a directory update leaves no strays behind."""
    c, _ = loaded_cluster()
    c.scale_to(7)
    for aid, agent in c.agents.items():
        keys, others = agent.shard.out_store.arrays()
        if len(keys):
            owners = agent.placer.owner_of_edges(keys, others)
            assert (owners == aid).all()
        keys, others = agent.shard.in_store.arrays()
        if len(keys):
            owners = agent.placer.owner_of_edges(keys, others)
            assert (owners == aid).all()


def test_ingest_works_after_scaling():
    c, total = loaded_cluster()
    c.scale_to(6)
    c.ingest(EdgeBatch.insertions([900], [901]))
    assert c.total_resident_edges() == total + 2


def test_repeated_scaling_stable():
    c, total = loaded_cluster()
    for target in (6, 3, 9, 4):
        c.scale_to(target)
        assert c.total_resident_edges() == total
    assert c.consistent()


def test_departing_agent_counts_until_detached():
    """consistent() must keep watching a leaver until it disconnects:
    it is no longer a member, but its migrate batches are still in
    flight and a resume must not race them."""
    c, total = loaded_cluster()
    victim_id = sorted(c.agents)[0]
    victim = c.agents[victim_id]
    c.remove_agent(victim_id, settle=False)
    # Leave initiated but nothing delivered yet: still inconsistent.
    assert not c.consistent()
    c.settle()
    assert not c.network.is_attached(victim.address)
    assert c.consistent()
    assert c.total_resident_edges() == total


def test_agent_removal_between_broadcast_and_ready_collection():
    """Shrink the membership in the middle of a barrier round — after
    the directory broadcast went out, while AGENT_READY messages are
    still being collected.  The barrier must neither deadlock (waiting
    on a departed agent) nor lose state, and the result must match the
    single-process reference."""
    from repro.core import ElGA
    from repro.core.algorithms import WCC

    from tests.conftest import reference_wcc

    engine = ElGA(nodes=2, agents_per_node=2, seed=21)
    rng = np.random.default_rng(2)
    us = rng.integers(0, 120, 800)
    vs = rng.integers(0, 120, 800)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    engine.ingest_edges(us, vs)
    cluster = engine.cluster

    victim_id = sorted(cluster.agents)[-1]
    fired = []

    def on_first_ready(message):
        if message.ptype == PacketType.AGENT_READY and not fired:
            fired.append(True)
            # Schedule the leave for "now": it lands between this READY
            # and the rest of the round's collection.
            cluster.kernel.schedule(0.0, cluster.remove_agent, victim_id, False)

    cluster.network.add_tap(on_first_ready)
    result = engine.run(WCC())
    expected, _ = reference_wcc(us, vs)
    assert fired, "no AGENT_READY observed — the tap never armed"
    assert victim_id not in cluster.agents
    assert {k: int(v) for k, v in result.values.items()} == expected
    cluster.settle()
    assert cluster.consistent()
    assert engine.validate_against_reference()


def test_graceful_leaver_flushes_its_unflushed_degree_counts():
    """Rows applied without a sketch flush leave their counts in the
    agent's pending delta.  A graceful leaver pushes that delta before it
    announces the leave, so after the scale-down the global count-min
    sketch has seen every count — and such a sketch never underestimates."""
    from repro.core import ElGA
    from repro.gen.powerlaw import powerlaw_graph

    us, vs, n = powerlaw_graph(300, 2000, seed=3)
    engine = ElGA(nodes=2, agents_per_node=2, seed=3)
    engine.ingest_edges(us[:1500], vs[:1500])
    engine.apply_batch(EdgeBatch.insertions(us[1500:], vs[1500:]), flush=False)
    assert any(not a.shard.sketch_delta.is_empty() for a in engine.cluster.agents.values())
    engine.scale_to(3)
    engine.cluster.flush_sketches()
    sketch = engine.cluster.lead.state.sketch
    degree = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    assert sketch.total == int(degree.sum())
    assert (sketch.query(np.arange(n)) >= degree).all()


def test_a_mid_run_leaver_flushes_the_counts_it_applied_while_suspended():
    """A ``scale_plan`` shrink removes an agent while the run is
    suspended.  Rows applied to it during the suspension are counted only
    in its pending sketch delta, and it never sees the run's end or the
    next pre-run flush; it pushes that delta before it drains, so the
    global sketch does not under-count those vertices."""
    from repro.core import ElGA, PageRank
    from repro.gen.powerlaw import powerlaw_graph

    us, vs, n = powerlaw_graph(300, 2000, seed=3)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    engine = ElGA(nodes=2, agents_per_node=2, seed=3)
    engine.ingest_edges(us, vs)
    cluster = engine.cluster
    remove_agent = cluster.remove_agent
    applied = {}

    def remove_after_rows(agent_id, settle=True):
        agent = cluster.agents[agent_id]
        assert agent.run is not None and agent.run.status == "parked"
        # Fresh out-copies keyed by new vertices, all owned here.
        cand_u = np.repeat(np.arange(n, n + 40), 2)
        cand_v = np.tile([0, 1], 40)
        mine = agent.placer.owner_of_edges(cand_u, cand_v) == agent_id
        applied["us"] = cand_u[mine]
        agent._on_edge_update(
            {"role": "out", "actions": np.ones(int(mine.sum()), dtype=np.int8),
             "us": cand_u[mine], "vs": cand_v[mine], "reply_to": -1, "token": 0},
            True,
        )
        assert not agent.shard.sketch_delta.is_empty()
        remove_agent(agent_id, settle)

    cluster.remove_agent = remove_after_rows
    engine.run(PageRank(max_iters=6), scale_plan={2: 3})
    cluster.settle()
    assert len(applied["us"]) > 0 and len(cluster.agents) == 3
    sketch = cluster.lead.state.sketch
    degree = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    assert sketch.total == int(degree.sum()) + len(applied["us"])
    new, rows = np.unique(applied["us"], return_counts=True)
    assert (sketch.query(new) >= rows).all()
    assert (sketch.query(np.arange(n)) >= degree).all()


def test_a_joiner_whose_join_is_dropped_waits_until_it_is_listed():
    """The directory's reply to a joiner's SUBSCRIBE does not list it.  A
    joiner that took that for a leave detached itself, and every
    migration aimed at it once the retransmitted JOIN landed bounced
    back and forth for good."""
    c, total = loaded_cluster()
    now = c.kernel.now
    c.network.install_faults(FaultPlan(seed=1, rules=[FaultRule(
        ptypes=frozenset({PacketType.AGENT_JOIN}), drop_p=1.0, start_s=now, end_s=now + 1e-3,
    )]))
    joiner = c.add_agent(settle=False)
    c.kernel.run_until_idle(max_events=200_000)
    assert c.network.is_attached(joiner.address)
    assert joiner.agent_id in c.lead.state.agents
    assert joiner.total_edges > 0
    assert c.consistent()
    assert c.total_resident_edges() == total


def test_a_leave_asked_before_the_join_landed_still_leaves():
    """Pushed at once, the 8 B AGENT_LEAVE overtakes the 32 B AGENT_JOIN
    on the same link and the lead drops it as a duplicate: the agent
    would stay a member for good."""
    c, total = loaded_cluster()
    joiner = c.add_agent(settle=False)
    c.remove_agent(joiner.agent_id)
    assert not c.network.is_attached(joiner.address)
    assert joiner.status == "detached"
    assert joiner.agent_id not in c.lead.state.agents
    assert c.consistent()
    assert c.total_resident_edges() == total


def test_a_leaver_whose_home_directory_died_re_sends_its_leave():
    """Its unflushed degree counts send the leaver to the master for a
    live directory, and its first AGENT_LEAVE went to the dead one; after
    the re-home it announces the leave again, not a join."""
    from repro.core import ElGA
    from repro.gen.powerlaw import powerlaw_graph

    us, vs, _ = powerlaw_graph(300, 2000, seed=3)
    engine = ElGA(nodes=1, agents_per_node=3, seed=3, n_directories=2)
    engine.ingest_edges(us[:1500], vs[:1500])
    engine.apply_batch(EdgeBatch.insertions(us[1500:], vs[1500:]), flush=False)
    c = engine.cluster
    total = c.total_resident_edges()
    leaver = c.agents[1]
    assert leaver.directory_address == c.directories[1].address  # the only agent homed there
    assert not leaver.shard.sketch_delta.is_empty()
    c.crash_directory(1)
    # Unsettled, the leave goes out before the re-home lands.
    c.remove_agent(1, settle=False)
    c.settle()
    assert 1 not in c.lead.state.agents
    assert leaver.status == "detached"
    assert c.consistent()
    assert c.total_resident_edges() == total


def test_a_graceful_leave_beside_an_orphan_settles():
    """A peer whose home directory died cannot hear the state that
    unlists the leaver; routing by the old one, it would bounce the
    leaver's migration back for good.  The leave re-homes it first."""
    from repro.core import ElGA
    from repro.gen.powerlaw import powerlaw_graph

    us, vs, _ = powerlaw_graph(300, 2000, seed=3)
    keep = us != vs
    engine = ElGA(nodes=1, agents_per_node=4, seed=3, n_directories=2)
    engine.ingest_edges(us[keep], vs[keep])
    c = engine.cluster
    total = c.total_resident_edges()
    orphan = c.agents[1]
    assert orphan.directory_address == c.directories[1].address
    c.crash_directory(1)
    c.remove_agent(0, settle=False)
    c.settle(max_events=200_000)  # the ping-pong exhausts this budget
    assert c.network.is_attached(orphan.directory_address)
    assert 0 not in orphan.dstate.agents
    assert c.consistent()
    assert c.total_resident_edges() == total


def test_a_crash_replacement_keeps_the_shard_it_restored():
    """A replacement rejoins under its victim's id, so its restored rows
    are exactly the ones it owns: no migration ships them away and back."""
    from repro.core import ElGA, PageRank
    from repro.gen.powerlaw import powerlaw_graph

    us, vs, _ = powerlaw_graph(200, 1500, seed=5)
    keep = us != vs
    engine = ElGA(nodes=2, agents_per_node=2, seed=5, heartbeat_interval=0.005,
                  lease_timeout=0.025, checkpoint_every=2)
    engine.ingest_edges(us[keep], vs[keep])
    engine.run(PageRank(max_iters=8), crash_plan={3: {"agents": 1}})
    log = engine.cluster.recovery_log
    assert [entry["event"] for entry in log] == ["crash", "recover", "replace"]
    assert log[1]["mode"] == "rollback"
    replacement = engine.cluster.agents[log[2]["replacement"]]
    assert replacement.restored_from["edges_restored"] > 0
    assert replacement.metrics.edges_migrated == 0
    assert engine.validate_against_reference()


def test_leaver_with_an_empty_delta_sends_only_its_leave():
    c, _ = loaded_cluster()
    victim = c.agents[sorted(c.agents)[0]]
    assert victim.shard.sketch_delta.is_empty()
    stats = c.network.stats
    sent, pending = stats.messages_sent, c.kernel.pending
    deltas = stats.by_type_count[PacketType.SKETCH_DELTA]
    victim.initiate_leave()
    assert stats.messages_sent == sent + 1
    assert stats.by_type_count[PacketType.SKETCH_DELTA] == deltas
    assert c.kernel.pending == pending + 1  # the AGENT_LEAVE delivery
