"""Fenced adoption of re-weight plans: epoch discipline, idempotency,
forwarding, failover survival, and agent-side observation."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.core import ElGA, PageRank
from repro.gen import powerlaw_graph
from repro.net.message import Message, PacketType

pytestmark = pytest.mark.rebalance


def make_cluster(**kw):
    defaults = dict(nodes=2, agents_per_node=2, seed=1)
    defaults.update(kw)
    return ElGACluster(ClusterConfig(**defaults))


def _ingest_ring(elga: ElGA, n: int = 16) -> None:
    vs = np.arange(n)
    elga.ingest_edges(vs, (vs + 1) % n)


def test_adoption_bumps_epoch_once_and_is_idempotent():
    c = make_cluster()
    state_before = c.lead.state
    c.rebalance({0: 2.0, 1: 0.5})
    state_after = c.lead.state
    assert state_after.epoch != state_before.epoch
    assert state_after.version > state_before.version
    # Batch clock is ingest's, not the control plane's.
    assert state_after.batch_id == state_before.batch_id
    assert c.totals()["rebalance_plans_adopted"] == 1
    assert c.current_weights() == {0: 2.0, 1: 0.5, 2: 1.0, 3: 1.0}
    # Duplicate delivery (controller replay, at-least-once transport):
    # no second epoch bump, no re-broadcast, no stat increment.
    c.rebalance({0: 2.0, 1: 0.5})
    assert c.lead.state.epoch == state_after.epoch
    assert c.lead.state.version == state_after.version
    assert c.totals()["rebalance_plans_adopted"] == 1


def test_unit_weight_entries_collapse_out_of_the_map():
    c = make_cluster()
    c.rebalance({0: 2.0})
    assert c.lead.state.weights == {0: 2.0}
    c.rebalance({0: 1.0})
    # Re-weighting back to 1.0 removes the entry rather than pinning it.
    assert c.lead.state.weights == {}
    assert c.current_weights() == {i: 1.0 for i in range(4)}


def test_departed_members_in_plan_are_ignored():
    c = make_cluster()
    state_before = c.lead.state
    c.rebalance({99: 3.0})  # stale plan naming a never-joined agent
    assert c.lead.state.weights == {}
    assert c.lead.state.epoch == state_before.epoch


def test_nonpositive_weight_rejected():
    c = make_cluster()
    with pytest.raises(ValueError):
        c.rebalance({0: 0.0})
    with pytest.raises(ValueError):
        c.rebalance({0: -1.0})


def test_non_lead_adopt_raises_and_forwards_packet():
    c = make_cluster(n_directories=3)
    follower = next(d for d in c.directories if not d.is_lead)
    with pytest.raises(RuntimeError):
        follower.adopt_rebalance({0: 2.0})
    # The wire path still works from a follower: REBALANCE_PLAN is
    # forwarded to the lead like membership traffic.
    follower.handle_message(
        Message(ptype=PacketType.REBALANCE_PLAN, payload={"weights": {0: 2.0}})
    )
    c.settle()
    assert c.totals()["rebalance_plans_adopted"] == 1
    assert c.current_weights()[0] == 2.0


def test_agents_observe_weights_and_count_adoptions():
    elga = ElGA(nodes=2, agents_per_node=2, seed=5)
    _ingest_ring(elga)
    loads_before = elga.cluster.edge_loads()
    report = elga.rebalance({0: 3.0, 1: 0.3, 2: 0.3, 3: 0.3})
    assert report["migrate_messages"] > 0
    assert elga.cluster.consistent()
    for agent in elga.cluster.agents.values():
        assert agent.dstate.weights == {0: 3.0, 1: 0.3, 2: 0.3, 3: 0.3}
        assert agent.perf.counts["rebalance_adoptions"] == 1
        assert agent.placer.ring.weight_of(0) == 3.0
    loads_after = elga.cluster.edge_loads()
    # Edges followed the weights: agent 0 gained resident edges.
    assert loads_after[0] > loads_before[0]
    assert sum(loads_after.values()) == sum(loads_before.values())


def test_adopted_weights_survive_lead_failover():
    elga = ElGA(
        nodes=2,
        agents_per_node=2,
        seed=3,
        n_directories=3,
        dir_lease_interval=2e-3,
        dir_lease_timeout=6e-3,
        heartbeat_interval=0.005,
        lease_timeout=0.025,
        checkpoint_every=2,
    )
    us, vs, _ = powerlaw_graph(60, 240, alpha=2.2, seed=7)
    elga.ingest_edges(us, vs)
    elga.rebalance({0: 1.6, 2: 0.7})
    result = elga.run(PageRank(max_iters=10), crash_plan={3: {"lead": True}})
    assert result.steps == 10
    cluster = elga.cluster
    assert cluster.lead.index == 1 and cluster.lead.term == 1
    # The successor rebuilt its weight book from the replicated state:
    # the adopted plan is still in force under the new term.
    assert cluster.current_weights() == {0: 1.6, 1: 1.0, 2: 0.7, 3: 1.0}
    # And further plans adopt cleanly under the new lead.
    elga.rebalance({0: 1.0, 2: 1.0})
    assert cluster.current_weights() == {i: 1.0 for i in range(4)}


def test_config_knobs_validated():
    with pytest.raises(ValueError):
        ClusterConfig(nodes=1, agents_per_node=1, rebalance_skew_threshold=0.5)
