"""Eventual consistency: stale views, forwarding, out-of-order arrival."""

import numpy as np

from repro.cluster import ClusterConfig, ElGACluster
from repro.graph import EdgeBatch
from repro.net.message import PacketType


def make_cluster(**kw):
    defaults = dict(nodes=2, agents_per_node=2, seed=6)
    defaults.update(kw)
    return ElGACluster(ClusterConfig(**defaults))


def test_update_to_wrong_agent_is_forwarded_and_applied():
    c = make_cluster()
    streamer = c.new_streamer()
    # Deliberately misroute: send every change to one fixed agent.
    batch = EdgeBatch.insertions(np.arange(20), (np.arange(20) + 1) % 20)
    wrong = c.agents[sorted(c.agents)[0]]
    for role in ("out", "in"):
        payload = {
            "role": role,
            "actions": batch.actions,
            "us": batch.us,
            "vs": batch.vs,
            "reply_to": streamer.address,
            "token": 0,
        }
        streamer._outstanding += len(batch)
        streamer.push.push(wrong.address, PacketType.EDGE_UPDATE, payload)
    c.settle()
    assert streamer._outstanding == 0  # every edge acked end-to-end
    assert c.total_resident_edges() == 2 * len(batch)
    forwarded = sum(a.metrics.updates_forwarded for a in c.agents.values())
    assert forwarded > 0


def test_forwarded_edges_placed_correctly():
    c = make_cluster()
    streamer = c.new_streamer()
    batch = EdgeBatch.insertions(np.arange(30), (np.arange(30) + 5) % 30)
    wrong = c.agents[sorted(c.agents)[-1]]
    for role in ("out", "in"):
        payload = {
            "role": role,
            "actions": batch.actions,
            "us": batch.us,
            "vs": batch.vs,
            "reply_to": streamer.address,
            "token": 0,
        }
        streamer._outstanding += len(batch)
        streamer.push.push(wrong.address, PacketType.EDGE_UPDATE, payload)
    c.settle()
    for aid, agent in c.agents.items():
        keys, others = agent.shard.out_store.arrays()
        if len(keys):
            assert (agent.placer.owner_of_edges(keys, others) == aid).all()


def test_streamer_with_stale_view_still_completes():
    """A streamer that never saw the post-scale directory update routes
    to old owners; agents forward and everything lands."""
    c = make_cluster()
    streamer = c.new_streamer()
    stale_state = streamer.dstate
    c.scale_to(7)
    # Freeze the streamer on its stale view.
    streamer.dstate = stale_state
    streamer._on_directory_update(stale_state) if False else None
    done = []
    batch = EdgeBatch.insertions(np.arange(40), (np.arange(40) + 3) % 40)
    streamer.stream_batch(batch, on_complete=done.append)
    c.settle()
    assert done  # acked despite the stale view
    assert c.total_resident_edges() == 2 * len(batch)


def test_updates_buffered_during_run_and_applied_after():
    """'While a batch is running, the graph does not change: any edge
    changes are buffered.'"""
    from repro.core import ElGA, PageRank

    elga = ElGA(nodes=2, agents_per_node=2, seed=8)
    elga.ingest_edges(np.array([0, 1, 2]), np.array([1, 2, 0]))
    agent = elga.cluster.agents[0]
    # Simulate an update arriving mid-run by injecting a run state.
    from repro.core.program import RunSpec

    spec = RunSpec(run_id=99, program=PageRank(max_iters=1), global_n=3)
    agent._on_run_start(spec)
    payload = {
        "role": "out",
        "actions": np.array([1], dtype=np.int8),
        "us": np.array([5]),
        "vs": np.array([6]),
        "reply_to": -1,
        "token": 0,
    }
    agent._on_edge_update(payload, count_in_sketch=True)
    assert agent._buffered_updates  # held, not applied
    agent.finalize_run(persist=False)
    assert not agent._buffered_updates  # replayed at run end


def test_no_messages_dropped_in_steady_state():
    c = make_cluster()
    c.ingest(EdgeBatch.insertions(np.arange(100), (np.arange(100) + 1) % 100))
    assert c.network.stats.messages_dropped == 0
