"""Directory edge cases and misuse guards."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.net.message import Message, PacketType


def make_cluster(**kw):
    defaults = dict(nodes=2, agents_per_node=2, seed=44)
    defaults.update(kw)
    return ElGACluster(ClusterConfig(**defaults))


def test_non_lead_cannot_originate_control_broadcasts():
    c = make_cluster(n_directories=2)
    with pytest.raises(RuntimeError):
        c.directories[1].send_advance({"round": 1})
    with pytest.raises(RuntimeError):
        c.directories[1].send_run_start({})


def test_non_lead_rejects_ready_rebroadcast_delivery():
    c = make_cluster(n_directories=2)
    msg = Message(
        ptype=PacketType.READY_REBROADCAST,
        payload={"agent_id": 0, "round": 0, "step": 0, "stats": {}},
    )
    msg.src = c.lead.address
    msg.dst = c.directories[1].address
    with pytest.raises(RuntimeError):
        c.directories[1].handle_message(msg)


def test_unexpected_packet_rejected():
    c = make_cluster()
    msg = Message(ptype=PacketType.CLIENT_QUERY, payload={"vertex": 0, "program": "wcc", "token": 1})
    msg.src = 0
    msg.dst = c.lead.address
    with pytest.raises(ValueError):
        c.lead.handle_message(msg)


def test_master_rejects_unexpected_packets():
    c = make_cluster()
    msg = Message(
        ptype=PacketType.AGENT_READY, payload={"agent_id": 0, "round": 0, "step": 0, "stats": {}}
    )
    msg.src = 0
    msg.dst = c.master.address
    with pytest.raises(ValueError):
        c.master.handle_message(msg)


def test_master_with_no_directories_replies_retry_after():
    """An empty registry is a bootstrap race, not a crash: the master
    answers DIRECTORY_ASSIGN with a retry hint instead of raising."""
    from repro.cluster.directory import DirectoryMaster
    from repro.net import Network
    from repro.sim import SimKernel
    from repro.sim.entity import Entity

    class Sink(Entity):
        def __init__(self, network):
            super().__init__(network, "sink", 0)
            self.got = []

        def handle_message(self, message):
            self.got.append(message)

    kernel = SimKernel()
    network = Network(kernel)
    master = DirectoryMaster(network)
    sink = Sink(network)
    msg = Message(ptype=PacketType.DIRECTORY_QUERY, request_id=1)
    msg.src = sink.address
    msg.dst = master.address
    master.handle_message(msg)
    kernel.run_until_idle()
    assert [m.ptype for m in sink.got] == [PacketType.DIRECTORY_ASSIGN]
    assert sink.got[0].payload == {"retry_after": master.retry_after}


def test_sketch_broadcast_is_throttled():
    """Sketch-only changes batch into at most one broadcast per
    interval; membership changes broadcast immediately."""
    c = make_cluster(sketch_broadcast_interval=10.0)
    version_before = c.lead.state.version
    agent = c.agents[0]
    for _ in range(5):
        agent.shard.sketch_delta.add(np.array([1]))
        agent.flush_sketch()
    c.settle()
    # Several deltas, at most one sketch broadcast fired so far.
    assert c.lead.state.version <= version_before + 1


def test_duplicate_split_report_is_idempotent():
    c = make_cluster()
    agent = c.agents[0]
    for _ in range(3):
        agent.push.push(agent.directory_address, PacketType.SPLIT_REPORT, np.array([55]))
    c.settle()
    c.lead.flush_sketch_broadcast()
    c.settle()
    version = c.lead.state.version
    # Re-reporting an already-registered vertex causes no new broadcast.
    agent.push.push(agent.directory_address, PacketType.SPLIT_REPORT, np.array([55]))
    c.settle()
    c.lead.flush_sketch_broadcast()
    c.settle()
    assert c.lead.state.version == version
    assert 55 in c.lead.state.split_vertices
