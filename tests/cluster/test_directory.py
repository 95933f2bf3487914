"""Directory system: bootstrap, membership, broadcast, sync."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.cluster.directory import DirectoryState
from repro.net.message import Message, PacketType
from repro.sketch import CountMinSketch


def make_cluster(**kw):
    defaults = dict(nodes=2, agents_per_node=2, seed=1)
    defaults.update(kw)
    return ElGACluster(ClusterConfig(**defaults))


def test_membership_reaches_all_agents():
    c = make_cluster()
    version = c.lead.state.version
    assert len(c.lead.state.agents) == 4
    for agent in c.agents.values():
        assert agent.dstate is not None
        assert agent.dstate.version == version
        assert set(agent.dstate.agents) == set(c.agents)


def test_broadcast_size_is_O_P_plus_sketch():
    """§3.3: the full broadcast is O(P + d·w)."""
    c = make_cluster()
    state = c.lead.state
    sketch_bytes = state.sketch.nbytes
    assert state.nbytes >= sketch_bytes
    assert state.nbytes - sketch_bytes < 1000  # small O(P) remainder


def test_version_monotonically_increases():
    c = make_cluster()
    v1 = c.lead.state.version
    c.add_agent()
    assert c.lead.state.version > v1


def test_batch_clock():
    c = make_cluster()
    b0 = c.lead.state.batch_id
    b1 = c.lead.advance_batch_clock()
    c.settle()
    assert b1 == b0 + 1
    for agent in c.agents.values():
        assert agent.dstate.batch_id == b1


def test_batch_clock_lead_only():
    c = make_cluster(n_directories=2)
    with pytest.raises(RuntimeError):
        c.directories[1].advance_batch_clock()


def test_directory_master_round_robin():
    c = make_cluster(n_directories=3)
    # Ask the master directly for assignments.
    answers = []

    class Probe:
        pass

    from repro.net.sockets import ReqRepSocket
    from repro.sim.entity import Entity

    class Client(Entity):
        def __init__(self, network):
            super().__init__(network, "probe")
            self.req = ReqRepSocket(self)

        def handle_message(self, message):
            if message.ptype == PacketType.DIRECTORY_ASSIGN:
                self.req.handle_reply(message)

    client = Client(c.network)
    for _ in range(6):
        client.req.request(
            c.master.address,
            PacketType.DIRECTORY_QUERY,
            on_reply=lambda m: answers.append(m.payload),
        )
        c.settle()
    directory_addresses = [d.address for d in c.directories]
    assert answers == directory_addresses * 2


def test_multiple_directories_stay_in_sync():
    c = make_cluster(n_directories=3)
    c.add_agent()
    versions = {d.state.version for d in c.directories}
    assert len(versions) == 1
    memberships = {tuple(d.state.agent_ids()) for d in c.directories}
    assert len(memberships) == 1


def test_sketch_deltas_merge_into_global():
    c = make_cluster()
    agent = c.agents[0]
    agent.shard.sketch_delta.add(np.array([42] * 10))
    agent.flush_sketch()
    c.settle()
    c.lead.flush_sketch_broadcast()
    c.settle()
    assert c.lead.state.sketch.query(42) >= 10
    # And the broadcast carried it to every participant.
    for a in c.agents.values():
        assert a.dstate.sketch.query(42) >= 10


def test_stale_sync_ignored():
    c = make_cluster(n_directories=2)
    follower = c.directories[1]
    current = follower.state.version
    stale = DirectoryState(
        version=current - 1,
        batch_id=0,
        agents={},
        sketch=CountMinSketch(16, 2),
        split_vertices=frozenset(),
        epoch=(0, 0, 0, 0),
    )
    msg = Message(ptype=PacketType.DIRECTORY_SYNC, payload=stale)
    msg.src = c.lead.address
    msg.dst = follower.address
    follower.handle_message(msg)
    assert follower.state.version == current


def test_split_report_enters_registry():
    c = make_cluster()
    agent = c.agents[0]
    agent.push.push(agent.directory_address, PacketType.SPLIT_REPORT, np.array([777]))
    c.settle()
    c.lead.flush_sketch_broadcast()
    c.settle()
    assert 777 in c.lead.state.split_vertices


def test_late_subscriber_receives_current_state():
    c = make_cluster()
    streamer = c.new_streamer()
    assert streamer.dstate is not None
    assert streamer.dstate.version == c.lead.state.version
