"""The Participant contract, once, for every kind that subscribes to a
Directory: Agents, Streamers and ClientProxies share one door (term
fence + dispatch table), one ``(term, version)`` state fence, one
placement binding and one re-home machine
(:mod:`repro.cluster.participant`).  Each case runs against all three.
"""

import collections

import numpy as np
import pytest

from repro.cluster import Agent, ClientProxy, ClusterConfig, ElGACluster, Streamer
from repro.cluster.directory import DirectoryState
from repro.core import PageRank
from repro.graph import EdgeBatch
from repro.net.message import Message, PacketType

pytestmark = [pytest.mark.ctrlplane]

KINDS = ["agent", "streamer", "client"]


def make(kind):
    """A three-directory cluster and one participant of ``kind`` homed
    on directory 1 (not the lead)."""
    cluster = ElGACluster(ClusterConfig(nodes=2, agents_per_node=2, seed=1, n_directories=3))
    if kind == "agent":
        participant = cluster.agents[1]
    else:
        new = cluster.new_streamer if kind == "streamer" else cluster.new_client
        new()
        participant = new()
    assert participant.directory_address == cluster.directories[1].address
    return cluster, participant


def state_like(held, **changes):
    fields = dict(
        version=held.version, batch_id=held.batch_id, agents=held.agents, sketch=held.sketch,
        split_vertices=held.split_vertices, weights=held.weights, epoch=held.epoch,
        term=held.term,
    )
    fields.update(changes)
    return DirectoryState(**fields)


def update(state):
    return Message(ptype=PacketType.DIRECTORY_UPDATE, payload=state, term=state.term)


@pytest.mark.parametrize("kind", KINDS)
def test_stale_term_message_is_dropped_and_counted(kind):
    cluster, p = make(kind)
    p.term = 2
    held, bound = p.dstate, p.placer._placer
    drops = cluster.totals()["stale_term_drops"]
    p.handle_message(update(state_like(held, version=held.version + 100, term=1)))
    assert cluster.totals()["stale_term_drops"] == drops + 1
    assert p.dstate is held and p.placer._placer is bound
    assert p.term == 2


@pytest.mark.parametrize("kind", KINDS)
def test_state_at_or_below_the_fence_is_ignored(kind):
    cluster, p = make(kind)
    held, bound = p.dstate, p.placer._placer
    for version in (held.version, held.version - 1):
        p.handle_message(update(state_like(held, version=version)))
        assert p.dstate is held and p.placer._placer is bound
    assert cluster.totals()["stale_term_drops"] == 0


@pytest.mark.parametrize("kind", KINDS)
def test_higher_term_wins_over_a_higher_version_and_rebinds_placement(kind):
    cluster, p = make(kind)
    held = p.dstate
    assert held.term == 0 and held.version >= 2
    survivors = {aid: addr for aid, addr in held.agents.items() if aid != 0}
    elected = state_like(held, version=1, agents=survivors, epoch=(1, 0, 0, 0), term=1)
    p.handle_message(update(elected))
    assert p.dstate is elected and p.term == 1
    assert p.placer.epoch == elected.epoch
    assert p.placer.ring.members() == sorted(survivors)
    # The deposed lead's straggler loses at the door, whatever its version.
    p.handle_message(update(state_like(held, version=held.version + 100)))
    assert p.dstate is elected
    assert cluster.totals()["stale_term_drops"] == 1


@pytest.mark.parametrize("kind", KINDS)
def test_dead_home_is_left_through_the_master_even_if_it_is_down_too(kind):
    cluster, p = make(kind)
    identity = (p.name, p.address, p.perf)
    dead = p.directory_address
    cluster.crash_master()
    cluster.crash_directory(1)
    assert p.home_lost()
    # Master down: the cycle backs off and keeps asking.
    cluster.kernel.run(until=cluster.kernel.now + 0.02)
    assert p._rehome_pending and p._rehome_attempts >= 2
    assert p.directory_address == dead
    cluster.restart_master()
    live = [d.address for d in cluster.directories if d.index != 1]
    for address in live:
        cluster.master.register_directory(address)
    cluster.settle()
    assert not p._rehome_pending
    assert p.directory_address in live and not p.home_lost()
    assert (p.name, p.address, p.perf) == identity
    # Subscribed at the new home: the next broadcast is adopted.
    cluster.add_agent()
    assert p.dstate.fence == cluster.lead.state.fence
    assert len(p.placer.ring) == 5


@pytest.mark.parametrize("kind", KINDS)
def test_unknown_packet_type_raises(kind):
    _, p = make(kind)
    with pytest.raises(ValueError, match="unexpected HEARTBEAT"):
        p.handle_message(Message(ptype=PacketType.HEARTBEAT, payload={"agent_id": 0}))


def test_dispatch_tables_are_exactly_what_each_kind_is_sent(monkeypatch):
    """Walk the three fingerprint scenarios, then serve and re-home on
    the failed-over cluster: every row of every table is delivered at
    least once, and nothing arrives that has no row."""
    from tests.integration import test_fingerprint as fingerprint

    seen = collections.defaultdict(set)
    for cls in (Agent, Streamer, ClientProxy):
        def tapped(self, message, _deliver=cls.handle_message, _seen=seen[cls]):
            _seen.add(message.ptype)
            _deliver(self, message)

        monkeypatch.setattr(cls, "handle_message", tapped)

    fingerprint._scenario()
    fingerprint._restart_scenario()
    elga, _, _ = fingerprint._failover_scenario()
    cluster = elga.cluster
    # Directory 0 died mid-run with streamer-0 homed on it: the next
    # ingest re-homes the streamer.
    elga.apply_batch(EdgeBatch.insertions(np.array([1, 2]), np.array([3, 4])))
    # A proxy is served, loses its home directory, and re-homes from
    # its next query.
    proxy = cluster.new_client()
    elga.run(PageRank(max_iters=2))
    proxy.query(1, "pagerank")
    cluster.settle()
    home = next(d for d in cluster.directories if d.address == proxy.directory_address)
    cluster.crash_directory(home.index)
    proxy.query(2, "pagerank")
    cluster.settle()
    assert cluster.network.is_attached(proxy.directory_address)

    for cls in (Agent, Streamer, ClientProxy):
        assert seen[cls] == set(cls._DISPATCH), cls.__name__
