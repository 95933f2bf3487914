"""Streamer flow control and completion."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.graph import EdgeBatch


def make_cluster():
    return ElGACluster(ClusterConfig(nodes=2, agents_per_node=2, seed=9))


def test_completion_callback_fires_at_ack_time():
    c = make_cluster()
    s = c.new_streamer()
    done = []
    start = c.kernel.now
    s.stream_batch(EdgeBatch.insertions(np.arange(10), np.arange(10) + 100), done.append)
    c.settle()
    assert len(done) == 1
    assert done[0] > start  # took simulated time


def test_empty_batch_completes_immediately():
    c = make_cluster()
    s = c.new_streamer()
    done = []
    s.stream_batch(EdgeBatch.insertions([], []), done.append)
    c.settle()
    assert len(done) == 1


def test_busy_streamer_rejects_second_batch():
    c = make_cluster()
    s = c.new_streamer()
    s.stream_batch(EdgeBatch.insertions([0], [1]))
    assert s.busy
    with pytest.raises(RuntimeError):
        s.stream_batch(EdgeBatch.insertions([2], [3]))
    c.settle()
    assert not s.busy


def test_streamer_without_state_rejects():
    c = make_cluster()
    s = c.new_streamer()
    s.placer = None
    with pytest.raises(RuntimeError):
        s.stream_batch(EdgeBatch.insertions([0], [1]))


def test_counters_track_traffic():
    c = make_cluster()
    s = c.new_streamer()
    s.stream_batch(EdgeBatch.insertions(np.arange(25), np.arange(25) + 50))
    c.settle()
    assert s.edges_sent == 25
    assert s.edges_acked == 50  # out-copy + in-copy acks


def test_parallel_streamers_partition_work():
    c = make_cluster()
    batch = EdgeBatch.insertions(np.arange(100), (np.arange(100) + 1) % 100)
    report = c.ingest(batch, n_streamers=4)
    assert len(c.streamers) == 4
    assert report["edges"] == 100
    assert c.total_resident_edges() == 200


def test_insertion_rate_scales_with_agents():
    """More agents absorb a stream faster (the Figure 14 shape)."""
    def rate(agents_per_node):
        c = ElGACluster(ClusterConfig(nodes=2, agents_per_node=agents_per_node, seed=9))
        rng = np.random.default_rng(1)
        us = rng.integers(0, 500, 4000)
        vs = rng.integers(0, 500, 4000)
        keep = us != vs
        report = c.ingest(EdgeBatch.insertions(us[keep], vs[keep]), n_streamers=2)
        return report["edges_per_second"]

    assert rate(4) > rate(1)


def test_streamer_fences_directory_states_by_term_then_version():
    """A freshly elected lead's first broadcast may carry a lower
    version than the dead lead's last one; its higher term must win at
    the streamer as it does at every agent, or the streamer keeps
    routing by the dead lead's membership."""
    from repro.cluster.directory import DirectoryState

    c = make_cluster()
    s = c.new_streamer()
    c.settle()
    held = s.dstate
    assert held.term == 0 and held.version >= 2
    survivors = {aid: addr for aid, addr in held.agents.items() if aid != 0}
    elected = DirectoryState(
        1, held.batch_id, survivors, held.sketch, frozenset(), epoch=(1, 0, 0, 0), term=1
    )
    s._on_directory_update(elected)
    assert s.dstate is elected
    agent = c.agents[1]
    agent._on_directory_update(elected)
    assert agent.dstate is elected  # the same verdict as an Agent's
    s._on_directory_update(held)  # the deposed lead's straggler loses, whatever its version
    assert s.dstate is elected
