"""Heterogeneous capacity weights — the §3.4.2 future-work extension.

"Future work could explore dynamically adjusting the number of virtual
agents over time based on memory or computation pressure or for
heterogeneous systems."  Implemented: an Agent joins with a capacity
weight that scales its virtual-position count on every participant's
ring, so a 2× machine claims ~2× the edges.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.core import ElGA, WCC
from repro.graph import EdgeBatch
from repro.hashing import ConsistentHashRing
from tests.conftest import reference_wcc


def test_ring_weight_scales_key_share():
    ring = ConsistentHashRing(virtual_factor=100)
    ring.add(0, weight=1.0)
    ring.add(1, weight=1.0)
    ring.add(2, weight=3.0)  # a 3x machine
    keys = np.arange(100_000, dtype=np.uint64)
    counts = np.bincount(ring.lookup(keys), minlength=3)
    share = counts / counts.sum()
    assert share[2] == pytest.approx(0.6, abs=0.08)  # 3 of 5 weight units
    assert ring.weight_of(2) == 3.0
    assert ring.weight_of(0) == 1.0


def test_ring_weight_validation():
    ring = ConsistentHashRing()
    with pytest.raises(ValueError):
        ring.add(0, weight=0)


def test_fractional_weight_gets_at_least_one_position():
    ring = ConsistentHashRing(virtual_factor=4)
    ring.add(0, weight=0.01)
    ring.add(1, weight=1.0)
    assert ring.lookup(12345) in {0, 1}


def test_weighted_agent_claims_proportional_edges():
    cluster = ElGACluster(ClusterConfig(nodes=2, agents_per_node=2, seed=40))
    heavy = cluster.add_agent(weight=4.0)
    rng = np.random.default_rng(0)
    us = rng.integers(0, 2000, 6000)
    vs = rng.integers(0, 2000, 6000)
    keep = us != vs
    cluster.ingest(EdgeBatch.insertions(us[keep], vs[keep]), n_streamers=2)
    loads = cluster.edge_loads()
    normal_mean = np.mean([loads[a] for a in loads if a != heavy.agent_id])
    # The weight-4 agent carries several times a normal agent's share.
    assert loads[heavy.agent_id] > 2.5 * normal_mean


def test_weights_propagate_via_directory_broadcast():
    cluster = ElGACluster(ClusterConfig(nodes=1, agents_per_node=2, seed=41))
    heavy = cluster.add_agent(weight=2.5)
    state = cluster.lead.state
    assert state.weights.get(heavy.agent_id) == 2.5
    # Every participant's ring honors the broadcast weight.
    for agent in cluster.agents.values():
        assert agent.placer.ring.weight_of(heavy.agent_id) == 2.5


def test_weight_cleared_on_leave():
    cluster = ElGACluster(ClusterConfig(nodes=1, agents_per_node=2, seed=42))
    heavy = cluster.add_agent(weight=2.0)
    cluster.remove_agent(heavy.agent_id)
    assert heavy.agent_id not in cluster.lead.state.weights


def test_algorithms_correct_on_heterogeneous_cluster():
    elga = ElGA(nodes=2, agents_per_node=2, seed=43)
    elga.cluster.add_agent(weight=3.0)
    us = np.arange(200)
    vs = (np.arange(200) + 7) % 200
    elga.ingest_edges(us, vs)
    result = elga.run(WCC())
    ref, _ = reference_wcc(us, vs)
    assert {v: int(x) for v, x in result.values.items()} == ref
    assert elga.validate_against_reference()
