"""The split-vertex (replica) protocol, end to end (§3.4)."""

import numpy as np
import pytest

from repro.core import ElGA, DegreeCount, PageRank, WCC
from repro.graph import EdgeBatch


@pytest.fixture()
def star_engine():
    """A hub vertex (0) with enough degree to split several ways."""
    elga = ElGA(nodes=2, agents_per_node=4, seed=22, replication_threshold=15)
    spokes = np.arange(1, 61)
    us = np.concatenate([np.zeros(60, dtype=np.int64), spokes])
    vs = np.concatenate([spokes, np.zeros(60, dtype=np.int64)])
    elga.ingest_edges(us, vs)
    return elga


def hub_replicas(elga, vertex=0):
    agent = elga.cluster.agents[sorted(elga.cluster.agents)[0]]
    k = int(agent.placer.replication_factor(vertex)[0])
    return agent.placer.ring.successors(vertex, k)


def test_hub_is_registered_and_split(star_engine):
    assert 0 in star_engine.cluster.lead.state.split_vertices
    replicas = hub_replicas(star_engine)
    assert len(replicas) > 1


def test_hub_edges_spread_over_replicas_only(star_engine):
    replicas = set(hub_replicas(star_engine))
    holders = {
        aid
        for aid, a in star_engine.cluster.agents.items()
        if 0 in a.shard.out_store or 0 in a.shard.in_store
    }
    assert holders <= replicas
    assert len(holders) > 1


def test_all_participants_agree_on_primary(star_engine):
    primaries = {
        a.placer.replica_set(0)[0] for a in star_engine.cluster.agents.values()
    }
    assert len(primaries) == 1


def test_split_vertex_aggregation_exact(star_engine):
    """DegreeCount across a split hub: partials from every replica must
    combine to the exact global in-degree."""
    result = star_engine.run(DegreeCount())
    assert result.values[0] == 60.0  # hub in-degree
    for spoke in range(1, 61):
        assert result.values[spoke] == 1.0


def test_split_vertex_outdegree_totals(star_engine):
    """PageRank divides by the *global* out-degree of a split vertex;
    the replica degree-sync must produce it on every replica."""
    result = star_engine.run(PageRank(max_iters=2, tol=1e-15))
    # Closed form for the star: each spoke's only in-neighbor is the
    # hub, whose out-degree is 60 *summed across replicas*.  A replica
    # scattering with its local partial out-degree would inflate every
    # spoke.
    n = star_engine.global_n  # 61
    d, base = 0.85, 0.15 / 61
    hub_1 = base + d * 60 * (1.0 / n)       # hub after apply 1
    spoke_2 = base + d * hub_1 / 60.0       # spoke after apply 2
    assert result.values[1] == pytest.approx(spoke_2, abs=1e-12)
    spokes = [result.values[v] for v in range(1, 61)]
    assert max(spokes) - min(spokes) < 1e-15  # all spokes identical


def test_replica_values_identical_across_replicas(star_engine):
    star_engine.run(WCC())
    values = {
        aid: a.shard.programs["wcc"].values.get(0)
        for aid, a in star_engine.cluster.agents.items()
        if "wcc" in a.shard.programs and 0 in a.shard.programs["wcc"].values
    }
    assert len(set(values.values())) == 1


def test_replication_factor_grows_with_degree():
    # A headroom threshold so k stays below the cluster-size cap.
    elga = ElGA(nodes=2, agents_per_node=4, seed=23, replication_threshold=40)
    spokes = np.arange(1, 61)
    elga.ingest_edges(
        np.concatenate([np.zeros(60, dtype=np.int64), spokes]),
        np.concatenate([spokes, np.zeros(60, dtype=np.int64)]),
    )
    k_before = len(hub_replicas(elga))
    assert k_before > 1
    more = np.arange(100, 200)
    elga.apply_batch(EdgeBatch.insertions(np.zeros(100, dtype=np.int64), more))
    k_after = len(hub_replicas(elga))
    assert k_after > k_before
    # Results stay exact after the growth.
    result = elga.run(DegreeCount())
    assert result.values[0] == 60.0  # in-degree unchanged (we added out-edges)


def test_split_protocol_message_types_present(star_engine):
    from repro.net.message import PacketType

    star_engine.run(PageRank(max_iters=2, tol=1e-15))
    stats = star_engine.cluster.network.stats
    assert stats.by_type_count[PacketType.REPLICA_SYNC] > 0
    assert stats.by_type_count[PacketType.REPLICA_VALUE] > 0
