"""ClientProxy failover: pending queries survive an agent eviction.

A query routed at an agent that crashes before replying would hang
forever without help — the crashed endpoint never answers and the proxy
has no timeout.  Instead the proxy reacts to the directory's
post-eviction epoch broadcast: any in-flight query whose target left
the membership is re-issued to the vertex's owner under the new ring.
"""

import numpy as np

from repro.core import ElGA, PageRank


def _build():
    elga = ElGA(nodes=2, agents_per_node=2, seed=11)
    rng = np.random.default_rng(3)
    us = rng.integers(0, 40, size=160)
    vs = rng.integers(0, 40, size=160)
    keep = us != vs
    elga.ingest_edges(us[keep], vs[keep])
    elga.run(PageRank(max_iters=4))
    return elga


def _vertex_owned_by(client, victim):
    """A non-split vertex deterministically routed at ``victim``."""
    split = client.dstate.split_vertices
    for v in range(40):
        if v in split:
            continue
        if client.placer.owner_of_vertex(v, rng=client.rng) == victim:
            return v
    raise AssertionError(f"no vertex owned by agent {victim}")


def test_pending_query_reissued_after_eviction():
    elga = _build()
    cluster = elga.cluster
    client = cluster.new_client()
    victim = sorted(cluster.agents)[0]
    vertex = _vertex_owned_by(client, victim)

    cluster.crash_agent(victim)
    out = []
    client.query(vertex, "pagerank", out.append)
    cluster.settle()
    # The target is dead: no reply, the query is parked in-flight.
    assert out == []
    assert client._pending
    assert client.perf.counts["client_queries_retried"] == 0

    # The failure detector's verdict, distilled: the lead evicts the
    # victim and broadcasts the shrunken membership.
    cluster.lead.confirm_eviction({"agent_id": victim, "evict": True})
    cluster.settle()

    assert client.perf.counts["client_queries_retried"] == 1
    assert len(out) == 1  # the re-issued query got answered
    assert not client._pending


def test_queries_to_live_agents_are_not_retried():
    elga = _build()
    cluster = elga.cluster
    client = cluster.new_client()
    victim = sorted(cluster.agents)[0]
    survivor = sorted(cluster.agents)[1]
    vertex = _vertex_owned_by(client, survivor)

    out = []
    client.query(vertex, "pagerank", out.append)
    cluster.settle()
    assert len(out) == 1  # answered before any membership change

    cluster.crash_agent(victim)
    cluster.lead.confirm_eviction({"agent_id": victim, "evict": True})
    cluster.settle()
    # Nothing was pending at the epoch change: no retries.
    assert client.perf.counts["client_queries_retried"] == 0


def test_fresh_queries_after_eviction_route_to_new_owner():
    elga = _build()
    cluster = elga.cluster
    client = cluster.new_client()
    victim = sorted(cluster.agents)[0]
    vertex = _vertex_owned_by(client, victim)

    cluster.crash_agent(victim)
    cluster.lead.confirm_eviction({"agent_id": victim, "evict": True})
    cluster.settle()

    out = []
    client.query(vertex, "pagerank", out.append)
    cluster.settle()
    assert len(out) == 1  # new ring, live owner, prompt answer
    assert client.perf.counts["client_queries_retried"] == 0  # first try hit a live agent
    assert client.placer.owner_of_vertex(vertex, rng=client.rng) != victim
