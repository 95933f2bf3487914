"""Snapshot-consistent reads: no torn values across split replicas.

A split vertex lives on several agents; during a superstep those
replicas step through (run_id, step) snapshots with real skew between
their READY times.  The serving contract: a merged reply is delivered
only when every replica answered from the same snapshot (or with
bitwise-equal values); a torn fan-out is retried, never delivered.

The unit-level test injects a torn reply pair directly into the merge
path; the integration tests fire open queries throughout live
PageRank supersteps and ingest and check every delivered reply against
the per-snapshot ground truth recorded by the agents themselves.
"""

import numpy as np
import pytest

from repro.core import ElGA, PageRank, WCC

pytestmark = pytest.mark.serving


def _star_engine(**overrides) -> ElGA:
    """A hub-heavy graph whose hub (vertex 0) is split across agents."""
    elga = ElGA(
        nodes=2, agents_per_node=3, seed=11, replication_threshold=10, **overrides
    )
    star = np.arange(1, 40)
    elga.ingest_edges(np.zeros(39, dtype=np.int64), star)
    return elga


def test_split_vertex_fanout_targets_all_replicas():
    elga = _star_engine()
    elga.run(WCC())
    client = elga.cluster.new_client()
    assert 0 in client.dstate.split_vertices
    replicas = set(client.placer.replica_set(0))
    assert len(replicas) > 1
    out = []
    client.query(0, "wcc", out.append)
    elga.cluster.settle()
    assert out == [0.0]
    # The fan-out asked every replica, not a random one.
    assert client.perf.counts["client_replies_received"] >= len(replicas)


def test_torn_reply_pair_is_retried_not_delivered():
    """Inject two replies from different snapshots with different
    values straight into the merge path: the proxy must retry the
    fan-out rather than deliver either value."""
    elga = _star_engine(serving_cache_ttl=0.0)  # force a real fan-out
    elga.run(WCC())
    client = elga.cluster.new_client()
    out = []
    client.query(0, "wcc", out.append)
    client._flush_coalesced()  # dispatch now; race the replies by hand
    [flight] = client._flights.values()
    token = flight.token
    targets = sorted(flight.targets)
    assert len(targets) >= 2
    client._on_reply(
        {"vertex": 0, "value": 1.0, "token": token, "run_id": 7, "step": 2,
         "inc": 0, "agent_id": targets[0]}
    )
    for agent_id in targets[1:]:
        client._on_reply(
            {"vertex": 0, "value": 2.0, "token": token, "run_id": 7, "step": 3,
             "inc": 0, "agent_id": agent_id}
        )
    assert out == []                      # torn pair never delivered
    assert client.perf.counts["client_snapshot_retries"] == 1   # caught and counted
    elga.cluster.settle()                 # backoff elapses, re-fan-out
    assert out == [0.0]                   # consistent answer wins in the end
    assert not client._flights


def test_mixed_tags_equal_values_merge_cleanly():
    """READY-skew with bitwise-equal values is consistent by value and
    must not spin the retry loop."""
    elga = _star_engine()
    elga.run(WCC())
    client = elga.cluster.new_client()
    out = []
    client.query(0, "wcc", out.append)
    client._flush_coalesced()
    [flight] = client._flights.values()
    token = flight.token
    targets = sorted(flight.targets)
    for i, agent_id in enumerate(targets):
        client._on_reply(
            {"vertex": 0, "value": 5.0, "token": token, "run_id": 7, "step": 2 + i,
             "inc": 0, "agent_id": agent_id}
        )
    assert out == [5.0]
    assert client.perf.counts["client_snapshot_retries"] == 0
    assert client.perf.counts["client_snapshot_value_merges"] == 1


def test_queries_during_supersteps_never_torn():
    """Open queries throughout a live PageRank: every reply must match
    the hub's value at SOME single snapshot the agents actually
    published — a torn merge would match none of them."""
    elga = _star_engine(serving_cache_ttl=0.0)  # every query hits agents
    elga.run(PageRank(max_iters=6))  # seed the persistent store
    cluster = elga.cluster
    client = cluster.new_client()
    client.audit = []

    # Record the hub's value at every published snapshot, from every
    # replica's serving view, while the run below progresses (bounded
    # sampling schedule — a self-rescheduling probe would never idle).
    snapshots = {}

    def record():
        for agent in cluster.agents.values():
            view = agent._serving.get("pagerank")
            if view is None:
                continue
            ids, values, run_id, step = view
            idx = np.searchsorted(ids, 0)
            if idx < len(ids) and ids[idx] == 0:
                snapshots[(run_id, step)] = float(values[idx])

    out = []
    for i in range(40):
        cluster.kernel.schedule(
            1e-4 + i * 3e-4, lambda: client.query(0, "pagerank", out.append)
        )
    for i in range(200):
        cluster.kernel.schedule(i * 1e-4, record)
    result = elga.run(PageRank(max_iters=6))
    cluster.settle()

    assert len(out) == 40  # no query lost mid-run
    final = result.values[0]
    snapshots[("final", None)] = final
    legal = set(snapshots.values())
    for entry in client.audit:
        assert entry["value"] in legal, (
            f"torn read: {entry} matches no published snapshot {sorted(legal)}"
        )
    # The stream genuinely overlapped the run: some replies came from
    # live serving views rather than the persistent store.
    assert any(e["value"] != final for e in client.audit) or len(legal) == 1


def test_queries_during_ingest_are_answered_consistently():
    """Ingest churns placement (splits, sketches) while queries are in
    flight; every query still gets exactly one answer."""
    elga = _star_engine()
    elga.run(WCC())
    cluster = elga.cluster
    client = cluster.new_client()
    out = []
    for i in range(20):
        cluster.kernel.schedule(
            i * 2e-4, lambda v=i % 40: client.query(v, "wcc", out.append)
        )
    more = np.arange(40, 80)
    elga.ingest_edges(np.zeros(40, dtype=np.int64), more)
    cluster.settle()
    assert len(out) == 20
    assert not client._pending and not client._flights
