"""ClientProxy serving behavior: coalescing, admission, accounting.

Also the regression tests for the proxy accounting bug class this PR
fixes: the latency and pending buffers are bounded, a failover-retried
query contributes exactly ONE latency sample (measured from first
accept — retries lengthen the sample, they don't duplicate it), and
proxy-internal flight state drains to empty after every burst.
"""

import numpy as np
import pytest

from repro.cluster.client import SHED_RETRY_AFTER
from repro.core import ElGA, WCC
from repro.net.message import PacketType

pytestmark = pytest.mark.serving


def _engine(**overrides) -> ElGA:
    elga = ElGA(nodes=2, agents_per_node=2, seed=10, **overrides)
    us = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    vs = np.array([1, 2, 3, 4, 5, 6, 7, 0])
    elga.ingest_edges(us, vs)
    elga.run(WCC())
    return elga


def test_same_key_burst_coalesces_into_one_fanout():
    elga = _engine()
    client = elga.cluster.new_client()
    stats = elga.cluster.network.stats
    queries_before = stats.by_type_count[PacketType.CLIENT_QUERY]
    out = []
    for _ in range(20):
        assert client.query(3, "wcc", out.append) == 0.0
    elga.cluster.settle()
    assert len(out) == 20 and set(out) == {0.0}
    assert client.perf.counts["client_queries_coalesced"] == 19
    assert client.perf.counts["client_fanouts_dispatched"] == 1
    # One wire message for the whole burst (vertex 3 is unsplit).
    assert stats.by_type_count[PacketType.CLIENT_QUERY] - queries_before == 1
    # Every waiter got its own latency sample.
    assert len(client.latencies) == 20


def test_coalescing_disabled_sends_one_fanout_per_query():
    elga = _engine(serving_coalesce_window=0.0, serving_cache_ttl=0.0)
    client = elga.cluster.new_client()
    stats = elga.cluster.network.stats
    queries_before = stats.by_type_count[PacketType.CLIENT_QUERY]
    out = []
    for _ in range(5):
        client.query(3, "wcc", out.append)
    elga.cluster.settle()
    assert len(out) == 5
    assert client.perf.counts["client_queries_coalesced"] == 0
    assert client.perf.counts["client_fanouts_dispatched"] == 5
    assert stats.by_type_count[PacketType.CLIENT_QUERY] - queries_before == 5


def test_admission_control_sheds_with_retry_after():
    elga = _engine(serving_max_inflight=4)
    client = elga.cluster.new_client()
    out = []
    verdicts = [client.query(v, "wcc", out.append) for v in range(8)]
    accepted = [v for v in verdicts if v == 0.0]
    shed = [v for v in verdicts if v > 0.0]
    assert len(accepted) == 4 and len(shed) == 4
    assert all(v == SHED_RETRY_AFTER for v in shed)
    assert client.perf.counts["client_queries_shed"] == 4
    elga.cluster.settle()
    assert len(out) == 4  # shed queries never deliver
    # Capacity freed: a resubmit is admitted and answered.
    assert client.query(5, "wcc", out.append) == 0.0
    elga.cluster.settle()
    assert len(out) == 5


def test_latency_buffer_is_bounded():
    elga = _engine(serving_latency_window=8, serving_cache_ttl=0.0)
    client = elga.cluster.new_client()
    out = []
    for v in range(20):
        client.query(v % 8, "wcc", out.append)
        elga.cluster.settle()
    assert len(out) == 20
    assert len(client.latencies) == 8          # ring bounded
    assert client.perf.counts["client_queries_delivered"] == 20  # nothing lost to accounting
    assert client.latencies.maxlen == 8


def test_proxy_internal_state_drains_after_burst():
    """The unbounded-buffer regression: after any burst, every internal
    table (_pending, _flights, _by_token) is empty again."""
    elga = _engine()
    client = elga.cluster.new_client()
    for v in range(30):
        client.query(v % 8, "wcc", lambda _: None)
    elga.cluster.settle()
    assert not client._pending
    assert not client._flights
    assert not client._by_token
    assert not client._coalesce_buf


def test_failover_retry_records_one_latency_sample():
    """A query re-issued by failover is still ONE query: one delivery,
    one latency sample, measured from the first accept (the failover
    stall shows up in the sample instead of being reset away)."""
    elga = _engine()
    cluster = elga.cluster
    client = cluster.new_client()
    # Find a vertex owned solo by some agent, then crash that owner.
    state = client.dstate
    victim, vertex = None, None
    for v in range(8):
        if v in state.split_vertices:
            continue
        victim = client.placer.owner_of_vertex(v, rng=client.rng)
        vertex = v
        break
    assert victim is not None
    cluster.crash_agent(victim)
    out = []
    client.query(vertex, "wcc", out.append)
    cluster.settle()  # dispatched at the dead agent: no reply yet
    assert out == [] and client._pending
    samples_before = len(client.latencies)
    accepted_at = next(iter(client._pending.values())).accepted_at
    cluster.lead.confirm_eviction({"agent_id": victim, "evict": True})
    cluster.settle()
    assert len(out) == 1
    assert client.perf.counts["client_queries_retried"] == 1
    assert len(client.latencies) == samples_before + 1  # exactly one sample
    # The sample spans the whole failover, not just the retry leg.
    assert client.latencies[-1] >= elga.cluster.kernel.now - accepted_at - 1e-9


def test_serving_metrics_exported_via_prometheus():
    elga = _engine()
    elga.query(2, "wcc")
    text = elga.prometheus_text()
    assert "elga_client_queries_sent_total" in text
    assert "elga_serving_cache_hits_total" in text
    assert "elga_client_inflight" in text
    assert elga.serving_stats()["client_queries_sent"] == 1
