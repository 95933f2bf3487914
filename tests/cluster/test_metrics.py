"""Agent metrics collection."""

import numpy as np

from repro.cluster.metrics import AgentMetrics, combine_metrics
from repro.core import ElGA, PageRank


def test_snapshot_round_trip():
    m = AgentMetrics()
    m.edges_processed = 10
    m.queries_served = 3
    snap = m.snapshot()
    assert snap["edges_processed"] == 10
    assert snap["queries_served"] == 3
    assert snap["supersteps"] == 0


def test_combine_sums():
    a = AgentMetrics()
    a.messages_sent = 5
    b = AgentMetrics()
    b.messages_sent = 7
    total = combine_metrics([a.snapshot(), b.snapshot()])
    assert total["messages_sent"] == 12


def test_metrics_populated_by_real_run():
    elga = ElGA(nodes=2, agents_per_node=2, seed=12)
    us = np.arange(30)
    vs = (np.arange(30) + 1) % 30
    elga.ingest_edges(us, vs)
    elga.run(PageRank(max_iters=3, tol=1e-15))
    total = combine_metrics(a.metrics.snapshot() for a in elga.cluster.agents.values())
    assert total["updates_applied"] == 60  # both copies
    assert total["edges_processed"] > 0
    assert total["supersteps"] > 0


def test_metric_report_protocol_reaches_directory():
    """§3.4.3: metrics travel as METRIC_REPORT messages to Directories."""
    elga = ElGA(nodes=2, agents_per_node=2, seed=13)
    elga.ingest_edges(np.arange(20), (np.arange(20) + 1) % 20)
    store = elga.cluster.collect_metrics()
    assert set(store) == set(elga.cluster.agents)
    assert all(snap["updates_applied"] >= 0 for snap in store.values())
    total = sum(snap["updates_applied"] for snap in store.values())
    assert total == 40


def test_metric_reports_refresh():
    elga = ElGA(nodes=1, agents_per_node=2, seed=14)
    elga.ingest_edges(np.arange(10), (np.arange(10) + 1) % 10)
    first = elga.cluster.collect_metrics()
    elga.run(PageRank(max_iters=2, tol=1e-15))
    second = elga.cluster.collect_metrics()
    assert sum(s["supersteps"] for s in second.values()) > sum(
        s["supersteps"] for s in first.values()
    )


def test_snapshot_covers_every_dataclass_field():
    """Field-drift guard: a counter added to AgentMetrics must appear in
    snapshot() (and hence in METRIC_REPORTs and combine_metrics) without
    anyone remembering to update an export list."""
    from dataclasses import fields

    m = AgentMetrics()
    field_names = {f.name for f in fields(AgentMetrics)}
    assert set(m.snapshot()) == field_names
    # Every exported value tracks its attribute, not a stale copy.
    for name in field_names:
        setattr(m, name, 41)
    assert all(v == 41 for v in m.snapshot().values())


def test_combine_covers_every_dataclass_field():
    from dataclasses import fields

    a, b = AgentMetrics(), AgentMetrics()
    for f in fields(AgentMetrics):
        setattr(a, f.name, 1)
        setattr(b, f.name, 2)
    total = combine_metrics([a.snapshot(), b.snapshot()])
    assert set(total) == {f.name for f in fields(AgentMetrics)}
    assert all(v == 3 for v in total.values())


def _exposed_total(elga, metric):
    """Sum of one agent counter over every sample of the exposition."""
    from repro.obs.prom import engine_families

    (family,) = [f for f in engine_families(elga) if f.name == f"elga_{metric}_total"]
    return sum(value for _, value in family.samples)


def test_counters_do_not_leave_with_departing_agents():
    """A scale-down used to take the leavers' counters with them:
    summed over the live agents, ``edges_migrated`` read *negative*
    across a 24 -> 16 ``scale_to`` although every leaver had just
    migrated its whole shard.  Departed and crashed agents fold into the
    cluster's retired accumulators, which every reader that does not go
    through ``collect_metrics`` adds in."""
    elga = ElGA(nodes=2, agents_per_node=3, seed=15)
    rng = np.random.default_rng(15)
    elga.ingest_edges(rng.integers(0, 200, 600), rng.integers(200, 400, 600))
    migrated = [_exposed_total(elga, "edges_migrated")]
    applied = [_exposed_total(elga, "updates_applied")]
    hits = [elga.placement_counters().counts["placement_cache_hits"]]
    for target in (9, 4, 2, 5):
        elga.scale_to(target)
        migrated.append(_exposed_total(elga, "edges_migrated"))
        applied.append(_exposed_total(elga, "updates_applied"))
        hits.append(elga.placement_counters().counts["placement_cache_hits"])
    assert migrated == sorted(migrated) and migrated[-1] > migrated[0]
    assert applied == sorted(applied)
    assert hits == sorted(hits)
    # The scale-downs moved at least every edge the leavers held.
    assert migrated[2] - migrated[1] > 0 and migrated[3] - migrated[2] > 0
    cluster = elga.cluster
    live = combine_metrics(a.metrics.snapshot() for a in cluster.agents.values())
    assert cluster.retired_metrics["edges_migrated"] > 0
    assert (
        live["edges_migrated"] + cluster.retired_metrics["edges_migrated"] == migrated[-1]
    )
    assert 'elga_edges_migrated_total{agent="retired"}' in elga.prometheus_text()


def test_crashed_agent_counters_are_retired():
    elga = ElGA(nodes=2, agents_per_node=2, seed=16)
    elga.ingest_edges(np.arange(40), (np.arange(40) + 1) % 40)
    victim = elga.cluster.agents[1]
    applied = victim.metrics.updates_applied
    assert applied > 0
    elga.cluster.crash_agent(1)
    assert elga.cluster.retired_metrics["updates_applied"] == applied
    counts = elga.cluster.retired_perf.counts
    assert counts["placement_cache_misses"] == victim.perf.counts["placement_cache_misses"]
