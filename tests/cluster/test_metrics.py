"""Agent metrics: the agent's counter registry, METRIC_REPORT, and
cluster totals that outlive the entities that counted them."""

import numpy as np
import pytest

from repro.bench.counters import KIND_COUNTERS, PerfCounters
from repro.cluster.metrics import combine_metrics
from repro.core import ElGA, PageRank


def test_snapshot_round_trip():
    m = PerfCounters("agent")
    m.add("edges_processed", 10)
    m.add("queries_served", 3)
    snap = m.snapshot()
    assert snap["edges_processed"] == 10
    assert snap["queries_served"] == 3
    assert snap["supersteps"] == 0


def test_combine_sums():
    a, b = PerfCounters("agent"), PerfCounters("agent")
    a.add("messages_sent", 5)
    b.add("messages_sent", 7)
    total = combine_metrics([a.snapshot(), b.snapshot()])
    assert total["messages_sent"] == 12


def test_metrics_populated_by_real_run():
    elga = ElGA(nodes=2, agents_per_node=2, seed=12)
    us = np.arange(30)
    vs = (np.arange(30) + 1) % 30
    elga.ingest_edges(us, vs)
    elga.run(PageRank(max_iters=3, tol=1e-15))
    total = combine_metrics(a.perf.snapshot() for a in elga.cluster.agents.values())
    assert total["updates_applied"] == 60  # both copies
    assert total["edges_processed"] > 0
    assert total["supersteps"] > 0
    # Callers hand ``add`` Python ints: no numpy scalar leaks into a count.
    registries = elga.cluster.registries
    assert {type(v) for perf in registries for v in perf.counts.values()} == {int}


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


def test_snapshot_covers_every_declared_counter():
    """Shape guard: an agent's snapshot (what a METRIC_REPORT carries)
    holds every counter declared for agents from the start, and every
    value tracks the registry, not a stale copy."""
    m = PerfCounters("agent")
    assert list(m.snapshot()) == list(KIND_COUNTERS["agent"])
    for name in KIND_COUNTERS["agent"]:
        m.add(name, 41)
    assert all(v == 41 for v in m.snapshot().values())


def test_combine_covers_every_declared_counter():
    a, b = PerfCounters("agent"), PerfCounters("agent")
    for name in KIND_COUNTERS["agent"]:
        a.add(name, 1)
        b.add(name, 2)
    total = combine_metrics([a.snapshot(), b.snapshot()])
    assert set(total) == set(KIND_COUNTERS["agent"])
    assert all(v == 3 for v in total.values())


def test_agent_metrics_is_its_registry():
    elga = ElGA(nodes=1, agents_per_node=2, seed=14)
    elga.ingest_edges(np.arange(10), (np.arange(10) + 1) % 10)
    agent = elga.cluster.agents[0]
    assert agent.metrics is agent.perf
    assert agent.metrics.updates_applied == agent.perf.counts["updates_applied"] > 0
    with pytest.raises(AttributeError):
        agent.metrics.no_such_counter


def _exposed_total(elga, metric):
    """Sum of one agent counter over every sample of the exposition."""
    from repro.obs.prom import engine_families

    (family,) = [f for f in engine_families(elga) if f.name == f"elga_{metric}_total"]
    return sum(value for _, value in family.samples)


def test_counters_do_not_leave_with_departing_agents():
    """A scale-down used to take the leavers' counters with them:
    summed over the live agents, ``edges_migrated`` read *negative*
    across a 24 -> 16 ``scale_to`` although every leaver had just
    migrated its whole shard.  The cluster keeps every registry it
    created, so its totals and the exposition count the leavers too."""
    elga = ElGA(nodes=2, agents_per_node=3, seed=15)
    rng = np.random.default_rng(15)
    elga.ingest_edges(rng.integers(0, 200, 600), rng.integers(200, 400, 600))
    cluster = elga.cluster
    migrated = [_exposed_total(elga, "edges_migrated")]
    applied = [_exposed_total(elga, "updates_applied")]
    hits = [cluster.totals()["placement_cache_hits"]]
    for target in (9, 4, 2, 5):
        elga.scale_to(target)
        migrated.append(_exposed_total(elga, "edges_migrated"))
        applied.append(_exposed_total(elga, "updates_applied"))
        hits.append(cluster.totals()["placement_cache_hits"])
    assert migrated == sorted(migrated) and migrated[-1] > migrated[0]
    assert applied == sorted(applied)
    assert hits == sorted(hits)
    # The scale-downs moved at least every edge the leavers held.
    assert migrated[2] - migrated[1] > 0 and migrated[3] - migrated[2] > 0
    live = combine_metrics(a.perf.snapshot() for a in cluster.agents.values())
    assert cluster.totals()["edges_migrated"] == migrated[-1] > live["edges_migrated"]
    assert 'elga_edges_migrated_total{agent="retired"}' in elga.prometheus_text()


def test_crashed_agent_counters_are_retired():
    elga = ElGA(nodes=2, agents_per_node=2, seed=16)
    elga.ingest_edges(np.arange(40), (np.arange(40) + 1) % 40)
    cluster = elga.cluster
    victim = cluster.agents[1]
    assert victim.perf.counts["updates_applied"] > 0
    before = cluster.totals()
    cluster.crash_agent(1)
    # Nothing is merged at the crash: the victim's registry stays kept.
    assert any(perf is victim.perf for perf in cluster.registries)
    assert cluster.totals() == before


def test_totals_stay_monotone_across_departures_and_crashes(monkeypatch):
    elga = ElGA(
        nodes=2, agents_per_node=3, seed=15, n_directories=2,
        dir_lease_interval=2e-3, dir_lease_timeout=6e-3,
    )
    cluster = elga.cluster
    rng = np.random.default_rng(15)
    elga.ingest_edges(rng.integers(0, 200, 600), rng.integers(200, 400, 600))

    def unused():
        raise AssertionError("totals must not depend on departing_agents()")

    monkeypatch.setattr(cluster, "departing_agents", unused)
    seen = [cluster.totals()]
    cluster.scale_to(3)
    seen.append(cluster.totals())
    cluster.crash_agent()
    seen.append(cluster.totals())
    cluster.crash_directory()  # the lead
    assert cluster.lead.index == 1  # reading the lead pays the succession
    seen.append(cluster.totals())
    for before, after in zip(seen, seen[1:]):
        assert set(before) <= set(after)
        assert all(after[name] >= count for name, count in before.items())
    assert seen[1]["edges_migrated"] > seen[0]["edges_migrated"]
    assert seen[3]["lead_elections"] == seen[2]["lead_elections"] + 1
