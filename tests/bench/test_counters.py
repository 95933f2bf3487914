"""PerfCounters: declared names, monotone counts, snapshots and aggregation."""

import pytest

from repro.bench.counters import COUNTERS, ENTITIES, KIND_COUNTERS, PerfCounters, aggregate_counters


def test_snapshot_is_a_copy_of_the_counts():
    c = PerfCounters()
    c.add("edges_processed", 3)
    snap = c.snapshot()
    assert snap == {"edges_processed": 3}
    c.add("edges_processed")
    assert snap == {"edges_processed": 3}


def test_undeclared_counter_name_raises():
    # A typo must not become a new count nobody reads.
    with pytest.raises(KeyError, match="build_s"):
        PerfCounters().add("build_s", 1)
    # A declared name outside the registry's kind is refused too.
    with pytest.raises(KeyError, match="edges_migrated"):
        PerfCounters("client").add("edges_migrated")


def test_a_registry_starts_with_its_kinds_names_at_zero():
    for kind in ENTITIES:
        assert PerfCounters(kind).snapshot() == dict.fromkeys(KIND_COUNTERS[kind], 0)
    assert PerfCounters().snapshot() == {}
    # Every declared name is carried by some kind, and only by known kinds.
    assert {name for names in KIND_COUNTERS.values() for name in names} == set(COUNTERS)
    assert all(set(c.kinds) <= set(ENTITIES) and c.meaning for c in COUNTERS.values())


def test_aggregate_sums_counts():
    a, b = PerfCounters("agent"), PerfCounters("streamer")
    a.add("placement_cache_hits", 1)
    b.add("placement_cache_hits", 2)
    b.add("placement_cache_misses")
    total = aggregate_counters([a, b]).counts
    assert total["placement_cache_hits"] == 3
    assert total["placement_cache_misses"] == 1
    assert total["edges_processed"] == 0
    assert set(total) == set(KIND_COUNTERS["agent"]) | set(KIND_COUNTERS["streamer"])
