"""PerfCounters: monotone counts, snapshots and aggregation."""

from repro.bench.counters import PerfCounters, aggregate_counters


def test_snapshot_is_a_copy_of_the_counts():
    c = PerfCounters()
    c.add("hits", 3)
    snap = c.snapshot()
    assert snap == {"hits": 3}
    c.add("hits")
    assert snap == {"hits": 3}


def test_snapshot_clash_only_when_both_present():
    c = PerfCounters()
    c.add("build_s", 1)
    assert c.snapshot() == {"build_s": 1}  # any name is a plain count


def test_aggregate_sums_counts():
    a, b = PerfCounters(), PerfCounters()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y")
    total = aggregate_counters([a, b])
    assert total.counts == {"x": 3, "y": 1}
