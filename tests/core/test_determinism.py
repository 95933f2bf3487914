"""Simulation determinism: the property the harness rests on.

Every result, simulated timestamp, and message count must replay
bit-identically from a seed — including under elastic churn — because
the benchmark tables are only meaningful if reruns reproduce them.
"""

from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph
from repro.graph import EdgeBatch


def _full_scenario(seed):
    us, vs, n = powerlaw_graph(500, 5000, alpha=2.2, seed=90)
    elga = ElGA(nodes=2, agents_per_node=3, seed=seed, replication_threshold=300)
    elga.ingest_edges(us, vs, n_streamers=2)
    pr = elga.run(PageRank(max_iters=4, tol=1e-15), scale_plan={2: 10})
    elga.apply_batch(EdgeBatch.insertions([n + 1, n + 2], [0, 1]))
    wcc = elga.run(WCC(), incremental=True)
    elga.scale_to(4)
    return {
        "pr_values": tuple(sorted(pr.values.items())),
        "pr_time": pr.sim_seconds,
        "wcc_values": tuple(sorted(wcc.values.items())),
        "sim_now": elga.cluster.kernel.now,
        "events": elga.cluster.kernel.events_processed,
        "messages": elga.cluster.network.stats.messages_sent,
        "bytes": elga.cluster.network.stats.bytes_sent,
    }


def test_identical_seed_identical_everything():
    a = _full_scenario(seed=7)
    b = _full_scenario(seed=7)
    assert a == b  # values, times, event and byte counts — everything


def test_different_seed_different_timing_same_results():
    """Seeds change entity randomness (and hence placement and message
    grouping), but algorithm results are seed-independent — exactly for
    WCC (integral labels), to summation-order rounding for PageRank."""
    a = _full_scenario(seed=7)
    b = _full_scenario(seed=8)
    pa, pb = dict(a["pr_values"]), dict(b["pr_values"])
    assert set(pa) == set(pb)
    assert all(abs(pa[v] - pb[v]) < 1e-12 for v in pa)
    assert a["wcc_values"] == b["wcc_values"]


def test_timing_is_wall_clock_independent():
    """Simulated time comes from cost models only: re-running the same
    scenario gives the same per-step durations to the last bit."""
    us, vs, n = powerlaw_graph(400, 4000, alpha=2.2, seed=91)

    def durations():
        elga = ElGA(nodes=2, agents_per_node=2, seed=9)
        elga.ingest_edges(us, vs)
        return elga.run(PageRank(max_iters=5, tol=1e-15)).round_durations

    assert durations() == durations()
