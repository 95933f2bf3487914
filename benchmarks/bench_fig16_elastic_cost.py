"""Figure 16 — the cost of adding and removing one Agent.

(a) The percent of edges moved when one Agent joins and then a random
one leaves; (b) the total time for the add + remove cycle.  The paper
(starting from 2048 Agents): only a small fraction of edges moves —
consistent hashing's promise — so "ElGA can elastically scale as needed
without incurring significant overheads".
"""

import numpy as np

from benchmarks.common import build_engine, dataset_edges
from repro.bench import Table, print_experiment_header
from repro.net.message import PacketType

GRAPHS = ["twitter-2010", "uk-2007-05", "livejournal", "gowalla", "pokec-x1000"]
NODES = 8
AGENTS_PER_NODE = 4  # 32 agents (the paper's 2048, scaled with the cluster)


def migrated_edges(cluster, before):
    after = cluster.network.stats.by_type_bytes[PacketType.EDGE_MIGRATE]
    return cluster.network.stats.by_type_count[PacketType.EDGE_MIGRATE], after - before


def run_experiment():
    rows = []
    for name in GRAPHS:
        us, vs, _ = dataset_edges(name, scale=0.3)
        elga = build_engine(us, vs, nodes=NODES, agents_per_node=AGENTS_PER_NODE, seed=16)
        cluster = elga.cluster
        resident = cluster.total_resident_edges()

        moved_before = sum(a.metrics.edges_migrated for a in cluster.agents.values())
        t0 = cluster.kernel.now
        new_agent = cluster.add_agent()
        t_add = cluster.kernel.now - t0
        moved_add = (
            sum(a.metrics.edges_migrated for a in cluster.agents.values()) - moved_before
        )

        rng = np.random.default_rng(17)
        victim_id = int(
            rng.choice([a for a in sorted(cluster.agents) if a != new_agent.agent_id])
        )
        victim = cluster.agents[victim_id]  # keep a handle: it leaves the dict
        moved_before = victim.metrics.edges_migrated + sum(
            a.metrics.edges_migrated for a in cluster.agents.values() if a is not victim
        )
        t0 = cluster.kernel.now
        cluster.remove_agent(victim_id)
        t_remove = cluster.kernel.now - t0
        moved_remove = (
            victim.metrics.edges_migrated
            + sum(a.metrics.edges_migrated for a in cluster.agents.values())
            - moved_before
        )

        rows.append(
            {
                "graph": name,
                "resident": resident,
                "pct_add": 100.0 * moved_add / resident,
                "pct_remove": 100.0 * moved_remove / resident,
                "t_total": t_add + t_remove,
            }
        )
        assert cluster.total_resident_edges() == resident  # nothing lost
    return rows


def test_fig16_elastic_cost(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 16", f"cost of adding then removing one Agent (from {NODES * AGENTS_PER_NODE})"
    )
    table = Table(["graph", "resident edges", "% moved (add)", "% moved (remove)", "add+remove s"])
    for r in rows:
        table.add_row(
            r["graph"],
            r["resident"],
            f"{r['pct_add']:.2f}%",
            f"{r['pct_remove']:.2f}%",
            r["t_total"],
        )
    table.show()

    P = NODES * AGENTS_PER_NODE
    for r in rows:
        # Consistent hashing: one membership change moves on the order
        # of 1/P of the edges, never a wholesale reshuffle.
        assert r["pct_add"] < 100.0 / P * 5, r["graph"]
        assert 0 < r["pct_remove"] < 100.0 / P * 5, r["graph"]
        # The whole cycle completes in simulated milliseconds.
        assert r["t_total"] < 1.0, r["graph"]
