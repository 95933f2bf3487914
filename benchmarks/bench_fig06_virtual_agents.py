"""Figure 6 — load balance vs. virtual agents per Agent.

The load-balance distribution for 2048 Agents as the virtual-agent
factor varies from 1 to 1000 on Twitter-2010.  The paper's finding:
balance improves steeply up to ~100 virtual agents per Agent; beyond
that, improvements no longer outweigh the added lookup cost — hence the
system default of 100.
"""

import numpy as np

from benchmarks.common import dataset_edges
from repro.bench import Table, print_experiment_header
from repro.cluster.costmodel import DEFAULT_COSTS
from repro.hashing import ConsistentHashRing
from repro.partition import EdgePlacer, edge_loads, load_distribution
from repro.partition.balance import balance_summary
from repro.sketch import CountMinSketch

VIRTUAL_FACTORS = [1, 5, 10, 50, 100, 1000]
# The paper's 2048-Agent/42 M-vertex regime has ~20 k vertices per
# Agent; 64 Agents over our downscaled vertex counts is the same
# regime (graph skew must not drown out the ring-geometry effect).
N_AGENTS = 64


def run_experiment():
    us, vs, _ = dataset_edges("email-euall", scale=1.0)
    threshold = max(50, 4 * len(us) // N_AGENTS)
    sketch = CountMinSketch(8192, 8)
    deg_keys = np.concatenate([us, vs])
    sketch.add(deg_keys)
    split = frozenset(
        int(v) for v in np.unique(deg_keys) if sketch.query(int(v)) >= threshold
    )
    rows = []
    for vf in VIRTUAL_FACTORS:
        ring = ConsistentHashRing(range(N_AGENTS), virtual_factor=vf)
        placer = EdgePlacer(
            ring, sketch, replication_threshold=threshold, split_gate=split
        )
        loads = edge_loads(placer.owner_of_edges(us, vs), N_AGENTS)
        summary = balance_summary(loads)
        normalized, cumulative = load_distribution(loads)
        # 10th/90th percentile of the normalized load CDF — the spread
        # of Figure 6's distribution curves.
        p10 = float(np.percentile(normalized, 10))
        p90 = float(np.percentile(normalized, 90))
        lookup = DEFAULT_COSTS.placement_lookup_cost(4096, 8, N_AGENTS * vf)
        rows.append(
            {
                "vf": vf,
                "cv": summary["cv"],
                "p10": p10,
                "p90": p90,
                "lookup_ns": lookup * 1e9,
            }
        )
    return rows


def test_fig06_virtual_agents(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 6", f"load balance across {N_AGENTS} Agents vs virtual agents per Agent"
    )
    table = Table(["virtual agents", "load CV", "p10 load", "p90 load", "lookup ns"])
    for r in rows:
        table.add_row(r["vf"], f"{r['cv']:.3f}", f"{r['p10']:.2f}", f"{r['p90']:.2f}", f"{r['lookup_ns']:.1f}")
    table.show()

    by_vf = {r["vf"]: r for r in rows}
    # Balance improves monotonically (allowing small noise) with vf...
    assert by_vf[100]["cv"] < by_vf[10]["cv"] < by_vf[1]["cv"]
    # ...but 100 → 1000 buys little while lookups keep getting dearer
    # ("beyond 100 improvements do not outweigh the computational cost").
    gain_10_to_100 = by_vf[10]["cv"] - by_vf[100]["cv"]
    gain_100_to_1000 = by_vf[100]["cv"] - by_vf[1000]["cv"]
    assert gain_100_to_1000 < gain_10_to_100
    assert by_vf[1000]["lookup_ns"] > by_vf[100]["lookup_ns"]
