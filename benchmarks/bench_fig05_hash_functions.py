"""Figure 5 — the hash function's impact.

(a) PageRank iteration runtime per hash function; (b) the edge
distribution quality across 2048 Agents (CDF of normalized loads; a
vertical line at 1.0 is ideal).  The paper's finding: Thomas Wang's
64-bit hash performs best, and "the runtime performance follows the
quality of the edge distributions".
"""

import numpy as np

from benchmarks.common import dataset_edges, elga_pr_iter_seconds
from repro.bench import Table, print_experiment_header
from repro.hashing import HASH_FUNCTIONS, ConsistentHashRing
from repro.partition import EdgePlacer, edge_loads, imbalance_factor
from repro.sketch import CountMinSketch

HASHES = ["wang", "mult", "abseil", "crc64", "identity"]
# The paper measures distributions over 2048 Agents on 42 M vertices
# (~20 k vertices/Agent); at our downscale the same vertices-per-agent
# regime needs a smaller agent count, else graph skew drowns out hash
# quality.
N_AGENTS_DIST = 64


def placement_quality(us, vs, hash_name, threshold):
    """Edge-load distribution of a pure placement pass."""
    ring = ConsistentHashRing(
        range(N_AGENTS_DIST), virtual_factor=100, hash_fn=HASH_FUNCTIONS[hash_name]
    )
    sketch = CountMinSketch(width=8192, depth=8)
    deg_keys = np.concatenate([us, vs])
    sketch.add(deg_keys)
    split = frozenset(
        int(v)
        for v in np.unique(deg_keys)
        if sketch.query(int(v)) >= threshold
    )
    placer = EdgePlacer(
        ring,
        sketch,
        replication_threshold=threshold,
        hash_fn=HASH_FUNCTIONS[hash_name],
        split_gate=split,
    )
    owners = placer.owner_of_edges(us, vs)
    return edge_loads(owners, N_AGENTS_DIST)


def run_experiment():
    us, vs, _ = dataset_edges("email-euall", scale=1.0)
    threshold = max(50, 4 * len(us) // N_AGENTS_DIST)
    rows = []
    for name in HASHES:
        runtime = elga_pr_iter_seconds(
            us, vs, nodes=4, agents_per_node=4, seed=2, hash_name=name
        )
        loads = placement_quality(us, vs, name, threshold)
        rows.append(
            {
                "hash": name,
                "runtime": runtime,
                "imbalance": imbalance_factor(loads),
                "cv": float(loads.std() / loads.mean()),
            }
        )
    return rows


def test_fig05_hash_functions(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 5", "hash function impact: PR iteration runtime + edge distribution"
    )
    table = Table(["hash", "PR s/iter (a)", "imbalance (b)", "load CV (b)"])
    for r in rows:
        table.add_row(r["hash"], r["runtime"], f"{r['imbalance']:.3f}", f"{r['cv']:.3f}")
    table.show()

    by_name = {r["hash"]: r for r in rows}
    real_hashes = [r for r in rows if r["hash"] != "identity"]
    # Wang's hash gives near-best distribution quality among the real
    # hashes (the paper's winner; ties with other strong mixers are
    # within noise at this scale)...
    best_cv = min(r["cv"] for r in real_hashes)
    assert by_name["wang"]["cv"] <= best_cv * 1.15
    # ...and near-best runtime.
    best_runtime = min(r["runtime"] for r in real_hashes)
    assert by_name["wang"]["runtime"] <= best_runtime * 1.15
    # The identity control shows what hash quality is worth: its
    # distribution collapses and its runtime follows ("the runtime
    # performance follows the quality of the edge distributions").
    assert by_name["identity"]["imbalance"] > 2 * by_name["wang"]["imbalance"]
    assert by_name["identity"]["runtime"] > by_name["wang"]["runtime"]
