"""Figure 15 — maintaining connectivity on Twitter-2010.

100 insertion batches of varying size are applied to the converged
graph; (a) per-batch runtime and (b) iterations until convergence.  The
paper's findings: per-batch runtimes of 0.025–0.59 s (average 0.12 s)
for single-edge changes vs GraphX's ≥ 49.45 s snapshot recompute —
speedups of 83× to 1962×; from scratch ElGA takes 14 s; iteration
counts stay small for small batches.
"""

import numpy as np

from benchmarks.common import dataset_edges
from repro.baselines import GraphX
from repro.bench import Table, print_experiment_header
from repro.core import ElGA, WCC
from repro.graph import EdgeBatch

N_BATCHES = 24  # log-spaced sizes standing in for the paper's 100
BATCH_SIZES = np.unique(np.logspace(0, 3, N_BATCHES).astype(int))


def run_experiment():
    us, vs, n = dataset_edges("twitter-2010", scale=0.6)
    # Hold back enough edges to feed every batch.
    total_held = int(BATCH_SIZES.sum())
    base_us, base_vs = us[:-total_held], vs[:-total_held]
    tail_us, tail_vs = us[-total_held:], vs[-total_held:]

    elga = ElGA(nodes=4, agents_per_node=4, seed=15, keep_reference=False)
    elga.ingest_edges(base_us, base_vs, n_streamers=4)
    scratch = elga.run(WCC())

    batches = []
    cursor = 0
    for size in BATCH_SIZES:
        batch = EdgeBatch.insertions(
            tail_us[cursor : cursor + size], tail_vs[cursor : cursor + size]
        )
        cursor += size
        report = elga.apply_batch(batch, n_streamers=2)
        result = elga.run(WCC(), incremental=True)
        batches.append(
            {
                "size": int(size),
                "seconds": report["sim_seconds"] + result.sim_seconds,
                "iterations": result.steps,
            }
        )

    # The GraphX snapshot-recompute baseline: partitioning ignored
    # ("the best achievable performance if a perfect elastic load
    # balancer is put into GraphX"), but job startup is unavoidable.
    gx = GraphX(nodes=64, partitioner="rvc")
    gx.load(us, vs)
    graphx_floor = gx.wcc_incremental({}, np.array([int(us[0])])).job_seconds
    return batches, scratch, graphx_floor


def test_fig15_dynamic_batches(benchmark):
    batches, scratch, graphx_floor = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 15", "incremental WCC per batch on Twitter-2010 (runtime + iterations)"
    )
    table = Table(["batch size", "seconds (a)", "iterations (b)"])
    for b in batches:
        table.add_row(b["size"], b["seconds"], b["iterations"])
    table.show()
    times = np.array([b["seconds"] for b in batches])
    speedups = graphx_floor / times
    print(f"    ElGA from scratch: {scratch.sim_seconds:.4f} s ({scratch.steps} iterations)")
    print(f"    GraphX recompute floor: {graphx_floor:.2f} s")
    print(
        f"    speedups over GraphX: {speedups.min():.0f}x – {speedups.max():.0f}x "
        f"(min/avg/max batch: {times.min():.2e}/{times.mean():.2e}/{times.max():.2e} s)"
    )

    # Every incremental batch beats the from-scratch run.
    assert times.max() < scratch.sim_seconds
    # The speedup over snapshot recompute is enormous (paper: 83x-1962x).
    assert speedups.min() > 50
    # Iterations grow with batch size but stay far below from-scratch.
    iters = [b["iterations"] for b in batches]
    assert max(iters) <= scratch.steps
    assert iters[0] <= 3  # single-edge batches converge almost at once
