"""Figure 11 — PageRank per-iteration: ElGA vs Blogel vs GraphX.

The headline static comparison.  The paper (64 nodes): ElGA beats both
tuned baselines on every dataset (t-test p < 0.0005, except Graph500-30
where the test is inconclusive), despite Blogel's faster CSR scans and
20× lower MPI latency — because ElGA uses every core (32/node, vs
Blogel's 8-rank optimum) and overlaps communication.  GraphX runs out
of memory on the largest graphs.

As in §4.2, each baseline runs at its best-found configuration: Blogel's
rank count is swept and the fastest kept.
"""

import numpy as np

from benchmarks.common import COMPARISON_DATASETS, N_TRIALS, dataset_edges
from repro.baselines import Blogel, GraphX, graphx_would_oom
from repro.bench import Table, print_experiment_header, trials
from repro.bench.stats import welch_t_test
from repro.core import PageRank
from benchmarks.common import build_engine
from repro.gen import DATASETS

# Scaled-down nodes: 8 cores each (the paper's are 32-core).  ElGA uses
# every core; Blogel's memory-bound scans saturate a node's DRAM at 1/4
# core utilization (the paper's 8-of-32 observation), so its rank sweep
# includes configurations past that point — they simply don't win.
NODES = 4
ELGA_AGENTS_PER_NODE = 8
BLOGEL_RANK_SWEEP = [1, 2, 4, 8]  # "we used the best found settings"
BLOGEL_BW_RANKS = 2               # 1/4 of the 8 scaled-down cores
PR_ITERS = 5


def elga_seconds(us, vs, seed):
    elga = build_engine(us, vs, nodes=NODES, agents_per_node=ELGA_AGENTS_PER_NODE, seed=seed)
    return elga.run(PageRank(max_iters=PR_ITERS, tol=1e-15)).mean_step_seconds()


def blogel_seconds(us, vs, seed):
    best = np.inf
    for rpn in BLOGEL_RANK_SWEEP:
        b = Blogel(
            nodes=NODES,
            ranks_per_node=rpn,
            seed=seed,
            memory_bandwidth_ranks=BLOGEL_BW_RANKS,
        )
        b.load(us, vs)
        best = min(best, b.pagerank(max_iters=PR_ITERS, tol=1e-15).mean_iter_seconds)
    return best


def graphx_seconds(us, vs, seed):
    g = GraphX(nodes=NODES, partitioner="rvc", seed=seed)
    g.load(us, vs)
    return g.pagerank(max_iters=PR_ITERS, tol=1e-15).mean_iter_seconds


def run_experiment():
    rows = []
    for name in COMPARISON_DATASETS:
        us, vs, _ = dataset_edges(name)
        elga = trials(lambda s: elga_seconds(us, vs, s), n_trials=N_TRIALS, base_seed=11)
        blogel = trials(lambda s: blogel_seconds(us, vs, s), n_trials=N_TRIALS, base_seed=11)
        oom = graphx_would_oom(DATASETS[name].paper_m)
        graphx = (
            None
            if oom
            else trials(lambda s: graphx_seconds(us, vs, s), n_trials=N_TRIALS, base_seed=11)
        )
        rows.append(
            {
                "graph": name,
                "elga": elga,
                "blogel": blogel,
                "graphx": graphx,
                "p_vs_blogel": welch_t_test(elga.samples, blogel.samples),
            }
        )
    return rows


def test_fig11_pagerank_comparison(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 11", "PageRank s/iteration: ElGA vs Blogel vs GraphX (OOM at paper scale shown as —)"
    )
    table = Table(["graph", "ElGA", "Blogel", "GraphX", "speedup vs Blogel", "p"])
    for r in rows:
        table.add_row(
            r["graph"],
            r["elga"],
            r["blogel"],
            r["graphx"] if r["graphx"] is not None else "OOM",
            f"{r['blogel'].mean / r['elga'].mean:.2f}x",
            f"{r['p_vs_blogel']:.4f}",
        )
    table.show()

    wins = sum(r["elga"].mean < r["blogel"].mean for r in rows)
    # ElGA is fastest on (essentially) every dataset.
    assert wins >= len(rows) - 1
    for r in rows:
        if r["graphx"] is not None:
            # GraphX is far slower per iteration (JVM + stage overheads).
            assert r["graphx"].mean > 5 * r["elga"].mean, r["graph"]
    # The largest graphs OOM GraphX at paper scale.
    assert any(r["graphx"] is None for r in rows)
