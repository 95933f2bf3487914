"""Figure 12 — WCC runtime: ElGA vs Blogel vs GraphX.

Total weakly-connected-components runtime (the full run, not per
iteration — WCC's active set shrinks every superstep).  The paper:
ElGA fastest everywhere (p < 0.0005, p < 0.03 on Graph500-30); the
input is symmetrized for Blogel (its WCC bug, §4.7); GraphX with CRVC
partitioning ran out of memory on almost all graphs.
"""

import numpy as np

from benchmarks.common import COMPARISON_DATASETS, N_TRIALS, build_engine, dataset_edges
from repro.baselines import Blogel, GraphX, graphx_would_oom
from repro.bench import Table, print_experiment_header, trials
from repro.bench.stats import welch_t_test
from repro.core import WCC
from repro.gen import DATASETS

NODES = 4
ELGA_AGENTS_PER_NODE = 8
BLOGEL_RANK_SWEEP = [1, 2, 4, 8]
BLOGEL_BW_RANKS = 2
# WCC shrinks its active set every superstep, so fixed per-round costs
# loom large at tiny scales; 0.5 restores the compute-dominated regime
# the paper's billion-edge runs live in.
SCALE = 0.5


def elga_seconds(us, vs, seed):
    elga = build_engine(us, vs, nodes=NODES, agents_per_node=ELGA_AGENTS_PER_NODE, seed=seed)
    return elga.run(WCC()).sim_seconds


def blogel_seconds(us, vs, seed):
    best = np.inf
    for rpn in BLOGEL_RANK_SWEEP:
        b = Blogel(
            nodes=NODES, ranks_per_node=rpn, seed=seed, memory_bandwidth_ranks=BLOGEL_BW_RANKS
        )
        b.load(us, vs)
        best = min(best, b.wcc().total_seconds)
    return best


def graphx_seconds(us, vs, seed):
    g = GraphX(nodes=NODES, partitioner="rvc", seed=seed)
    g.load(us, vs)
    return g.wcc().compute_seconds


def run_experiment():
    rows = []
    for name in COMPARISON_DATASETS:
        us, vs, _ = dataset_edges(name, scale=SCALE)
        elga = trials(lambda s: elga_seconds(us, vs, s), n_trials=N_TRIALS, base_seed=12)
        blogel = trials(lambda s: blogel_seconds(us, vs, s), n_trials=N_TRIALS, base_seed=12)
        oom = graphx_would_oom(DATASETS[name].paper_m)
        crvc_oom = graphx_would_oom(DATASETS[name].paper_m, partitioner="crvc")
        graphx = (
            None
            if oom
            else trials(lambda s: graphx_seconds(us, vs, s), n_trials=N_TRIALS, base_seed=12)
        )
        rows.append(
            {
                "graph": name,
                "elga": elga,
                "blogel": blogel,
                "graphx": graphx,
                "crvc_oom": crvc_oom,
                "p": welch_t_test(elga.samples, blogel.samples),
            }
        )
    return rows


def test_fig12_wcc_comparison(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header("Figure 12", "WCC total runtime: ElGA vs Blogel vs GraphX")
    table = Table(["graph", "ElGA", "Blogel", "GraphX (RVC)", "CRVC", "speedup", "p"])
    for r in rows:
        table.add_row(
            r["graph"],
            r["elga"],
            r["blogel"],
            r["graphx"] if r["graphx"] is not None else "OOM",
            "OOM" if r["crvc_oom"] else "ok",
            f"{r['blogel'].mean / r['elga'].mean:.2f}x",
            f"{r['p']:.4f}",
        )
    table.show()

    wins = sum(r["elga"].mean < r["blogel"].mean for r in rows)
    assert wins >= len(rows) - 1
    for r in rows:
        if r["graphx"] is not None:
            assert r["graphx"].mean > 5 * r["elga"].mean, r["graph"]
    # "We were not able to run GraphX with CRVC partitioning as it ran
    # out of memory on almost all graphs."
    assert sum(r["crvc_oom"] for r in rows) >= len(rows) - 2
