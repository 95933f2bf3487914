"""Figure 4 — A-BTER scaling fidelity.

Per-iteration PageRank runtime on the LiveJournal stand-in and three
A-BTER-generated replicas (×1, ×4, ×16 here; the paper uses ×1/×10/×100
of the real graph).  The paper's finding: "the relative runtimes, i.e.,
ratio between ElGA's and Blogel's runtimes remain consistent" as the
synthetic graphs scale — A-BTER replicas are valid performance proxies.
"""

import pytest

from benchmarks.common import dataset_edges, elga_pr_iter_seconds
from repro.baselines import Blogel
from repro.bench import Table, print_experiment_header
from repro.gen import bter_scale

SCALES = [1, 4, 16]


def run_experiment():
    seed_us, seed_vs, seed_n = dataset_edges("livejournal", scale=0.06)
    rows = []

    def measure(us, vs, label):
        elga_t = elga_pr_iter_seconds(us, vs, nodes=4, agents_per_node=4, seed=1)
        blogel = Blogel(nodes=4, ranks_per_node=2)
        blogel.load(us, vs)
        blogel_t = blogel.pagerank(max_iters=5, tol=1e-15).mean_iter_seconds
        rows.append(
            {
                "graph": label,
                "m": len(us),
                "elga": elga_t,
                "blogel": blogel_t,
                "ratio": elga_t / blogel_t,
            }
        )

    measure(seed_us, seed_vs, "livejournal (original)")
    for factor in SCALES:
        us, vs, _ = bter_scale(seed_us, seed_vs, seed_n, factor=factor, seed=factor)
        measure(us, vs, f"A-BTER ×{factor}")
    return rows


def test_fig04_abter_fidelity(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 4", "PageRank per-iteration on LiveJournal and A-BTER replicas"
    )
    table = Table(["graph", "edges", "ElGA s/iter", "Blogel s/iter", "ElGA/Blogel"])
    for r in rows:
        table.add_row(r["graph"], r["m"], r["elga"], r["blogel"], f"{r['ratio']:.2f}")
    table.show()

    # Shape 1: the ×1 replica behaves like the original.
    original, x1 = rows[0], rows[1]
    assert x1["elga"] == pytest.approx(original["elga"], rel=0.5)
    # Shape 2: the ElGA/Blogel ratio stays consistent across scales
    # (the blue line of Figure 4 is roughly flat).
    ratios = [r["ratio"] for r in rows]
    assert max(ratios) / min(ratios) < 3.0
    # Shape 3: runtime grows with scale for both systems.
    assert rows[-1]["elga"] > rows[1]["elga"]
    assert rows[-1]["blogel"] > rows[1]["blogel"]
