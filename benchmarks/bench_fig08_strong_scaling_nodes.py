"""Figure 8 — strong scaling with node count.

Per-iteration PageRank time as the number of nodes varies (agents per
node fixed).  The paper's finding: "for each graph, adding more nodes
results in lower runtimes" (the largest graphs cannot run on few nodes
for memory reasons — a constraint the simulator does not share, so all
points run here).
"""

from benchmarks.common import N_TRIALS, dataset_edges, elga_pr_iter_seconds
from repro.bench import Series, print_experiment_header, trials

NODE_COUNTS = [1, 2, 4, 8, 16]
GRAPHS = ["twitter-2010", "livejournal", "graph500-30"]
AGENTS_PER_NODE = 4


def run_experiment():
    series = {}
    for graph in GRAPHS:
        us, vs, _ = dataset_edges(graph)
        points = []
        for nodes in NODE_COUNTS:
            stat = trials(
                lambda seed: elga_pr_iter_seconds(
                    us, vs, nodes=nodes, agents_per_node=AGENTS_PER_NODE, seed=seed
                ),
                n_trials=N_TRIALS,
                base_seed=8,
            )
            points.append((nodes, stat))
        series[graph] = points
    return series


def test_fig08_strong_scaling(benchmark):
    series = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 8", f"PageRank s/iteration vs nodes ({AGENTS_PER_NODE} agents/node)"
    )
    for graph, points in series.items():
        s = Series(graph, x_name="nodes", y_name="s/iter")
        for nodes, stat in points:
            s.add(nodes, stat)
        s.show()

    for graph, points in series.items():
        times = [stat.mean for _, stat in points]
        # Adding nodes lowers runtime: last point well below the first,
        # and the curve is (near-)monotone.
        assert times[-1] < 0.5 * times[0], graph
        for a, b in zip(times, times[1:]):
            assert b < a * 1.15, graph  # small non-monotonic noise allowed
