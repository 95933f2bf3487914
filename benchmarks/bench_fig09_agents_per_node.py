"""Figure 9 — scaling with Agents per node.

Nodes fixed at the cluster size; the number of Agents per node varies.
The paper's finding: "adding more Agents results in faster runtimes" —
ElGA profits from every core (unlike Blogel, fastest at 8 ranks/node).
"""

from benchmarks.common import N_TRIALS, dataset_edges, elga_pr_iter_seconds
from repro.bench import Series, print_experiment_header, trials

NODES = 8
AGENTS_PER_NODE = [1, 2, 4, 8]
GRAPHS = ["twitter-2010", "skitter"]


def run_experiment():
    series = {}
    for graph in GRAPHS:
        us, vs, _ = dataset_edges(graph)
        points = []
        for apn in AGENTS_PER_NODE:
            stat = trials(
                lambda seed: elga_pr_iter_seconds(
                    us, vs, nodes=NODES, agents_per_node=apn, seed=seed
                ),
                n_trials=N_TRIALS,
                base_seed=9,
            )
            points.append((apn, stat))
        series[graph] = points
    return series


def test_fig09_agents_per_node(benchmark):
    series = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 9", f"PageRank s/iteration vs agents per node ({NODES} nodes)"
    )
    for graph, points in series.items():
        s = Series(graph, x_name="agents/node", y_name="s/iter")
        for apn, stat in points:
            s.add(apn, stat)
        s.show()

    for graph, points in series.items():
        times = [stat.mean for _, stat in points]
        assert times[-1] < 0.6 * times[0], graph
        for a, b in zip(times, times[1:]):
            assert b < a * 1.15, graph
