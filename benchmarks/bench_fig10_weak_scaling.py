"""Figure 10 — weak scaling on the Pokec family.

Graph size and node count grow together (the paper scales Pokec from
×39 to ×2500 across 1–64 nodes); the y-axis is per-iteration time, so a
horizontal line is ideal.  The paper's finding: tiny deployments beat
the ideal line (little communication); "above 16 nodes our scaling is
close to ideal".
"""

from benchmarks.common import dataset_edges, elga_pr_iter_seconds
from repro.bench import Series, print_experiment_header

# (nodes, graph scale): edges per node held constant.  The per-node
# share is large enough that per-edge compute dominates the O(P)
# per-agent message overheads, as at paper scale (55 M edges/agent).
LADDER = [(1, 0.16), (2, 0.32), (4, 0.64), (8, 1.28), (16, 2.56)]
AGENTS_PER_NODE = 4


def run_experiment():
    points = []
    for nodes, scale in LADDER:
        us, vs, _ = dataset_edges("pokec-x1000", scale=scale, seed=10)
        seconds = elga_pr_iter_seconds(
            us, vs, nodes=nodes, agents_per_node=AGENTS_PER_NODE, seed=10
        )
        points.append({"nodes": nodes, "m": len(us), "s_per_iter": seconds})
    return points


def test_fig10_weak_scaling(benchmark):
    points = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 10", "weak scaling on Pokec (edges per node constant; flat is ideal)"
    )
    s = Series("elga", x_name="nodes (m grows with nodes)", y_name="s/iter")
    for p in points:
        s.add(f"{p['nodes']} ({p['m']} edges)", p["s_per_iter"])
    s.show()

    times = [p["s_per_iter"] for p in points]
    # Small deployments beat the flat line (less communication)...
    assert times[0] < times[-1]
    # ...and the curve is close to ideal (horizontal) at the top end:
    # two doublings of scale past 4 nodes cost well under 2×.
    assert times[-1] / times[2] < 2.0
    # No doubling step blows up.
    for a, b in zip(times, times[1:]):
        assert b < 1.8 * a
