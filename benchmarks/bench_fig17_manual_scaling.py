"""Figure 17 — manual elastic scaling during a computation.

PageRank runs on Gowalla starting small; after one iteration an
operator scales the cluster up (the paper: 16 → 64 nodes), ElGA
migrates and continues, and after the run the cluster shrinks back for
cost savings.  The figure shows per-iteration progress with visibly
faster iterations after the scale-up.
"""

import numpy as np

from benchmarks.common import build_engine, dataset_edges
from repro.bench import Series, print_experiment_header
from repro.core import PageRank

START_AGENTS = (2, 2)   # nodes, agents/node — "16 nodes" scaled down
TARGET_AGENTS = 16      # "64 nodes"
ITERATIONS = 5


def run_experiment():
    us, vs, _ = dataset_edges("gowalla", scale=0.5)
    elga = build_engine(us, vs, nodes=START_AGENTS[0], agents_per_node=START_AGENTS[1], seed=17)
    result = elga.run(
        PageRank(max_iters=ITERATIONS, tol=1e-15), scale_plan={1: TARGET_AGENTS}
    )
    final_agents = elga.n_agents
    shrink = elga.scale_to(START_AGENTS[0] * START_AGENTS[1])
    return result, final_agents, shrink


def test_fig17_manual_scaling(benchmark):
    result, final_agents, shrink = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 17",
        f"PageRank with mid-run scale-up {START_AGENTS[0]*START_AGENTS[1]} → {TARGET_AGENTS} agents after iteration 1",
    )
    s = Series("per-round simulated seconds", x_name="round (phase, step)", y_name="seconds")
    for phase, step, duration in result.round_durations:
        s.add(f"{phase} {step}", duration)
    s.show()
    print(f"    agents after scale-up: {final_agents}; after shrink: {START_AGENTS[0]*START_AGENTS[1]}")
    print(f"    shrink migration: {shrink['migrate_messages']} messages in {shrink['sim_seconds']:.4f}s")

    assert final_agents == TARGET_AGENTS
    # The computation continued correctly across the reshaping.
    assert result.steps == ITERATIONS
    # Iterations on the scaled-up cluster are faster than before.
    steps = [(step, dur) for phase, step, dur in result.round_durations if phase == "step"]
    early = [d for phase, s_, d in result.round_durations if phase in ("init", "step") and s_ <= 1]
    late = [d for s_, d in steps if s_ >= 3]
    assert np.mean(late) < np.mean(early)
