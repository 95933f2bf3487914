"""Shared helpers for the per-figure benchmark harnesses.

Every ``bench_*.py`` regenerates one table or figure from the paper's
evaluation: it builds the workload, runs ElGA (and baselines where the
figure compares), prints the same rows/series the paper reports, and
asserts the figure's qualitative *shape* (who wins, how curves trend).
Absolute values are simulated time at ~10⁻⁴ graph scale; EXPERIMENTS.md
maps them back to the paper's numbers.
"""

from __future__ import annotations

import gc
import time
from typing import Optional, Tuple

import numpy as np

from repro.core import ElGA, PageRank
from repro.core.superstep import RunResult
from repro.gen import load_dataset

# Benchmark-wide knobs: small enough that the whole harness finishes in
# minutes, large enough that hubs split and stragglers matter.
BENCH_SCALE = 0.15
N_TRIALS = 3
PR_ITERS = 5


def build_engine(
    us: np.ndarray,
    vs: np.ndarray,
    nodes: int = 4,
    agents_per_node: int = 4,
    seed: int = 0,
    replication_threshold: Optional[int] = None,
    **overrides,
) -> ElGA:
    """An ElGA engine loaded with the given edges.

    The replication threshold defaults to the balanced per-agent edge
    share: a vertex whose degree alone exceeds one agent's fair share
    is exactly the kind that "causes significant load imbalance or
    memory pressure" (§4.5) and gets split.
    """
    if replication_threshold is None:
        per_agent = max(1, len(us) // (nodes * agents_per_node))
        replication_threshold = max(50, per_agent)
    elga = ElGA(
        nodes=nodes,
        agents_per_node=agents_per_node,
        seed=seed,
        replication_threshold=replication_threshold,
        keep_reference=False,
        **overrides,
    )
    elga.ingest_edges(us, vs, n_streamers=min(4, nodes * 2))
    return elga


def timed_run(engine: ElGA, program, **kw) -> Tuple[RunResult, float]:
    """Run a program and report ``(result, wall_seconds)``.

    Simulated seconds measure the modeled system; wall-clock measures
    this reproduction's own raw speed.  Benches publish both columns —
    the kernels push is judged on the second.  GC is paused while timed
    so the measurement isn't a collection artifact.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = engine.run(program, **kw)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return result, wall


def elga_pr_iter_seconds(
    us: np.ndarray,
    vs: np.ndarray,
    nodes: int = 4,
    agents_per_node: int = 4,
    seed: int = 0,
    iters: int = PR_ITERS,
    **kw,
) -> float:
    """Mean simulated per-iteration PageRank time on a fresh cluster."""
    elga = build_engine(us, vs, nodes=nodes, agents_per_node=agents_per_node, seed=seed, **kw)
    result = elga.run(PageRank(max_iters=iters, tol=1e-15))
    return result.mean_step_seconds()


def dataset_edges(name: str, scale: float = BENCH_SCALE, seed: int = 0) -> Tuple[np.ndarray, np.ndarray, int]:
    data = load_dataset(name, scale=scale, seed=seed)
    return data.us, data.vs, data.n


# A representative cross-section of Table 2 used by the comparison
# figures (running all 14 at 5 trials × 3 systems is minutes of wall
# time per figure; these cover social/web/rmat/datagen families).
COMPARISON_DATASETS = [
    "twitter-2010",
    "uk-2007-05",
    "datagen-9.4-fb",
    "livejournal",
    "graph500-30",
    "pokec-x1000",
]
