"""Ablation — CountMinSketch vs an exact global degree table.

§1.2 / §3: prior dynamic partitioners needed O(n) global state (a
degree entry per vertex) on *every participant*; ElGA's contribution is
replacing it with a fixed-size sketch.  This ablation quantifies the
trade at paper scale and at ours: broadcast size (what every
directory update ships to every participant) vs estimation error (which
the replication decision tolerates because CountMin only overestimates).
"""

import numpy as np

from benchmarks.common import dataset_edges
from repro.bench import Table, print_experiment_header
from repro.sketch import CountMinSketch


def run_experiment():
    us, vs, n = dataset_edges("twitter-2010", scale=1.0)
    true_deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    vertices = np.nonzero(true_deg)[0]

    sketch = CountMinSketch(width=2**12, depth=8, seed=20)
    sketch.add(us)
    sketch.add(vs)
    est = sketch.query(vertices)
    err = est - true_deg[vertices]

    exact_bytes = len(vertices) * 16  # id + count per present vertex
    rows = {
        "exact_bytes": exact_bytes,
        "sketch_bytes": sketch.nbytes,
        "max_err": int(err.max()),
        "underestimates": int((err < 0).sum()),
        "n_vertices": len(vertices),
    }
    # Paper-scale projection: Table 2's largest graph has 4.0 B vertices.
    rows["paper_exact_gb"] = 4.0e9 * 16 / 1e9
    rows["paper_sketch_mb"] = CountMinSketch(width=2**18, depth=8, dtype=np.int32).nbytes / 1e6
    return rows


def test_ablation_sketch_vs_exact(benchmark):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Ablation", "global degree state: CountMinSketch vs exact table"
    )
    table = Table(["quantity", "exact table", "CountMinSketch"])
    table.add_row("broadcast bytes (this scale)", r["exact_bytes"], r["sketch_bytes"])
    table.add_row("broadcast at paper scale", f"{r['paper_exact_gb']:.0f} GB", f"{r['paper_sketch_mb']:.0f} MB")
    table.add_row("max degree error", 0, r["max_err"])
    table.add_row("underestimates", 0, r["underestimates"])
    table.show()

    # The sketch never underestimates (the safe direction) ...
    assert r["underestimates"] == 0
    # ... and at paper scale the exact table is thousands of times the
    # sketch's size — per participant, on every directory broadcast.
    assert r["paper_exact_gb"] * 1e3 / r["paper_sketch_mb"] > 1000
    # At our scale the sketch is within the same order as the small
    # exact table (the win grows with n, which is the whole point:
    # sketch size is O(d·w), independent of the graph).
    assert r["sketch_bytes"] < 20 * r["exact_bytes"]
