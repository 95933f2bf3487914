"""Figure 7 — CountMinSketch width: lookup overhead vs degree error.

(a) The runtime cost of resolving edges to Agents per PageRank
iteration as the table width varies — it inflects upward once the table
falls out of cache; (b) the maximum and average degree-estimation
errors — they fall with width.  The paper picks width ~10^4.2 with a
replication threshold of 10⁷: below the overhead inflection and with a
max error under the threshold, so the sketch causes no replication
error.
"""

import numpy as np

from benchmarks.common import dataset_edges
from repro.bench import Table, print_experiment_header
from repro.cluster.costmodel import DEFAULT_COSTS
from repro.sketch import CountMinSketch

WIDTHS = [2**8, 2**10, 2**12, 2**14, 2**16, 2**18]
DEPTH = 8


def run_experiment():
    us, vs, n = dataset_edges("twitter-2010", scale=1.0)
    true_deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    vertices = np.nonzero(true_deg)[0]
    m = len(us)
    rows = []
    for width in WIDTHS:
        sketch = CountMinSketch(width=width, depth=DEPTH, seed=3)
        sketch.add(us)
        sketch.add(vs)
        est = sketch.query(vertices)
        err = est - true_deg[vertices]
        # Per-iteration overhead: one placement lookup per edge access.
        lookup = DEFAULT_COSTS.placement_lookup_cost(width, DEPTH, ring_positions=2048 * 100)
        rows.append(
            {
                "width": width,
                "overhead": m * lookup,
                "max_err": int(err.max()),
                "avg_err": float(err.mean()),
            }
        )
    return rows, m


def test_fig07_sketch_width(benchmark):
    rows, m = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment_header(
        "Figure 7", "sketch width: per-iteration lookup overhead + degree errors"
    )
    table = Table(["width", "overhead s/iter (a)", "max err (b)", "avg err (b)"])
    for r in rows:
        table.add_row(r["width"], r["overhead"], r["max_err"], f"{r['avg_err']:.2f}")
    table.show()

    by_width = {r["width"]: r for r in rows}
    # (b) error is monotone non-increasing with width and hits zero for
    # wide tables (no collisions at this scale).
    errs = [r["max_err"] for r in rows]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert by_width[2**18]["max_err"] == 0
    # (a) the overhead inflects upward once the table leaves cache.
    assert by_width[2**18]["overhead"] > 2 * by_width[2**12]["overhead"]
    # The paper's operating point: a moderate width already has a max
    # error far below a proportional replication threshold, so the
    # sketch introduces no replication error.
    threshold_at_scale = 4 * m // 16  # the downscaled 10^7 analogue
    assert by_width[2**14]["max_err"] < threshold_at_scale
