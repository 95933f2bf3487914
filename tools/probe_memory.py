"""What one resident edge copy costs after a bulk ingest, in bytes.

``PYTHONPATH=src python3 tools/probe_memory.py [--scale 15] [--seed 12]
[--max-held BYTES]`` builds the ``bulk-static`` workload's shape — the
benchmark's R-MAT edges at edge factor 8, a default 2-node x 2-agent
cluster, eight ``apply_batch`` chunks over two streamers — and traces
Python allocations (``tracemalloc``) from the cluster build to the end of
the ingest.  It prints one JSON object: the bytes still held afterwards
and the ingest's peak, each also divided by the resident edge copies
(every edge is stored twice, as an out- and an in-copy).  With
``--max-held`` it exits 1 when the held bytes per copy exceed that
ceiling.

Numbers are allocations, not RSS: the interpreter, numpy and the inputs
themselves are outside the traced window.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tracemalloc
from typing import Dict

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from benchmarks.e2e.inputs import Inputs  # noqa: E402
from repro.core import ElGA  # noqa: E402
from repro.graph.stream import EdgeBatch  # noqa: E402

EDGE_FACTOR = 8
CHUNKS = 8


def probe(scale: int, seed: int = 12) -> Dict[str, float]:
    """Ingest a ``bulk-static``-shaped graph of ``2**scale`` vertices
    under ``tracemalloc`` and report what the cluster holds."""
    inputs = Inputs(seed, scale, EDGE_FACTOR)
    us, vs = inputs.us, inputs.vs
    bounds = np.linspace(0, len(us), CHUNKS + 1).astype(int)
    gc.collect()
    tracemalloc.start()
    try:
        engine = ElGA(nodes=2, agents_per_node=2, keep_reference=False)
        for a, b in zip(bounds[:-1], bounds[1:]):
            engine.apply_batch(EdgeBatch.insertions(us[a:b], vs[a:b]), n_streamers=2)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    copies = engine.cluster.total_resident_edges()
    return {
        "scale": scale,
        "seed": seed,
        "edges": len(us),
        "copies": copies,
        "held_bytes": held,
        "peak_bytes": peak,
        "held_per_copy": held / copies,
        "peak_per_copy": peak / copies,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=15)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--max-held", type=float, default=None,
                        help="fail when held bytes per resident edge copy exceed this")
    args = parser.parse_args(argv)
    report = probe(args.scale, args.seed)
    print(json.dumps(report))
    if args.max_held is not None and report["held_per_copy"] > args.max_held:
        print(
            f"held {report['held_per_copy']:.1f} B per edge copy exceeds {args.max_held:g} B",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
