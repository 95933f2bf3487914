"""What one resident edge copy and one agent cost, in bytes.

``PYTHONPATH=src python3 tools/probe_memory.py [--scale 15] [--seed 12]
[--nodes 2] [--max-held BYTES] [--max-build-per-agent BYTES]`` builds the
``bulk-static`` workload's shape — the benchmark's R-MAT edges at edge
factor 8, a cluster of ``--nodes`` nodes x 2 agents (the default is the
benchmark's 2 x 2), eight ``apply_batch`` chunks over two streamers — and
traces Python allocations (``tracemalloc``) from the cluster build to the
end of the ingest.  It prints one JSON object: the bytes held after the
build and after the ingest, each also divided by the agents, and the
bytes held after the ingest and the ingest's peak, each also divided by
the resident edge copies (every edge is stored twice, as an out- and an
in-copy).  ``--max-held`` exits 1 when the held bytes per copy exceed
that ceiling, ``--max-build-per-agent`` when the build's held bytes per
agent do.

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
AGENTS_PER_NODE = 2


def probe(scale: int, seed: int = 12, nodes: int = 2) -> Dict[str, float]:
    """Ingest a ``bulk-static``-shaped graph of ``2**scale`` vertices
    into ``nodes`` x 2 agents under ``tracemalloc`` and report what the
    cluster holds after the build and after the ingest."""
    inputs = Inputs(seed, scale, EDGE_FACTOR)
    us, vs = inputs.us, inputs.vs
    bounds = np.linspace(0, len(us), CHUNKS + 1).astype(int)
    gc.collect()
    tracemalloc.start()
    try:
        engine = ElGA(nodes=nodes, agents_per_node=AGENTS_PER_NODE, keep_reference=False)
        gc.collect()
        build_held = tracemalloc.get_traced_memory()[0]
        for a, b in zip(bounds[:-1], bounds[1:]):
            engine.apply_batch(EdgeBatch.insertions(us[a:b], vs[a:b]), n_streamers=2)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    agents = len(engine.cluster.agents)
    copies = engine.cluster.total_resident_edges()
    return {
        "scale": scale,
        "seed": seed,
        "agents": agents,
        "edges": len(us),
        "copies": copies,
        "build_held_bytes": build_held,
        "build_held_per_agent": build_held / agents,
        "held_bytes": held,
        "peak_bytes": peak,
        "held_per_agent": held / agents,
        "held_per_copy": held / copies,
        "peak_per_copy": peak / copies,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=15)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--nodes", type=int, default=2,
                        help=f"cluster nodes, {AGENTS_PER_NODE} agents each")
    parser.add_argument("--max-held", type=float, default=None,
                        help="fail when held bytes per resident edge copy exceed this")
    parser.add_argument("--max-build-per-agent", type=float, default=None,
                        help="fail when the build's held bytes per agent exceed this")
    args = parser.parse_args(argv)
    if args.nodes < 1:
        parser.error("--nodes must be at least 1")
    report = probe(args.scale, args.seed, args.nodes)
    print(json.dumps(report))
    failed = 0
    for flag, key, what in (
        ("max_held", "held_per_copy", "held {:.1f} B per edge copy"),
        ("max_build_per_agent", "build_held_per_agent", "the build held {:.1f} B per agent"),
    ):
        ceiling = getattr(args, flag)
        if ceiling is not None and report[key] > ceiling:
            print(f"{what.format(report[key])} exceeds {ceiling:g} B", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
