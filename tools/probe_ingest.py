"""Ingest beside analysis at scale: both clocks, edges/s, bytes per copy.

``PYTHONPATH=src python3 tools/probe_ingest.py [--scales 17 18] [--seed 12]``
builds, for each scale, the ``bulk-static`` workload's shape — the
benchmark's R-MAT edges at edge factor 8 (``2**scale`` vertices), a
default 2-node x 2-agent cluster, eight ``apply_batch`` chunks over two
streamers — then runs 20 PageRank supersteps and WCC on the result.  It
prints one JSON object per scale: wall and simulated seconds of the
ingest, the PageRank and the WCC; ingested edges per wall second and per
simulated second; what the ingest's directory adoptions made the agents
do, as their counters summed at the ingest's end (:data:`ADOPTION_COUNTERS`:
placement-cache invalidations, rows re-checked, re-checks skipped, edges
migrated); and the process's resident memory after the ingest and at its
peak, above what it held before the cluster was built, divided by the
resident edge copies (every edge is stored twice, as an out- and an
in-copy).

Each scale runs in this one process, smallest first, so a later scale's
peak includes what the earlier ones freed to the allocator but not to
the system; run one scale per process for a clean peak.  Scale 17 takes
about a minute and ~1 GiB, scale 18 about twice that; scale 20 needs
several GiB.  Resident memory is read from ``/proc/self/statm`` and
``getrusage`` (Linux).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Dict

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from benchmarks.e2e.inputs import Inputs  # noqa: E402
from repro.core import ElGA, PageRank  # noqa: E402
from repro.core.algorithms import WCC  # noqa: E402
from repro.graph.stream import EdgeBatch  # noqa: E402

EDGE_FACTOR = 8
CHUNKS = 8
PAGERANK_STEPS = 20
#: Agent counters that say what adopting a new directory state cost.
ADOPTION_COUNTERS = (
    "placement_epoch_invalidations",
    "migrate_rows_rechecked",
    "migrate_rechecks_skipped",
    "edges_migrated",
)


def _rss_bytes() -> int:
    """Resident bytes of this process now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    """Largest resident size this process has had (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def probe(scale: int, seed: int = 12) -> Dict[str, float]:
    """Ingest a ``bulk-static``-shaped graph of ``2**scale`` vertices,
    then run PageRank and WCC on it, timing both clocks."""
    inputs = Inputs(seed, scale, EDGE_FACTOR)
    us, vs = inputs.us, inputs.vs
    bounds = np.linspace(0, len(us), CHUNKS + 1).astype(int)
    gc.collect()
    before = _rss_bytes()
    engine = ElGA(nodes=2, agents_per_node=2, keep_reference=False)
    ingest_sim = 0.0
    start = time.perf_counter()
    for a, b in zip(bounds[:-1], bounds[1:]):
        report = engine.apply_batch(EdgeBatch.insertions(us[a:b], vs[a:b]), n_streamers=2)
        ingest_sim += report["sim_seconds"]
    ingest_wall = time.perf_counter() - start
    held = _rss_bytes() - before
    agents = engine.cluster.agents.values()
    adoption = {
        name: sum(agent.perf.counts.get(name, 0) for agent in agents)
        for name in ADOPTION_COUNTERS
    }
    copies = engine.cluster.total_resident_edges()

    start = time.perf_counter()
    pagerank = engine.run(PageRank(max_iters=PAGERANK_STEPS, tol=1e-15))
    pagerank_wall = time.perf_counter() - start
    start = time.perf_counter()
    wcc = engine.run(WCC())
    wcc_wall = time.perf_counter() - start
    return {
        "scale": scale,
        "seed": seed,
        "edges": len(us),
        "copies": copies,
        "ingest_wall_s": ingest_wall,
        "ingest_sim_s": ingest_sim,
        "edges_per_wall_s": len(us) / ingest_wall,
        "edges_per_sim_s": len(us) / ingest_sim if ingest_sim else 0.0,
        **adoption,
        "pagerank_steps": pagerank.steps,
        "pagerank_wall_s": pagerank_wall,
        "pagerank_sim_s": pagerank.sim_seconds,
        "wcc_steps": wcc.steps,
        "wcc_wall_s": wcc_wall,
        "wcc_sim_s": wcc.sim_seconds,
        "held_per_copy": held / copies,
        "peak_per_copy": (_peak_rss_bytes() - before) / copies,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scales", type=int, nargs="+", default=[17, 18])
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args(argv)
    for scale in sorted(args.scales):
        print(json.dumps(probe(scale, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
