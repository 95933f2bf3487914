"""Placement fast-path microbenchmark — edges/sec through owner_of_edges.

Measures the tentpole win of the placement fast path directly, outside
the simulator: resolve a large edge batch with

* the **pre-PR scalar path** (reimplemented inline below, faithful to
  the per-unique-hub Python loop this PR removed),
* the **vectorized path** (batched ring successors + matrix rendezvous),
* the **warm epoch-versioned cache** on top of the vectorized path,

for split-vertex mixes of 0%, 1%, and 10% of rows touching a hub.
Results (and the speedup the PR claims) are written to
``BENCH_placement.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench import Table, print_experiment_header
from repro.hashing import ConsistentHashRing
from repro.hashing.hashes import as_u64_keys
from repro.partition import EdgePlacer, PlacementCache
from repro.partition.placer import _rendezvous_pick
from repro.sketch import CountMinSketch

N_EDGES = 120_000
N_AGENTS = 64
# Power-law graphs have thousands of above-threshold hubs; the pre-PR
# scalar path pays one Python iteration (plus an O(split rows) scan)
# per unique hub in the batch.
N_HUBS = 3_000
N_VERTICES = 60_000
MIXES = [0.0, 0.01, 0.10]
TRIALS = 3
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_placement.json"


def scalar_owner_of_edges(placer: EdgePlacer, own, other) -> np.ndarray:
    """The pre-PR scalar split path, verbatim: one Python iteration per
    unique split vertex, scalar ring walk, per-vertex rendezvous pick."""
    own = np.atleast_1d(np.asarray(own, dtype=np.int64))
    other = np.atleast_1d(np.asarray(other, dtype=np.int64))
    k = placer.replication_factor(own)
    own_hash = np.asarray(placer.hash_fn(as_u64_keys(own)))
    owners = placer.ring.lookup_hash(own_hash)
    split = np.nonzero(k > 1)[0]
    if len(split):
        owners = owners.copy()
        other_hash = np.asarray(placer.hash_fn(as_u64_keys(other[split])))
        uniq, inverse = np.unique(own[split], return_inverse=True)
        for idx, _vertex in enumerate(uniq):
            rows = np.nonzero(inverse == idx)[0]
            kv = int(k[split[rows[0]]])
            replicas = placer.ring.successors_hash(int(own_hash[split[rows[0]]]), kv)
            owners[split[rows]] = _rendezvous_pick(replicas, other_hash[rows])
    return owners


def build_placer() -> EdgePlacer:
    ring = ConsistentHashRing(list(range(N_AGENTS)), virtual_factor=16, seed=3)
    sketch = CountMinSketch(width=8192, depth=4, seed=3)
    sketch.add(np.repeat(np.arange(N_HUBS, dtype=np.int64), 200))
    return EdgePlacer(ring, sketch, replication_threshold=100)


def workload(split_frac: float, seed: int = 7):
    rng = np.random.default_rng(seed)
    own = rng.integers(N_HUBS, N_VERTICES, size=N_EDGES).astype(np.int64)
    other = rng.integers(0, N_VERTICES, size=N_EDGES).astype(np.int64)
    if split_frac > 0:
        mask = rng.random(N_EDGES) < split_frac
        own[mask] = rng.integers(0, N_HUBS, size=int(mask.sum()))
    return own, other


def best_rate(fn, *args) -> float:
    """Best-of-TRIALS edges/sec (best-of defeats interpreter noise)."""
    best = 0.0
    for _ in range(TRIALS):
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        best = max(best, N_EDGES / elapsed)
    return best


def run_experiment() -> dict:
    placer = build_placer()
    results = {}
    for frac in MIXES:
        own, other = workload(frac)
        expected = scalar_owner_of_edges(placer, own, other)
        assert np.array_equal(placer.owner_of_edges(own, other), expected), (
            "vectorized path diverged from the scalar reference"
        )
        cache = PlacementCache().bind((0, 1, 0, 0), build_placer(), ring_epoch=(0, 1))
        assert np.array_equal(cache.owner_of_edges(own, other), expected)

        scalar = best_rate(scalar_owner_of_edges, placer, own, other)
        vectorized = best_rate(placer.owner_of_edges, own, other)
        warm = best_rate(cache.owner_of_edges, own, other)
        assert cache.last_misses == 0, "warm cache still missing"
        results[f"{frac:.0%}"] = {
            "split_fraction": frac,
            "scalar_edges_per_sec": scalar,
            "vectorized_edges_per_sec": vectorized,
            "warm_cache_edges_per_sec": warm,
            "vectorized_speedup": vectorized / scalar,
            "warm_cache_speedup": warm / scalar,
        }
    payload = {
        "n_edges": N_EDGES,
        "n_agents": N_AGENTS,
        "n_hubs": N_HUBS,
        "trials": TRIALS,
        "mixes": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def show(payload: dict) -> None:
    print_experiment_header(
        "Placement throughput", "owner_of_edges edges/sec by split mix"
    )
    table = Table(
        ["split mix", "scalar e/s", "vectorized e/s", "warm cache e/s", "vec ×", "cache ×"]
    )
    for mix, row in payload["mixes"].items():
        table.add_row(
            mix,
            row["scalar_edges_per_sec"],
            row["vectorized_edges_per_sec"],
            row["warm_cache_edges_per_sec"],
            row["vectorized_speedup"],
            row["warm_cache_speedup"],
        )
    table.show()
    print(f"[written] {RESULT_PATH}")


def test_placement_throughput():
    payload = run_experiment()
    show(payload)
    ten_pct = payload["mixes"]["10%"]
    # The PR's acceptance bar: >= 3x edges/sec on the 10%-split mix over
    # the pre-PR scalar path.
    assert ten_pct["vectorized_speedup"] >= 3.0, ten_pct
    # The warm cache must never be slower than going to the placer.
    assert ten_pct["warm_cache_speedup"] >= ten_pct["vectorized_speedup"] * 0.8


if __name__ == "__main__":
    show(run_experiment())
