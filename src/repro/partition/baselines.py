"""Baseline partitioning strategies used by the compared systems (§4.2).

* Blogel partitions *vertices* by hash ("simple vertex partitioning",
  the competitive variant) — :func:`hash_vertex_partition`.
* Blogel-Vor uses Voronoi growth from sampled seeds — the paper (and
  [7]) found it uncompetitive; :func:`voronoi_partition` reproduces it
  so Figure 11/12's omission can be justified by measurement.
* GraphX partitions *edges* with vertex-cut strategies:
  :func:`random_vertex_cut`, :func:`canonical_random_vertex_cut`, and
  :func:`edge_partition_2d` (its three main built-ins, §4.2).

All return an int64 owner id per edge so they share the balance metrics
with ElGA's placer.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.hashing.hashes import wang64

U64 = np.uint64


def hash_vertex_partition(
    us: np.ndarray, vs: np.ndarray, n_parts: int, hash_fn: Callable = wang64
) -> np.ndarray:
    """Blogel's vertex partitioning: an edge lives with its source."""
    us = np.asarray(us, dtype=np.int64)
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    return (np.asarray(hash_fn(us.astype(np.uint64))) % U64(n_parts)).astype(np.int64)


def random_vertex_cut(
    us: np.ndarray, vs: np.ndarray, n_parts: int, hash_fn: Callable = wang64
) -> np.ndarray:
    """GraphX RandomVertexCut: hash the ordered (src, dst) pair."""
    us = np.asarray(us, dtype=np.uint64)
    vs = np.asarray(vs, dtype=np.uint64)
    with np.errstate(over="ignore"):
        key = us * U64(0x100000001B3) ^ vs
    return (np.asarray(hash_fn(key)) % U64(n_parts)).astype(np.int64)


def canonical_random_vertex_cut(
    us: np.ndarray, vs: np.ndarray, n_parts: int, hash_fn: Callable = wang64
) -> np.ndarray:
    """GraphX CanonicalRandomVertexCut: hash the unordered pair, so both
    directions of an edge co-locate."""
    us = np.asarray(us, dtype=np.uint64)
    vs = np.asarray(vs, dtype=np.uint64)
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    with np.errstate(over="ignore"):
        key = lo * U64(0x100000001B3) ^ hi
    return (np.asarray(hash_fn(key)) % U64(n_parts)).astype(np.int64)


def edge_partition_2d(
    us: np.ndarray, vs: np.ndarray, n_parts: int, hash_fn: Callable = wang64
) -> np.ndarray:
    """GraphX EdgePartition2D: a √P × √P grid over (src, dst) hashes,
    bounding vertex replication at 2√P."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    side = int(np.ceil(np.sqrt(n_parts)))
    rows = np.asarray(hash_fn(us.astype(np.uint64))) % U64(side)
    cols = np.asarray(hash_fn(vs.astype(np.uint64))) % U64(side)
    return ((rows * U64(side) + cols) % U64(n_parts)).astype(np.int64)


def voronoi_partition(
    us: np.ndarray,
    vs: np.ndarray,
    n: int,
    n_parts: int,
    rng: np.random.Generator,
    seed_fraction: float = 0.01,
) -> np.ndarray:
    """Blogel-Vor: multi-source BFS Voronoi growth (block partitioning).

    Seeds are sampled uniformly and grown breadth-first over the
    undirected graph; every vertex joins its nearest seed's block, and
    blocks are assigned round-robin to partitions.  Vertices unreached
    by any seed fall back to hashing.  An edge lives with its source's
    partition.  Skewed graphs make the blocks wildly uneven — the
    reason Blogel-Vor loses (§4.2).
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if not 0 < seed_fraction <= 1:
        raise ValueError(f"seed_fraction must be in (0, 1], got {seed_fraction}")
    n_seeds = max(n_parts, int(n * seed_fraction))
    seeds = rng.choice(n, size=min(n_seeds, n), replace=False)

    # Undirected adjacency in CSR form for the BFS.
    all_u = np.concatenate([us, vs])
    all_v = np.concatenate([vs, us])
    order = np.argsort(all_u, kind="stable")
    sorted_u = all_u[order]
    sorted_v = all_v[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_u, minlength=n), out=indptr[1:])

    block = np.full(n, -1, dtype=np.int64)
    frontier = deque()
    for i, s in enumerate(seeds):
        if block[s] == -1:
            block[s] = i
            frontier.append(int(s))
    while frontier:
        vertex = frontier.popleft()
        b = block[vertex]
        for nbr in sorted_v[indptr[vertex] : indptr[vertex + 1]]:
            if block[nbr] == -1:
                block[nbr] = b
                frontier.append(int(nbr))
    unreached = block == -1
    if unreached.any():
        ids = np.nonzero(unreached)[0]
        block[ids] = np.asarray(wang64(ids.astype(np.uint64))) % U64(len(seeds))
    vertex_part = (block % n_parts).astype(np.int64)
    return vertex_part[us]
