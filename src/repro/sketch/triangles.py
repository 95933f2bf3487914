"""Triangle counting from per-vertex neighborhood count-sketches.

EdgeSketch-style analytics (PAPERS.md) estimate triangle counts on
streams too large for exact neighbor intersection.  The identity is

    Σ_{(u,v) ∈ E}  |N(u) ∩ N(v)|  =  3·T

over the undirected, deduplicated edge set: each triangle {a, b, c} is
discovered once per edge, through the third vertex.  The intersection
size is an inner product of adjacency indicator vectors, and the Count
Sketch is an inner-product-preserving linear projection: for sketch
rows S_u, S_v of two neighborhoods, ⟨S_u[r], S_v[r]⟩ is an unbiased
estimate of ⟨a_u, a_v⟩ with variance ~ deg(u)·deg(v)/width, and the
median across rows tames the tail.  Summing the per-edge medians and
dividing by three gives the estimate; the whole computation is
O(E·depth·width) array work, independent of the true intersection
sizes.

:func:`triangle_count_exact` is the oracle — scipy sparse
``trace(A³)/6`` on the same cleaned edge set — used by tests to bound
sketch error and by benches to report accuracy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sketch.countsketch import CountSketch


def _clean_undirected(
    us: np.ndarray, vs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Dedup + drop self-loops; returns canonical u < v edges and n."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if len(lo):
        pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
        lo, hi = pairs[:, 0], pairs[:, 1]
    n = int(max(lo.max(initial=-1), hi.max(initial=-1))) + 1
    return lo, hi, n


def triangle_count_exact(us: np.ndarray, vs: np.ndarray) -> int:
    """Exact triangle count via sparse ``trace(A³) / 6``."""
    import scipy.sparse as sp

    lo, hi, n = _clean_undirected(us, vs)
    if len(lo) == 0:
        return 0
    data = np.ones(2 * len(lo), dtype=np.int64)
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return int((adj @ adj).multiply(adj).sum()) // 6


def sketch_neighborhoods(
    us: np.ndarray,
    vs: np.ndarray,
    n: int,
    width: int = 64,
    depth: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Per-vertex neighborhood count-sketches, shape (depth, n, width).

    Row ``S[r, u]`` is vertex u's neighbor set projected through the
    same (bucket, sign) hash family :class:`CountSketch` uses, so two
    vertices' rows are comparable by inner product.
    """
    hasher = CountSketch(width=width, depth=depth, seed=seed)
    idx, signs = hasher._indices_and_signs(np.arange(n, dtype=np.uint64))
    table = np.zeros((hasher.depth, n, width), dtype=np.int32)
    for r in range(hasher.depth):
        # Symmetrized adjacency: u sketches v and v sketches u.
        np.add.at(table[r], (us, idx[r][vs]), signs[r][vs].astype(np.int32))
        np.add.at(table[r], (vs, idx[r][us]), signs[r][us].astype(np.int32))
    return table


def triangle_count_sketch(
    us: np.ndarray,
    vs: np.ndarray,
    width: int = 64,
    depth: int = 5,
    seed: int = 0,
    chunk: int = 65536,
) -> float:
    """Estimate the triangle count from neighborhood count-sketches.

    ``width`` trades memory/time for accuracy (per-edge standard error
    ~ sqrt(deg(u)·deg(v)/width)); ``depth`` rows are combined by
    median.  Deterministic for a fixed ``seed``.
    """
    lo, hi, n = _clean_undirected(us, vs)
    if len(lo) == 0:
        return 0.0
    table = sketch_neighborhoods(lo, hi, n, width=width, depth=depth, seed=seed)
    depth = table.shape[0]
    total = 0.0
    for start in range(0, len(lo), chunk):
        eu = lo[start : start + chunk]
        ev = hi[start : start + chunk]
        dots = np.empty((depth, len(eu)), dtype=np.float64)
        for r in range(depth):
            dots[r] = np.einsum(
                "ew,ew->e",
                table[r, eu].astype(np.float64),
                table[r, ev].astype(np.float64),
            )
        # u ∈ N(v) and v ∈ N(u) contribute sign-hash noise only in
        # expectation 0 cross terms; the diagonal |N(u) ∩ N(v)| term is
        # what survives the median.
        total += float(np.median(dots, axis=0).sum())
    return total / 3.0


def triangle_count(
    us: np.ndarray,
    vs: np.ndarray,
    exact: bool = False,
    width: int = 64,
    depth: int = 5,
    seed: int = 0,
) -> float:
    """Triangle count of the undirected simple graph on ``(us, vs)``.

    ``exact=True`` routes to the scipy oracle; otherwise the
    count-sketch estimator.
    """
    if exact:
        return float(triangle_count_exact(us, vs))
    return triangle_count_sketch(us, vs, width=width, depth=depth, seed=seed)
