"""Compressed sparse row form and vectorized static kernels.

Blogel and GAPbs hold the graph in CSR (§4.7, §4.8): fast to scan, but
rebuilding it on every change makes it unsuited to dynamic graphs.  The
baselines in :mod:`repro.baselines` run on this representation, and the
same kernels serve as ground truth when validating ElGA's distributed
results (the paper checks agreement to 1e-8, §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class CSR:
    """Compressed sparse row adjacency.

    Attributes
    ----------
    indptr:
        int64 array of length ``n + 1``; row ``u``'s neighbors are
        ``indices[indptr[u]:indptr[u+1]]``.
    indices:
        int64 destination ids, sorted within each row.
    n:
        Number of vertices (ids are 0..n-1).
    """

    indptr: np.ndarray
    indices: np.ndarray
    n: int

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.indices)

    def degrees(self) -> np.ndarray:
        """Row lengths (out-degrees for an out-CSR)."""
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbor ids of one vertex."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]


def build_csr(us: np.ndarray, vs: np.ndarray, n: Optional[int] = None) -> CSR:
    """Build a CSR from parallel edge arrays.

    Examples
    --------
    >>> csr = build_csr(np.array([0, 0, 1]), np.array([1, 2, 2]))
    >>> csr.neighbors(0).tolist()
    [1, 2]
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if len(us) != len(vs):
        raise ValueError(f"ragged edge arrays: {len(us)} vs {len(vs)}")
    if n is None:
        n = int(max(us.max(initial=-1), vs.max(initial=-1))) + 1
    if len(us) and (us.min() < 0 or vs.min() < 0):
        raise ValueError("vertex ids must be non-negative")
    if len(us) and max(us.max(), vs.max()) >= n:
        raise ValueError("vertex id out of range for given n")
    counts = np.bincount(us, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.lexsort((vs, us))
    return CSR(indptr=indptr, indices=vs[order], n=int(n))


def pagerank_csr(
    us: np.ndarray,
    vs: np.ndarray,
    n: int,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iters: int = 100,
) -> Tuple[np.ndarray, int]:
    """Pregel-style PageRank on edge arrays (scatter-based).

    Each iteration a vertex sums its in-neighbors' messages, scales by
    the damping factor, and sends ``rank / out_degree`` along out-edges
    — exactly the vertex program of §4.3, so the distributed engines and
    this reference agree superstep for superstep.  Dangling mass is not
    redistributed (Pregel semantics, matching Blogel's shipped kernel).

    Returns ``(ranks, iterations)``; converged when the L1 change drops
    below ``tol``.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if n <= 0:
        raise ValueError(f"need at least one vertex, got n={n}")
    out_deg = np.bincount(us, minlength=n).astype(np.float64)
    safe_deg = np.where(out_deg > 0, out_deg, 1.0)
    ranks = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    iters = 0
    for iters in range(1, max_iters + 1):
        contrib = ranks / safe_deg
        incoming = np.zeros(n)
        np.add.at(incoming, vs, contrib[us])
        new_ranks = base + damping * incoming
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if delta < tol:
            break
    return ranks, iters


def wcc_labels(
    us: np.ndarray,
    vs: np.ndarray,
    n: int,
    init_labels: Optional[np.ndarray] = None,
    active: Optional[np.ndarray] = None,
    max_iters: int = 10_000,
) -> Tuple[np.ndarray, int]:
    """Weakly connected components by min-label propagation.

    Static case: every vertex starts with its own id (§4.3).  The
    incremental case passes ``init_labels`` (retained prior components)
    and ``active`` (the vertices touched by the batch); only messages
    reachable from active vertices propagate, matching ElGA's
    incremental algorithm, so iteration counts are comparable with
    Figure 15b.

    Returns ``(labels, iterations)``; two vertices are weakly connected
    iff their labels are equal.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    labels = np.arange(n, dtype=np.int64) if init_labels is None else init_labels.astype(np.int64).copy()
    if len(labels) != n:
        raise ValueError(f"init_labels has {len(labels)} entries for n={n}")
    if active is None:
        active_mask = np.ones(n, dtype=bool)
    else:
        active_mask = np.zeros(n, dtype=bool)
        active_mask[np.asarray(active, dtype=np.int64)] = True
    iters = 0
    while active_mask.any() and iters < max_iters:
        iters += 1
        # Only active vertices send their label, to both edge directions
        # (WCC treats the graph as undirected, §4.3).
        new_labels = labels.copy()
        send_fwd = active_mask[us]
        send_bwd = active_mask[vs]
        np.minimum.at(new_labels, vs[send_fwd], labels[us[send_fwd]])
        np.minimum.at(new_labels, us[send_bwd], labels[vs[send_bwd]])
        active_mask = new_labels < labels
        labels = new_labels
    return labels, iters


def compact_ids(us: np.ndarray, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relabel vertex ids to a dense 0..k-1 range.

    Graph systems fed an edge list only ever see vertices that appear in
    it; ids absent from the list (artifacts of generators or sparse id
    spaces) do not exist.  Reference kernels must therefore run on the
    compacted id space to agree with the distributed engines — e.g.
    PageRank's (1−d)/n term depends on the *present* vertex count.

    Returns ``(us', vs', ids)`` where ``ids[i]`` is the original id of
    compact vertex ``i``.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    ids = np.unique(np.concatenate([us, vs]))
    return np.searchsorted(ids, us), np.searchsorted(ids, vs), ids


def symmetrize(us: np.ndarray, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected form: each edge plus its reverse, deduplicated.

    The paper had to symmetrize inputs to fix a Blogel WCC bug (§4.7);
    the baselines use this helper for the same purpose.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    all_u = np.concatenate([us, vs])
    all_v = np.concatenate([vs, us])
    pairs = np.stack([all_u, all_v], axis=1)
    pairs = np.unique(pairs, axis=0)
    return pairs[:, 0], pairs[:, 1]
