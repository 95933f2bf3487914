"""Output checks against an independent computation, outside timed windows.

Each function returns ``None`` when the program's output is right and a
one-line reason when it is not; the workloads count a reason as one
failed operation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.graph.csr import compact_ids, pagerank_csr


def _as_arrays(values: Dict[int, float]) -> Tuple[np.ndarray, np.ndarray]:
    ids = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
    vals = np.fromiter(values.values(), dtype=np.float64, count=len(values))
    order = np.argsort(ids)
    return ids[order], vals[order]


def wcc_labels(us: np.ndarray, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(vertex ids, min vertex id of each one's weak component)."""
    cu, cv, ids = compact_ids(us, vs)
    n = len(ids)
    graph = coo_matrix((np.ones(len(cu), dtype=np.int8), (cu, cv)), shape=(n, n))
    _, comp = connected_components(graph, directed=True, connection="weak")
    smallest = np.full(comp.max() + 1, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(smallest, comp, ids)
    return ids, smallest[comp]


def check_wcc(values: Dict[int, float], us: np.ndarray, vs: np.ndarray) -> Optional[str]:
    ids, labels = wcc_labels(us, vs)
    got_ids, got = _as_arrays(values)
    if not np.array_equal(got_ids, ids):
        return f"wcc: {len(got_ids)} vertices returned, {len(ids)} in the graph"
    wrong = int((got != labels).sum())
    return f"wcc: {wrong} labels differ from scipy's components" if wrong else None


def check_pagerank(
    values: Dict[int, float], us: np.ndarray, vs: np.ndarray, tol: float, iters: Optional[int] = None
) -> Optional[str]:
    """``iters`` set: the run did exactly that many supersteps from the
    uniform start and must match the same count of reference iterations
    to float noise (L1 under 1e-9).  Otherwise the run converged to
    ``tol`` and every vertex must be within ``tol`` of the reference
    fixpoint.  The bound is per vertex because the L1 distance of
    consecutive delta runs adds up (about 4 tol per cycle at tol 1e-5,
    until a dense run resets it) while the per-vertex error stays
    under tol / 3."""
    cu, cv, ids = compact_ids(us, vs)
    got_ids, got = _as_arrays(values)
    if not np.array_equal(got_ids, ids):
        return f"pagerank: {len(got_ids)} vertices returned, {len(ids)} in the graph"
    if iters is not None:
        ref, _ = pagerank_csr(cu, cv, len(ids), tol=0.0, max_iters=iters)
        dist, limit = float(np.abs(got - ref).sum()), 1e-9
    else:
        ref, _ = pagerank_csr(cu, cv, len(ids), tol=tol * 1e-3, max_iters=500)
        dist, limit = float(np.abs(got - ref).max()), tol
    return f"pagerank: distance {dist:.3e} exceeds {limit:.3e}" if dist > limit else None


def check_residency(cluster, n_edges: int) -> Optional[str]:
    resident = cluster.total_resident_edges()
    if resident != 2 * n_edges:
        return f"residency: {resident} edge copies resident, expected {2 * n_edges}"
    return None
