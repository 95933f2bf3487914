"""A-BTER-style graph scaling (§4.4, Figure 4).

The paper uses A-BTER [74] to scale existing graphs up: compute the
degree and clustering-coefficient distributions of a seed graph, then
generate a random graph ``factor`` times larger sharing those
distributions.  This module implements the same two-phase BTER recipe:

* **Phase 1 (affinity blocks)** — vertices of similar target degree are
  grouped into dense blocks with Erdős–Rényi edges, which is what gives
  BTER graphs their clustering;
* **Phase 2 (Chung–Lu)** — each vertex's residual degree is satisfied by
  weighted random endpoint sampling.

The paper reports keeping the scaled distributions within 2 % error by a
parameter search over ``cavg`` (Appendix Table 1); our ``rho`` parameter
plays that role — the fraction of degree realized inside blocks.

As in the paper, the scaler can stream its output
(:func:`stream_scaled`) so ElGA receives the graph as it is generated.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.graph.stream import EdgeBatch, insertion_stream


def degree_histogram(us: np.ndarray, vs: np.ndarray, n: int) -> np.ndarray:
    """Counts of vertices per total (in+out) degree, index = degree."""
    degrees = np.bincount(np.asarray(us), minlength=n) + np.bincount(np.asarray(vs), minlength=n)
    return np.bincount(degrees)


def clustering_estimate(
    us: np.ndarray, vs: np.ndarray, n: int, samples: int = 2000, seed: int = 0
) -> float:
    """Sampled global clustering coefficient of the undirected form.

    Samples wedges uniformly (center weighted by d·(d−1)) and reports
    the closed fraction — the standard estimator, cheap enough for
    property tests comparing seed vs scaled graphs.
    """
    rng = np.random.default_rng(seed)
    adj: dict = {}
    for u, v in zip(np.asarray(us), np.asarray(vs)):
        u, v = int(u), int(v)
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    centers = [v for v, nbrs in adj.items() if len(nbrs) >= 2]
    if not centers:
        return 0.0
    weights = np.array([len(adj[v]) * (len(adj[v]) - 1) for v in centers], dtype=np.float64)
    weights /= weights.sum()
    picks = rng.choice(len(centers), size=samples, p=weights)
    closed = 0
    for idx in picks:
        center = centers[idx]
        nbrs = sorted(adj[center])
        i, j = rng.choice(len(nbrs), size=2, replace=False)
        if nbrs[j] in adj[nbrs[i]]:
            closed += 1
    return closed / samples


def _phase1_blocks(target_deg: np.ndarray, rho: float, rng: np.random.Generator, max_block: int):
    """Affinity-block edges: vertices sorted by degree, blocks of ~d+1."""
    order = np.argsort(target_deg)[::-1]  # densest blocks first
    block_us = []
    block_vs = []
    intra_deg = np.zeros(len(target_deg), dtype=np.float64)
    pos = 0
    n = len(order)
    while pos < n:
        d_here = int(target_deg[order[pos]])
        size = min(max(2, d_here + 1), max_block, n - pos)
        if size < 2 or d_here < 1:
            break
        members = order[pos : pos + size]
        pos += size
        # Expected intra-block degree: rho of the block's smallest target.
        d_min = float(target_deg[members].min())
        p = min(1.0, rho * d_min / (size - 1))
        if p <= 0:
            continue
        n_pairs = size * (size - 1) // 2
        n_edges = rng.binomial(n_pairs, p)
        if n_edges == 0:
            continue
        i = rng.integers(0, size, size=n_edges)
        j = rng.integers(0, size - 1, size=n_edges)
        j = np.where(j >= i, j + 1, j)  # j != i, uniform over pairs
        block_us.append(members[i])
        block_vs.append(members[j])
        np.add.at(intra_deg, members[i], 1.0)
        np.add.at(intra_deg, members[j], 1.0)
    if block_us:
        return np.concatenate(block_us), np.concatenate(block_vs), intra_deg
    return np.empty(0, np.int64), np.empty(0, np.int64), intra_deg


def bter_scale(
    us: np.ndarray,
    vs: np.ndarray,
    n: int,
    factor: float,
    seed: int = 0,
    rho: float = 0.35,
    max_block: int = 64,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Scale a seed graph by ``factor`` preserving its degree shape.

    Parameters
    ----------
    us, vs, n:
        Seed graph edge arrays and vertex count.
    factor:
        Linear scale-up (the paper uses ×1 to ×10000).  Non-integer
        factors sample the degree sequence with replacement.
    rho:
        Fraction of each vertex's degree realized inside affinity
        blocks (clustering knob; the paper's ``cavg`` analogue).
    max_block:
        Cap on affinity-block size, bounding phase-1 cost on hubs.

    Returns
    -------
    (us2, vs2, n2):
        The scaled directed graph.

    Notes
    -----
    Degree-distribution preservation is validated in
    ``tests/gen/test_bter.py`` (Figure 4's premise: same-scale BTER
    replicas behave like the original).
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    rng = np.random.default_rng(seed)
    seed_deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    seed_deg = seed_deg[seed_deg > 0]  # only vertices that exist
    n2 = max(2, int(round(len(seed_deg) * factor)))
    target_deg = rng.choice(seed_deg, size=n2, replace=True).astype(np.float64)

    p1_us, p1_vs, intra = _phase1_blocks(target_deg, rho, rng, max_block)

    # Phase 2: Chung–Lu on residual degree.
    residual = np.maximum(target_deg - intra, 0.0)
    total_residual = residual.sum()
    n_cl_edges = int(total_residual // 2)
    if n_cl_edges > 0 and total_residual > 0:
        w = residual / total_residual
        p2_us = rng.choice(n2, size=n_cl_edges, p=w)
        p2_vs = rng.choice(n2, size=n_cl_edges, p=w)
    else:
        p2_us = np.empty(0, np.int64)
        p2_vs = np.empty(0, np.int64)

    all_u = np.concatenate([p1_us, p2_us]).astype(np.int64)
    all_v = np.concatenate([p1_vs, p2_vs]).astype(np.int64)
    # Random orientation (seed graphs are directed; BTER is undirected).
    flip = rng.random(len(all_u)) < 0.5
    all_u[flip], all_v[flip] = all_v[flip], all_u[flip].copy()
    keep = all_u != all_v
    all_u, all_v = all_u[keep], all_v[keep]
    pairs = np.unique(np.stack([all_u, all_v], axis=1), axis=0)
    all_u, all_v = pairs[:, 0], pairs[:, 1]
    # Shuffle ids and stream order, as in the other generators.
    perm = rng.permutation(n2)
    all_u, all_v = perm[all_u], perm[all_v]
    order = rng.permutation(len(all_u))
    return all_u[order], all_v[order], n2


def stream_scaled(
    us: np.ndarray,
    vs: np.ndarray,
    n: int,
    factor: float,
    seed: int = 0,
    chunk: int = 8192,
    rho: float = 0.35,
) -> Iterator[EdgeBatch]:
    """Generate a scaled graph and stream it as insertion batches.

    This is the path the paper added to A-BTER so ElGA "directly
    receives the graph as it is generated" (§4.4).
    """
    us2, vs2, _ = bter_scale(us, vs, n, factor, seed=seed, rho=rho)
    yield from insertion_stream(us2, vs2, chunk=chunk)
