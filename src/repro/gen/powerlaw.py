"""Skewed (power-law) directed graph generation.

The paper's design goals start from "graphs with hundreds of billions of
edges and skewed degree distributions" (Goal 1).  This module produces
the skew: a directed Chung–Lu-style model where endpoint probabilities
follow a Zipf law with exponent ``alpha``.  Smaller ``alpha`` means a
heavier head — web crawls are heavier (≈1.8) than citation networks
(≈2.8).  The dataset registry picks ``alpha`` per family.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Endpoint probabilities giving a degree distribution ~ d^(−alpha).

    For a degree-distribution exponent γ the endpoint (rank) weights
    must decay as r^(−1/(γ−1)); using γ itself as the rank exponent
    would concentrate nearly all mass on the first vertex.  The rank
    exponent is clipped below 1 so the head stays integrable.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if alpha <= 1.0:
        raise ValueError(f"degree exponent must exceed 1, got {alpha}")
    beta = min(1.0 / (alpha - 1.0), 0.95)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-beta)
    return weights / weights.sum()


def powerlaw_graph(
    n: int,
    m: int,
    alpha: float = 2.0,
    seed: int = 0,
    dedup: bool = True,
    shuffle_ids: bool = True,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Directed Chung–Lu graph with Zipf(alpha) endpoint weights.

    Parameters
    ----------
    n, m:
        Vertex and (pre-dedup) edge counts.
    alpha:
        Zipf exponent; lower = more skewed.
    dedup:
        Drop self-loops and duplicate directed edges.
    shuffle_ids:
        Relabel vertices with a random permutation so vertex id carries
        no degree information — real graph ids don't arrive
        degree-sorted, and ElGA's hashing must not be able to exploit
        ordering.

    Returns
    -------
    (us, vs, n)

    Examples
    --------
    >>> us, vs, n = powerlaw_graph(500, 3000, alpha=2.0, seed=3)
    >>> int(max(np.bincount(us, minlength=n).max(), 1)) > 3000 // 500
    True
    """
    if m < 1:
        raise ValueError(f"need at least one edge, got m={m}")
    rng = np.random.default_rng(seed)
    weights = zipf_weights(n, alpha)
    if not dedup:
        us = rng.choice(n, size=m, p=weights)
        vs = rng.choice(n, size=m, p=weights)
    else:
        # Hub collisions make some duplicates unavoidable; resample in
        # rounds until the unique-edge target is met (or the graph
        # saturates and further rounds stop helping).
        us = np.empty(0, dtype=np.int64)
        vs = np.empty(0, dtype=np.int64)
        for _ in range(8):
            need = m - len(us)
            if need <= 0:
                break
            cand_u = rng.choice(n, size=int(need * 1.3) + 16, p=weights)
            cand_v = rng.choice(n, size=len(cand_u), p=weights)
            keep = cand_u != cand_v
            us = np.concatenate([us, cand_u[keep]])
            vs = np.concatenate([vs, cand_v[keep]])
            pairs = np.unique(np.stack([us, vs], axis=1), axis=0)
            us, vs = pairs[:, 0], pairs[:, 1]
        if len(us) > m:
            pick = rng.choice(len(us), size=m, replace=False)
            us, vs = us[pick], vs[pick]
    if shuffle_ids:
        perm = rng.permutation(n)
        us, vs = perm[us], perm[vs]
    order = rng.permutation(len(us))
    return us[order].astype(np.int64), vs[order].astype(np.int64), n
