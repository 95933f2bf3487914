"""Seeded inputs: the program only ever sees the arrays made here.

Every graph, change batch and query-stream seed derives from ``--seed``
through :class:`Inputs`, which also keeps the harness's own copy of the
edge set (the oracle's ground truth) and a running blake2b digest of
everything handed to the program.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

_SHIFT = np.int64(32)
_MASK = np.int64((1 << 32) - 1)


def rmat_edges(scale: int, edge_factor: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Graph500 R-MAT (a, b, c, d = .57, .19, .19, .05): distinct directed
    edges without self-loops, in shuffled stream order.  Not
    ``repro.gen.rmat_graph``: a change to the program must not change
    the benchmark's inputs."""
    m = (1 << scale) * edge_factor
    us = np.zeros(m, dtype=np.int64)
    vs = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        us |= (r >= 0.76).astype(np.int64) << level
        vs |= (((r >= 0.57) & (r < 0.76)) | (r >= 0.95)).astype(np.int64) << level
    keys = np.unique((us[us != vs] << _SHIFT) | vs[us != vs])
    keys = keys[rng.permutation(len(keys))]
    return keys >> _SHIFT, keys & _MASK


class Inputs:
    """One workload's input stream and the edge set it has produced."""

    def __init__(self, seed: int, scale: int, edge_factor: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng([self.seed, scale, edge_factor])
        self._digest = hashlib.blake2b(digest_size=16)
        self.us, self.vs = rmat_edges(scale, edge_factor, self._rng)
        self._absorb(self.us, self.vs)
        self.edge_keys = np.sort((self.us << _SHIFT) | self.vs)
        self.vertices = np.unique(np.concatenate([self.us, self.vs]))

    def _absorb(self, *arrays: np.ndarray) -> None:
        for a in arrays:
            self._digest.update(np.ascontiguousarray(a).tobytes())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def n_edges(self) -> int:
        return len(self.edge_keys)

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """The current edge set as (us, vs), sorted."""
        return self.edge_keys >> _SHIFT, self.edge_keys & _MASK

    def churn_batch(self, n_insert: int, n_delete: int = 0):
        """``(actions, us, vs)``: new edges between existing vertices,
        then deletions of existing edges; the edge set is updated."""
        iu = self._rng.choice(self.vertices, n_insert)
        iv = self._rng.choice(self.vertices, n_insert)
        new = np.unique((iu[iu != iv] << _SHIFT) | iv[iu != iv])
        new = new[~np.isin(new, self.edge_keys, assume_unique=True)]
        gone = self._rng.choice(self.edge_keys, n_delete, replace=False)
        self.edge_keys = np.union1d(np.setdiff1d(self.edge_keys, gone, assume_unique=True), new)
        self.vertices = np.unique(np.concatenate(self.edges()))
        keys = np.concatenate([new, gone])
        actions = np.concatenate([np.ones(len(new), np.int8), -np.ones(len(gone), np.int8)])
        us, vs = keys >> _SHIFT, keys & _MASK
        self._absorb(actions, us, vs)
        return actions, us, vs

    def stream_seed(self) -> int:
        """A fresh seed for a query stream the program generates itself
        (``OpenLoopWorkload`` draws its keys and arrival times from it)."""
        seed = int(self._rng.integers(0, 2**31 - 1))
        self._absorb(np.array([seed], dtype=np.int64))
        return seed
