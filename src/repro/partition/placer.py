"""ElGA's edge placement: sketch + two consistent hashes (§3.4.1, Fig 3).

To find the Agent owning an edge, a participant:

1. if the owning vertex is in the directory's split registry, queries
   the CountMinSketch for its estimated degree (a biased estimate — may
   exceed the degree, never underestimates); every other vertex has
   ``k = 1`` and skips the sketch;
2. derives the replication factor ``k = 1 + est // threshold`` (how many
   Agents share that vertex's edges), capped at the cluster size;
3. applies the first consistent hash — the vertex's position on the
   ring selects its ``k`` replica Agents (the next-k-distinct members);
4. if ``k > 1``, applies the second consistent hash *on those Agents* to
   pick the one responsible for this particular edge, keyed by the
   neighbor endpoint.  We use rendezvous (highest-random-weight)
   hashing for the second level: a consistent hash over a k-element
   member set with the same minimal-movement property — when a vertex's
   replication factor grows, only edges claimed by the new replica move.

A vertex *query* (not an edge) bypasses step 4: the serving plane
fans it out to every replica of the vertex, whose answers must agree
for a snapshot-consistent read, and a vertex that is not split has one.

Every participant computes placement from the same broadcast state, so
placement is a pure function — the property tests in
``tests/partition/`` assert all participants agree.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro import kernels
from repro.hashing.hashes import as_u64_keys, is_wang64, wang64
from repro.hashing.ring import ConsistentHashRing
from repro.sketch.countmin import CountMinSketch


class EdgePlacer:
    """Maps edges and vertices to owning Agents.

    Parameters
    ----------
    ring:
        The consistent-hash ring over current Agent ids (broadcast by
        the directory as part of every update).
    sketch:
        The global degree CountMinSketch (same broadcast).
    replication_threshold:
        Estimated degree above which a vertex is split across Agents.
        The paper uses 10⁷ at its scale; the downscaled default used by
        the cluster config is proportionally smaller.
    hash_fn:
        64-bit hash, shared with the ring.

    Examples
    --------
    >>> from repro.hashing import ConsistentHashRing
    >>> from repro.sketch import CountMinSketch
    >>> ring = ConsistentHashRing([0, 1, 2, 3])
    >>> placer = EdgePlacer(ring, CountMinSketch(256, 4), replication_threshold=100)
    >>> int(placer.owner_of_edges([5], [9])[0]) in {0, 1, 2, 3}
    True
    """

    def __init__(
        self,
        ring: ConsistentHashRing,
        sketch: CountMinSketch,
        replication_threshold: int,
        hash_fn: Callable = wang64,
        split_gate: Optional[frozenset] = None,
    ):
        if replication_threshold < 1:
            raise ValueError(f"replication_threshold must be >= 1, got {replication_threshold}")
        self.ring = ring
        self.sketch = sketch
        self.replication_threshold = int(replication_threshold)
        self.hash_fn = hash_fn
        # Placement under wang64 is one compiled pass per batch
        # (``kernels.place_edges``); any other hash keeps the numpy body.
        self._compiled = is_wang64(hash_fn)
        # When a gate is supplied (the directory's split-vertex
        # registry), only registered vertices replicate.  This makes the
        # placement switch and the replica-sync protocol change
        # atomically with a directory version: an unregistered hub keeps
        # all copies on one Agent (correct, just unbalanced) until the
        # registry broadcast flips both at once.
        self.split_gate = split_gate
        self._gate = None
        if split_gate:
            self._gate = kernels.id_table()
            self._gate.put(
                np.fromiter(split_gate, dtype=np.int64, count=len(split_gate)),
                np.zeros(len(split_gate), dtype=np.int64),
            )

    # -- replication ---------------------------------------------------------

    def gated(self, vertices: np.ndarray) -> np.ndarray:
        """Which of ``vertices`` may replicate at all: the registered
        split vertices, or every vertex when there is no registry."""
        if self.split_gate is None:
            return np.ones(len(vertices), dtype=bool)
        if self._gate is None:
            return np.zeros(len(vertices), dtype=bool)
        return self._gate.get(vertices)[1]

    def replication_factor(self, vertices) -> np.ndarray:
        """Number of Agents sharing each vertex's edges (k >= 1).

        Derived from the sketch's (over-)estimate, so a vertex may be
        split slightly before its true degree crosses the threshold —
        the safe direction — but never later.  The gate comes first:
        only vertices that may replicate reach the sketch (once each);
        everything else is ``k = 1`` without a hash.
        """
        vertices_arr = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        k = np.ones(len(vertices_arr), dtype=np.int64)
        gated = self.gated(vertices_arr)
        if gated.any():
            candidates, inverse = np.unique(vertices_arr[gated], return_inverse=True)
            est = np.atleast_1d(self.sketch.query(candidates))
            # Clamped from below: a turnstile sketch can under-count (an
            # agent that left with an unflushed delta took insertions
            # with it, the matching removals still arrive), and k = 0
            # would place the vertex's edges nowhere.
            k_candidates = np.clip(1 + est // self.replication_threshold, 1, len(self.ring))
            k[gated] = k_candidates[inverse]
        return k

    def replica_set(self, vertex: int) -> List[int]:
        """All Agents holding a share of ``vertex``'s edges."""
        k = int(self.replication_factor(vertex)[0])
        return self.ring.successors(int(vertex), k)

    def replica_matrix(self, vertices) -> "tuple[np.ndarray, np.ndarray]":
        """``(k, replicas)`` for many vertices at once.

        ``replicas`` is an ``(n, k_max)`` int64 matrix right-padded with
        ``-1``; row ``i`` equals ``replica_set(vertices[i])``.
        """
        verts = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        k = self.replication_factor(verts)
        if verts.size == 0:
            return k, np.empty((0, 0), dtype=np.int64)
        hashes = np.asarray(self.hash_fn(as_u64_keys(verts)))
        return k, self.ring.successors_hash_batch(hashes, k)

    def primary_of(self, vertex: int) -> int:
        """The first replica — coordinator for split-vertex aggregation."""
        return self.ring.successors(int(vertex), 1)[0]

    def ring_owners(self, vertices) -> np.ndarray:
        """First-level owner of each vertex (:meth:`primary_of`,
        vectorized): where all of a ``k = 1`` vertex's edges live."""
        verts = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        if verts.size == 0:
            return np.empty(0, dtype=np.int64)
        return self._place(verts)

    # -- edge placement ----------------------------------------------------------

    def owner_of_edges(self, own_vertices, other_vertices) -> np.ndarray:
        """Owning Agent for each edge, vectorized.

        ``own_vertices`` is the endpoint that owns this copy of the edge
        (the source for the out-edge copy, the destination for the
        in-edge copy); ``other_vertices`` is the opposite endpoint,
        which keys the second-level hash for split vertices.
        """
        own = np.atleast_1d(np.asarray(own_vertices, dtype=np.int64))
        other = np.atleast_1d(np.asarray(other_vertices, dtype=np.int64))
        if own.shape != other.shape:
            raise ValueError(f"ragged edge arrays: {own.shape} vs {other.shape}")
        if own.size == 0:
            return np.empty(0, dtype=np.int64)
        return self._place(own, other, self.replication_factor(own))

    def _place(self, own: np.ndarray, other=None, k=None) -> np.ndarray:
        """Ring owners of ``own``, second-level placed by ``other`` where
        the replication factor ``k`` exceeds 1 (see
        :func:`repro.kernels.reference.place_edges`)."""
        if self._compiled:
            return kernels.place_edges(self.ring, own, other, k)
        return kernels.reference.place_edges(self.ring, self.hash_fn, own, other, k)


def _rendezvous_pick(replicas: List[int], other_hashes: np.ndarray) -> np.ndarray:
    """Second-level consistent hash: HRW over the replica set.

    For each edge key, every replica gets a weight
    ``hash(replica_salt ^ key_hash)``; the highest weight wins.  Adding
    a replica only claims the keys it now wins — minimal movement.
    """
    reps = np.asarray(replicas, dtype=np.uint64)
    with np.errstate(over="ignore"):
        salted = wang64(reps * kernels.reference.HRW_STEP ^ kernels.reference.HRW_SALT)
        weights = wang64(salted[:, None] ^ other_hashes[None, :].astype(np.uint64))
    pick = np.argmax(weights, axis=0)
    return np.asarray(replicas, dtype=np.int64)[pick]
