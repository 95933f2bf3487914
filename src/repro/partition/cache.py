"""Epoch-versioned placement cache — the placement fast path.

Placement is a pure function of the directory broadcast state (ring
membership + degree sketch + split registry), so between directory
epochs every sketch query and ring search is recomputable-but-redundant
work.  What a lookup depends on comes in two grades, and
:class:`PlacementCache` keeps one memo tier per grade:

* the **ring tier** — vertex → first-level ring owner.  It depends on
  membership and weights only, so it is keyed by the *ring epoch*
  (term, membership version) and outlives every sketch flush and
  split registration.  It answers every vertex the split registry does
  not let replicate, i.e. almost all of them;
* the **split tier** — replication factors and replica sets of the
  registered split vertices, and recently-resolved *edge* owners for
  them, keyed by the packed ``(own, other)`` pair (a split vertex's
  owner depends on both endpoints).  It also depends on the sketch and
  the registry, so it is keyed by the full epoch; when that moves
  under a standing ring, the entries of vertices whose replication
  factor did not change are kept.

Both tokens are carried in every
:class:`~repro.cluster.directory.DirectoryState` broadcast, so
participants invalidate exactly what can have changed and nothing else.
A cache bound to a fresh :class:`~repro.partition.placer.EdgePlacer`
with an unchanged epoch keeps all its memos — this is what lets routing
survive batch-clock-only broadcasts.  :meth:`PlacementCache.bind` is
also the one place that works out what a rebind moved
(:attr:`PlacementCache.last_moved`): an Agent re-homes exactly the rows
of those vertices.

Every memo is an id table (:func:`repro.kernels.id_table`): a lookup is
one hash and a short probe per row, and learning inserts the fresh rows
only.  The table answers and learns exactly what a sorted memo probed by
``searchsorted`` did — same hits, same admissions — so every hit/miss
split, and every second the cost model bills by it, is unchanged.  The
split tier stores one 32-bit code per vertex: its ring owner where
``k == 1``, else ``-k``.

Agents, Streamers and ClientProxies place through the cache only; it
answers the lookups they make (edge owners, ring owners, replication
factors, replica sets) and exposes the bound placer's ``ring``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.bench.counters import PerfCounters
from repro.graph.sortedids import distinct
from repro.partition.placer import EdgePlacer

_U32_LIMIT = np.int64(1) << np.int64(32)
_SHIFT32 = np.uint64(32)


class PlacementCache:
    """Memoized placement lookups, invalidated by directory epoch.

    Parameters
    ----------
    counters:
        Optional shared :class:`~repro.bench.counters.PerfCounters`;
        a private one is created otherwise.
    max_vertices, max_edges:
        Memo capacity bounds.  The vertex memos admit a batch's fresh
        vertices all or none, and stop admitting when full; the edge
        memo restarts from the latest batch (split edges are few, so
        either limit is rarely reached).  A memo's storage grows with
        its entries, never to the bound.

    Examples
    --------
    >>> from repro.hashing import ConsistentHashRing
    >>> from repro.sketch import CountMinSketch
    >>> placer = EdgePlacer(ConsistentHashRing([0, 1]), CountMinSketch(64, 2),
    ...                     replication_threshold=10)
    >>> cache = PlacementCache().bind((0, 1, 0, 0), placer, ring_epoch=(0, 1))
    >>> import numpy as np
    >>> a = cache.owner_of_edges(np.array([5]), np.array([9]))
    >>> b = cache.owner_of_edges(np.array([5]), np.array([9]))  # cache hit
    >>> bool(a[0] == b[0]) and cache.last_hits == 1
    True
    """

    def __init__(
        self,
        counters: Optional[PerfCounters] = None,
        max_vertices: int = 2_000_000,
        max_edges: int = 1_000_000,
    ):
        self.counters = counters if counters is not None else PerfCounters()
        self.max_vertices = int(max_vertices)
        self.max_edges = int(max_edges)
        self._epoch = None
        self._ring_epoch = None
        self._placer: Optional[EdgePlacer] = None
        # Per-call hit/miss split, read by the cost-charging layer.
        self.last_hits = 0
        self.last_misses = 0
        # What the last bind moved (see bind()).
        self.last_moved: Optional[np.ndarray] = None
        self._reset_ring_tier()
        self._reset_split_tier()

    # -- binding -----------------------------------------------------------

    @property
    def epoch(self):
        """The directory epoch the split tier is valid for."""
        return self._epoch

    @property
    def ring(self):
        """The bound placer's consistent-hash ring."""
        return self._require_placer().ring

    def bind(self, epoch: tuple, placer: EdgePlacer, ring_epoch: tuple) -> "PlacementCache":
        """Point the cache at ``placer``, valid for ``epoch``, whose
        ring depends on the ``ring_epoch`` part of it only.

        Memos survive a rebind with an unchanged token (the broadcast
        that carried it changed nothing they depend on — a batch-clock
        bump for both tiers, a sketch flush for the ring tier); a changed
        ``epoch`` under an unchanged ring drops only the split-tier
        entries of vertices whose replication factor moved.

        :attr:`last_moved` then says which vertices' edges can have
        changed owner: ``None`` (any of them) on a first bind or a
        ring-epoch change, an empty array when the epoch is unchanged,
        and otherwise the sorted ids whose replication factor differs
        between the replaced placer and ``placer``.
        """
        before = self._placer
        self._placer = placer
        if before is None or ring_epoch != self._ring_epoch:
            if before is not None:
                self.counters.add("placement_epoch_invalidations")
                self._reset_ring_tier()
                self._reset_split_tier()
            self.last_moved = None
        elif epoch == self._epoch:
            self.last_moved = np.empty(0, dtype=np.int64)
        else:
            self.counters.add("placement_epoch_invalidations")
            self.last_moved = self._revalidate_split_tier(before)
        self._epoch = epoch
        self._ring_epoch = ring_epoch
        return self

    def _revalidate_split_tier(self, before: EdgePlacer) -> np.ndarray:
        """The sketch or the registry moved under a standing ring, from
        ``before`` to the bound placer; returns the sorted ids whose
        replication factor moved.

        An edge of a split vertex changes owner only if that vertex's
        replication factor did, and only the memoised vertices and the
        registry's members (which only grows within a term) can have
        one other than 1.  Their factors are re-derived (the memo already
        holds the old factor of the memoised ones), the split-tier
        entries of the moved ones forgotten (a table drops entries by
        being rebuilt from the ones it keeps), and the new factors of
        the rest learned."""
        self._replica_sets = {}
        placer = self._placer
        registry = placer.split_gate or ()
        ids = distinct(np.concatenate((
            self._split_memo.items()[0],
            np.fromiter(registry, dtype=np.int64, count=len(registry)),
        )))
        if ids.size == 0:
            return ids
        coded, known = self._split_memo.get(ids)
        k_old = np.maximum(-coded, 1)
        if not known.all():
            k_old[~known] = before.replication_factor(ids[~known])
        k_new = placer.replication_factor(ids)
        moved = k_old != k_new
        if moved.any():
            kept = known & ~moved
            self._split_memo = _table(ids[kept], coded[kept])
            keys, owners = self._edge_memo.items()
            if keys.size:
                own = (keys.view(np.uint64) >> _SHIFT32).astype(np.int64)
                keep = ~np.isin(own, ids[moved])
                self._edge_memo = _table(keys[keep], owners[keep])
        fresh = ~known | moved
        if fresh.any():
            self._learn_split(ids[fresh], k_new[fresh])
        return ids[moved]

    def _reset_ring_tier(self) -> None:
        self._ring_memo = _table()  # vertex -> ring owner
        self._r_scalar: Dict[int, int] = {}

    def _reset_split_tier(self) -> None:
        # vertex -> its ring owner where k == 1, else -k
        self._split_memo = _table()
        self._edge_memo = _table()  # packed (own, other) -> owner
        self._replica_sets: Dict[int, List[int]] = {}

    def _require_placer(self) -> EdgePlacer:
        if self._placer is None:
            raise RuntimeError("PlacementCache used before bind()")
        return self._placer

    # -- lookups -----------------------------------------------------------

    def owner_of_edges(self, own_vertices, other_vertices) -> np.ndarray:
        """Cached, vectorized :meth:`EdgePlacer.owner_of_edges`.

        Rows owned by a vertex the registry does not let replicate are
        answered by the ring tier, the rest by the split tier.  Only
        misses reach the wrapped placer, once per distinct vertex, and
        their results are learned.
        """
        placer = self._require_placer()
        own = np.atleast_1d(np.asarray(own_vertices, dtype=np.int64))
        other = np.atleast_1d(np.asarray(other_vertices, dtype=np.int64))
        if own.shape != other.shape:
            raise ValueError(f"ragged edge arrays: {own.shape} vs {other.shape}")
        n = own.size
        if n == 0:
            self.last_hits = self.last_misses = 0
            return np.empty(0, dtype=np.int64)
        gated = placer.gated(own)
        if not gated.any():
            owners, hit = self._ring_lookup(own)
        elif gated.all():
            owners, hit = self._split_lookup(own, other)
        else:
            plain = ~gated
            owners = np.empty(n, dtype=np.int64)
            hit = np.empty(n, dtype=bool)
            owners[plain], hit[plain] = self._ring_lookup(own[plain])
            owners[gated], hit[gated] = self._split_lookup(own[gated], other[gated])
        self.last_hits = int(np.count_nonzero(hit))
        self.last_misses = n - self.last_hits
        self.counters.add("placement_cache_hits", self.last_hits)
        self.counters.add("placement_cache_misses", self.last_misses)
        return owners

    def ring_owners(self, vertices) -> np.ndarray:
        """Cached :meth:`EdgePlacer.ring_owners`: where each vertex's
        edges live while it is not split."""
        verts = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        return self._ring_lookup(verts)[0]

    def replication_factor(self, vertices) -> np.ndarray:
        """Cached :meth:`EdgePlacer.replication_factor` (k >= 1)."""
        placer = self._require_placer()
        verts = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        k = np.ones(verts.size, dtype=np.int64)
        gated = placer.gated(verts)
        if gated.any():
            k[gated] = self._candidates(verts[gated])[0]
        return k

    def replica_set(self, vertex: int) -> List[int]:
        """Cached :meth:`EdgePlacer.replica_set`.

        A vertex outside the registry has one replica, its ring owner,
        and that memo lives in the ring tier.  Both memos honour the
        ``max_vertices`` bound: once full they stop admitting
        (serving-plane proxies probe this per query, and an unbounded
        per-vertex dict would grow with the key population rather than
        the working set).
        """
        v = int(vertex)
        placer = self._require_placer()
        gate = placer.split_gate
        if gate is not None and v not in gate:
            owner = self._r_scalar.get(v)
            if owner is None:
                owner = placer.primary_of(v)
                if len(self._r_scalar) < self.max_vertices:
                    self._r_scalar[v] = owner
            return [owner]
        reps = self._replica_sets.get(v)
        if reps is None:
            reps = placer.replica_set(v)
            if len(self._replica_sets) < self.max_vertices:
                self._replica_sets[v] = reps
        return list(reps)

    def replica_matrix(self, vertices):
        """Batched replica sets; delegates to the vectorized placer."""
        return self._require_placer().replica_matrix(vertices)

    # -- the two tiers -------------------------------------------------------

    def _ring_lookup(self, verts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(ring owners, served-from-memo mask) for ``verts``."""
        owners, hit = self._ring_memo.get(verts)
        n_hit = int(np.count_nonzero(hit))
        self.counters.add("placement_ring_memo_hits", n_hit)
        if n_hit == verts.size:
            return owners, hit
        miss = ~hit
        fresh, inverse = distinct(verts[miss], return_inverse=True)
        fresh_owner = self._require_placer().ring_owners(fresh)
        owners[miss] = fresh_owner[inverse]
        if len(self._ring_memo) + fresh.size <= self.max_vertices:
            self._ring_memo.put(fresh, fresh_owner)
        return owners, hit

    def _candidates(
        self, verts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(replication factor, ring owner where the factor is 1,
        served-from-memo mask) for vertices the registry lets replicate."""
        coded, known = self._split_memo.get(verts)
        if not known.all():
            unknown = ~known
            fresh, inverse = distinct(verts[unknown], return_inverse=True)
            fresh_k = self._require_placer().replication_factor(fresh)
            coded[unknown] = self._learn_split(fresh, fresh_k)[inverse]
        return np.maximum(-coded, 1), np.maximum(coded, -1), known

    def _learn_split(self, fresh: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The split-memo codes of the distinct vertices ``fresh``, whose
        replication factors are ``k``; learned if they all fit."""
        coded = np.where(k == 1, self._placer.ring_owners(fresh), -k)
        if len(self._split_memo) + fresh.size <= self.max_vertices:
            self._split_memo.put(fresh, coded)
        return coded

    def _split_lookup(
        self, own: np.ndarray, other: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(owners, served-from-memo mask) for rows whose owning vertex
        the registry lets replicate."""
        k, owners, hit = self._candidates(own)
        split = np.flatnonzero(k > 1)
        if split.size:
            owners[split], memo_hit = self._split_owners(own[split], other[split])
            hit[split] &= memo_hit
        return owners, hit

    def _split_owners(
        self, own: np.ndarray, other: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(owners, served-from-memo mask) for edges of split vertices."""
        owners = np.empty(own.size, dtype=np.int64)
        hit = np.zeros(own.size, dtype=bool)
        packable = _packable(own, other)
        if len(self._edge_memo) and packable.any():
            rows = np.flatnonzero(packable)
            memo, found = self._edge_memo.get(_pack(own[rows], other[rows]))
            owners[rows[found]] = memo[found]
            hit[rows[found]] = True
        if not hit.all():
            miss = ~hit
            owners[miss] = self._require_placer().owner_of_edges(own[miss], other[miss])
            learn = miss & packable
            if learn.any():
                self._learn_edges(_pack(own[learn], other[learn]), owners[learn])
        return owners, hit

    def _learn_edges(self, keys: np.ndarray, owners: np.ndarray) -> None:
        """Learn packed edge keys the memo lacks, the first row of a
        repeated key winning; a batch that would overfill the memo
        restarts it instead (rather than evict piecemeal), unless it
        alone is too large."""
        n_new = distinct(keys).size
        if len(self._edge_memo) + n_new > self.max_edges:
            if n_new <= self.max_edges:
                self._edge_memo = _table(keys, owners)
            return
        self._edge_memo.put(keys, owners)


def _table(keys=None, values=None):
    """A new id table (:func:`repro.kernels.id_table`), holding
    ``keys -> values`` if given."""
    table = kernels.id_table()
    if keys is not None:
        table.put(keys, values)
    return table


def _packable(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows whose endpoints both fit the collision-free 32+32 packing."""
    return (a >= 0) & (a < _U32_LIMIT) & (b >= 0) & (b < _U32_LIMIT)


def _pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 edge key per row (``a`` high, ``b`` low 32 bits)."""
    return ((a.astype(np.uint64) << _SHIFT32) | b.astype(np.uint64)).view(np.int64)
