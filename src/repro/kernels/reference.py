"""Pure-numpy reference implementations — the determinism oracle.

These are the *definitions* of what the C backend must reproduce bit
for bit.  They are also the production path wherever the C library
cannot be built, so they must match the historical agent/dataplane
code exactly (same lexsort, same ``ufunc.at`` fold, same dtypes).

The ingest kernels — the count-min sketch's :func:`sketch_query` and
:func:`sketch_add`, the edge placement of :func:`place_edges`, and the
edge-store merge of :func:`merge_edges` — are the numpy bodies those
classes' methods had, over the arrays the methods hold.  The edge store
is a CSR, ``(unique_keys, starts, others)``: :func:`locate_pairs` finds
pairs in it by one search into the keys and a bisection of each pair's
segment, and the merge expands the key column to splice, per call, as
an oracle may; the C merge walks the CSR as it is.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.graph.sortedids import found_at, merge_rows, segments

U64 = np.uint64

#: Second-level (rendezvous) hash constants: a replica's salt is
#: ``wang64(replica * HRW_STEP ^ HRW_SALT)``.
HRW_STEP = U64(0x9E3779B97F4A7C15)
HRW_SALT = U64(0xC2B2AE3D27D4EB4F)


def wang64_u64(key: np.ndarray) -> np.ndarray:
    """Thomas Wang's 64-bit mix over a uint64 array (pure numpy) — the
    one numpy spelling of it; :func:`repro.hashing.hashes.wang64` is
    dtype plumbing around the dispatcher that falls back to this.
    """
    key = key.copy()
    with np.errstate(over="ignore"):
        key = (~key) + (key << U64(21))
        key ^= key >> U64(24)
        key = (key + (key << U64(3))) + (key << U64(8))  # key * 265
        key ^= key >> U64(14)
        key = (key + (key << U64(2))) + (key << U64(4))  # key * 21
        key ^= key >> U64(28)
        key = key + (key << U64(31))
    return key


def combine_pairs(
    dst: np.ndarray, val: np.ndarray, ufunc: np.ufunc, identity: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical (dst, val)-ordered fold to one partial per dst."""
    if len(dst) == 0:
        return dst, val
    order = np.lexsort((val, dst))
    d = dst[order]
    v = val[order]
    boundaries = np.empty(len(d), dtype=bool)
    boundaries[0] = True
    np.not_equal(d[1:], d[:-1], out=boundaries[1:])
    unique_dst = d[boundaries]
    group = np.cumsum(boundaries) - 1
    acc = np.full(len(unique_dst), identity, dtype=np.float64)
    ufunc.at(acc, group, v)
    return unique_dst, acc


def fold_pairs(
    accum: np.ndarray,
    got: np.ndarray,
    ids: np.ndarray,
    dst: np.ndarray,
    val: np.ndarray,
    ufunc: np.ufunc,
) -> None:
    """Receive-side fold of a (dst, val) multiset into ``accum``.

    Sorts pairs canonically, locates each destination in the sorted
    ``ids`` table, folds in place, and marks ``got``.  Raises KeyError
    for destinations not present in ``ids``.
    """
    if len(dst) == 0:
        return
    order = np.lexsort((val, dst))
    d = dst[order]
    pos = np.searchsorted(ids, d)
    if len(d) and (
        pos.max(initial=0) >= len(ids)
        or not np.array_equal(ids[np.minimum(pos, len(ids) - 1)], d)
    ):
        raise KeyError("fold_pairs: destination not hosted in ids table")
    ufunc.at(accum, pos, val[order])
    got[pos] = True


def scatter_rows(
    rows: np.ndarray,
    vals: np.ndarray,
    off: np.ndarray,
    others: np.ndarray,
    owner: np.ndarray,
    cap: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every edge of the sending ``rows`` as a ``(dst, val)`` pair.

    Row ``r``'s edges are ``off[r]:off[r+1]`` of the CSR columns
    ``others`` (destination vertex) and ``owner`` (destination agent);
    ``vals[i]`` rides every edge of ``rows[i]``; ``cap`` is the exclusive
    prefix of the edges per agent (one entry more than agents).  Returns
    (dst, val, start, counts): agent ``a``'s pairs are
    ``[start[a], start[a] + counts[a])``, in row order then edge order.
    """
    starts = off[rows]
    degree = off[rows + 1] - starts
    edge = np.repeat(starts - (np.cumsum(degree) - degree), degree)
    edge += np.arange(len(edge))
    agent = owner[edge]
    order = np.argsort(agent, kind="stable")
    edge = edge[order]
    val = np.repeat(np.asarray(vals, dtype=np.float64), degree)[order]
    counts = np.bincount(agent, minlength=len(cap) - 1)
    return others[edge], val, np.cumsum(counts) - counts, counts


#: The one 32-bit value no entry may hold: the C table marks its empty
#: slots with it, and ``get`` answers it for an absent key on both
#: backends.
EMPTY = np.int64(np.iinfo(np.int32).min)
_I32_MAX = np.iinfo(np.int32).max


class IdTable:
    """int64 -> int32 map as two sorted parallel columns: the reference
    the open-addressed :class:`repro.kernels.CIdTable` must equal.

    ``get(keys) -> (values, found)`` answers int64 values, :data:`EMPTY`
    where a key is absent.  ``put(keys, values)`` learns the absent keys:
    a stored entry wins, and so does the first row of a key the batch
    repeats; a value that is not 32-bit, or is :data:`EMPTY`, is refused
    with ``ValueError`` (nothing learned), never truncated.  ``items()``
    lists the entries in key order.
    """

    def __init__(self):
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.int32)

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, keys) -> Tuple[np.ndarray, np.ndarray]:
        q = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if not len(self._keys):
            return np.full(q.size, EMPTY), np.zeros(q.size, dtype=bool)
        pos = np.minimum(np.searchsorted(self._keys, q), len(self._keys) - 1)
        found = self._keys[pos] == q
        return np.where(found, self._vals[pos], EMPTY), found

    def put(self, keys, values) -> None:
        k = np.ascontiguousarray(keys, dtype=np.int64)
        v = np.ascontiguousarray(values, dtype=np.int64)
        if k.ndim != 1 or k.shape != v.shape:
            raise ValueError("an id table needs 1-d keys and values of one length")
        if v.size and (v.min() <= EMPTY or v.max() > _I32_MAX):
            raise ValueError("id table values must be 32-bit and above INT32_MIN")
        k, first = np.unique(k, return_index=True)
        fresh = ~self.get(k)[1]
        at = np.searchsorted(self._keys, k[fresh])
        self._keys = np.insert(self._keys, at, k[fresh])
        self._vals = np.insert(self._vals, at, v[first][fresh].astype(np.int32))

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._keys.copy(), self._vals.astype(np.int64)


def sketch_columns(salts: np.ndarray, keys: np.ndarray, width: int) -> np.ndarray:
    """(depth, n) counter columns of uint64 ``keys``: row ``r`` hashes
    ``key ^ salts[r]`` and takes it modulo ``width``."""
    with np.errstate(over="ignore"):
        mixed = wang64_u64(keys[None, :] ^ salts[:, None])
    return (mixed % U64(width)).astype(np.int64)


def sketch_query(
    salts: np.ndarray, keys: np.ndarray, table: np.ndarray, plus: Optional[np.ndarray] = None
) -> np.ndarray:
    """Count-min estimates of ``keys``: the least counter of each key's
    columns in ``table``, plus the same in ``plus`` (a table of the same
    shape and salts) if given, as int64."""
    idx = sketch_columns(salts, keys, table.shape[1])
    rows = np.arange(len(salts))[:, None]
    estimates = table[rows, idx].min(axis=0).astype(np.int64)
    if plus is not None:
        estimates += plus[rows, idx].min(axis=0).astype(np.int64)
    return estimates


def sketch_add(salts: np.ndarray, keys: np.ndarray, table: np.ndarray, counts: np.ndarray) -> None:
    """Add ``counts`` (one per key) to every row's counter of each key,
    in place; a key the batch repeats adds each of its counts.  A
    read-only table (one shared copy-on-write) is refused: ``np.add.at``
    would write through its flag."""
    if not table.flags.writeable:
        raise ValueError("sketch table is read-only")
    idx = sketch_columns(salts, keys, table.shape[1])
    for row in range(len(salts)):
        np.add.at(table[row], idx[row], counts)


def place_edges(
    ring,
    hash_fn: Callable,
    own: np.ndarray,
    other: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Owning member of each int64 ``own`` vertex on ``ring`` (a
    :class:`~repro.hashing.ring.ConsistentHashRing`), keyed by
    ``hash_fn``: the first position at or after the vertex's hash.

    With replication factors ``k`` (capped at the member count), a row
    whose ``k > 1`` is placed among the ``k`` distinct members from that
    position on by the highest rendezvous weight of its ``other``
    endpoint (:func:`rendezvous_pick`).
    """
    own_hash = np.asarray(hash_fn(own.view(U64)))
    owners = ring.lookup_hash(own_hash)
    if k is None:
        return owners
    k = np.minimum(k, len(ring))
    split = np.nonzero(k > 1)[0]
    if len(split):
        owners = owners.copy()
        # Split vertices are few (only hubs); the replica walk is
        # amortized per unique vertex, then the second-level
        # rendezvous pick runs in matrix form over all split rows.
        other_hash = np.asarray(hash_fn(other[split].view(U64)))
        uniq, first, inverse = np.unique(own[split], return_index=True, return_inverse=True)
        k_uniq = k[split][first]
        replicas = ring.successors_hash_batch(own_hash[split][first], k_uniq)
        owners[split] = rendezvous_pick(replicas[inverse], k_uniq[inverse], other_hash)
    return owners


def rendezvous_pick(
    replica_rows: np.ndarray, ks: np.ndarray, other_hashes: np.ndarray
) -> np.ndarray:
    """Second-level consistent hash over per-row replica sets.

    ``replica_rows`` is ``(n, k_max)`` right-padded with ``-1``; row
    ``i`` holds ``ks[i]`` valid replicas.  Each replica's weight for an
    edge is ``wang64(salt(replica) ^ other_hash)``; the highest wins,
    the first of equal ones (padding weighs 0).  Adding a replica only
    claims the keys it now wins — minimal movement.
    """
    reps = replica_rows.astype(np.uint64)
    with np.errstate(over="ignore"):
        salted = wang64_u64(reps * HRW_STEP ^ HRW_SALT)
        weights = wang64_u64(salted ^ other_hashes[:, None].astype(np.uint64))
    k_max = replica_rows.shape[1]
    valid = np.arange(k_max, dtype=np.int64)[None, :] < ks[:, None]
    weights = np.where(valid, weights, U64(0))
    pick = np.argmax(weights, axis=1)
    return replica_rows[np.arange(len(replica_rows)), pick]


def sorted_pairs(keys: np.ndarray, others: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``(key, other)`` pairs of a batch, in (key, other)
    order."""
    order = np.lexsort((others, keys))
    keys, others = keys[order], others[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (others[1:] != others[:-1])
    return keys[first], others[first]


def locate_pairs(
    unique_keys: np.ndarray,
    starts: np.ndarray,
    store_others: np.ndarray,
    keys: np.ndarray,
    others: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(row, held) of each ``(key, other)`` pair in a CSR: the row that
    holds it, else the row it would go before.  One search into
    ``unique_keys``, then a bisection of every pair's segment at once."""
    at = np.searchsorted(unique_keys, keys)
    lo = starts[at]
    end = hi = starts[at + found_at(unique_keys, at, keys)]
    while (live := lo < hi).any():
        mid = (lo + hi) >> 1
        below = live & (store_others.take(mid, mode="clip") < others)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(live & ~below, mid, hi)
    return lo, (lo < end) & found_at(store_others, lo, others)


def merge_edges(
    unique_keys: np.ndarray,
    starts: np.ndarray,
    store_others: np.ndarray,
    keys: np.ndarray,
    others: np.ndarray,
    ins: np.ndarray,
):
    """One mutation batch against an edge store's CSR ``(unique_keys,
    starts, others)``.

    Row ``i`` of the batch inserts ``(keys[i], others[i])`` where
    ``ins[i]``, else removes it.  Returns None when the batch inserts
    and removes one pair (only a replay in batch order says what that
    means), else ``(keys, others, n_adds, csr)``: the effective rows —
    the distinct absent pairs inserted, sorted, then the distinct
    present pairs removed, sorted — with the first ``n_adds`` inserts,
    and the store's new CSR (None if nothing changed).  The oracle
    expands the store's key column to splice; the C kernel never does.
    """
    add_k, add_o = sorted_pairs(keys[ins], others[ins])
    del_k, del_o = sorted_pairs(keys[~ins], others[~ins])
    if len(add_k) and locate_pairs(*segments(add_k), add_o, del_k, del_o)[1].any():
        return None
    add_at, held = locate_pairs(unique_keys, starts, store_others, add_k, add_o)
    add_k, add_o, add_at = add_k[~held], add_o[~held], add_at[~held]
    del_at, held = locate_pairs(unique_keys, starts, store_others, del_k, del_o)
    del_k, del_o, del_at = del_k[held], del_o[held], del_at[held]
    csr = None
    if len(add_k) or len(del_k):
        store_keys = np.repeat(unique_keys, np.diff(starts))
        csr = splice_edges(store_keys, store_others, add_k, add_o, add_at, del_at)
    return np.concatenate([add_k, del_k]), np.concatenate([add_o, del_o]), len(add_k), csr


def splice_edges(
    store_keys: np.ndarray,
    store_others: np.ndarray,
    add_k: np.ndarray,
    add_o: np.ndarray,
    add_at: np.ndarray,
    del_at: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The new CSR ``(unique_keys, starts, others)`` of the rows
    ``(store_keys, store_others)`` with rows ``del_at`` dropped and the
    sorted, absent pairs ``(add_k, add_o)`` inserted before rows
    ``add_at`` (both row indices into the given rows) — masks and
    scatters, no re-sort."""
    keys, others = store_keys, store_others
    if len(del_at):
        keep = np.ones(len(keys), dtype=bool)
        keep[del_at] = False
        keys, others = keys[keep], others[keep]
        add_at = add_at - np.searchsorted(del_at, add_at)
    if len(add_k):
        keys, others = merge_rows(add_at, (keys, add_k), (others, add_o))
    return (*segments(keys), others)


def pagerank_apply(agg: np.ndarray, base: float, damping: float) -> np.ndarray:
    """The PageRank apply formula, elementwise: ``base + damping*agg``."""
    return base + damping * agg
