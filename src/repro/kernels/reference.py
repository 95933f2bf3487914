"""Pure-numpy reference implementations — the determinism oracle.

These are the *definitions* of what the C backend must reproduce bit
for bit.  They are also the production path wherever the C library
cannot be built, so they must match the historical agent/dataplane
code exactly (same lexsort, same ``ufunc.at`` fold, same dtypes).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

U64 = np.uint64


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


def pagerank_apply(agg: np.ndarray, base: float, damping: float) -> np.ndarray:
    """The PageRank apply formula, elementwise: ``base + damping*agg``."""
    return base + damping * agg
