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


def pagerank_apply(agg: np.ndarray, base: float, damping: float) -> np.ndarray:
    """The PageRank apply formula, elementwise: ``base + damping*agg``."""
    return base + damping * agg
