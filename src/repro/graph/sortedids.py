"""Merge operations over sorted id columns.

An id column here is a 1-d int64 array sorted ascending with no
duplicates: ``ValueColumn.ids``, ``IdSet.ids`` and an ``EdgeStore``'s
``unique_keys`` (:mod:`repro.cluster.edgestore`), the vertex table's
ids and the replica round's vertex sets.  Joining two of them is
therefore a merge, and these functions are the one implementation of
it: :func:`members` (one ``searchsorted``), :func:`union` (two sorted
runs), :func:`merge_rows` (splice absent rows in), and :func:`distinct`
(``np.unique`` that skips the sort for a batch already in order; the
placement cache uses it to deduplicate a lookup batch's misses).  None
of them re-sorts what is already sorted.

A column of ``(key, other)`` edge pairs sorts the same way once it is
one 1-d column (:func:`pair_column`): a packed int64 ``(key << 31) |
other`` when both ids fit 31 unsigned bits (:func:`packable`), else
:data:`PAIR_DTYPE` records, which numpy orders field by field.  No store
keeps such a column — an ``EdgeStore`` is its two ``(keys, others)``
columns — and its one reader is the numpy reference of the edge-store
merge (:mod:`repro.kernels.reference`), which builds one per call.

>>> import numpy as np
>>> ids = np.array([2, 5, 9])
>>> members(ids, np.array([5, 6])).tolist()
[True, False]
>>> union(ids, np.array([1, 5])).tolist()
[1, 2, 5, 9]
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: A (key, other) pair for ids that do not pack: ordered by key, then
#: other, as signed int64s.
PAIR_DTYPE = np.dtype([("k", np.int64), ("o", np.int64)])
_PACK_LIMIT = np.int64(1) << np.int64(31)


def found_at(column: np.ndarray, at: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether ``column[at] == query``, for ``at`` from a left
    ``searchsorted`` of ``query`` against the sorted ``column``."""
    if len(column) == 0:
        return np.zeros(len(query), dtype=bool)
    return column[np.minimum(at, len(column) - 1)] == query


def _splice(old_rows: np.ndarray, slots: np.ndarray, base: np.ndarray, added: np.ndarray):
    out = np.empty(len(old_rows), dtype=base.dtype)
    out[slots] = added
    out[old_rows] = base
    return out


def increasing(ids: np.ndarray) -> bool:
    """Whether ``ids`` is strictly increasing: sorted, no duplicates."""
    return len(ids) < 2 or bool((ids[1:] > ids[:-1]).all())


def distinct(ids: np.ndarray, return_inverse: bool = False):
    """``np.unique(ids, return_inverse=...)`` over a 1-d integer array.

    A non-decreasing batch is deduplicated by one mask instead of a
    sort, and a strictly increasing one is returned as is — the caller's
    own array, so copy it before keeping it."""
    first = np.ones(len(ids), dtype=bool)
    np.greater(ids[1:], ids[:-1], out=first[1:])
    if first.all():
        out = ids
    elif (ids[1:] >= ids[:-1]).all():
        out = ids[first]
    else:
        return np.unique(ids, return_inverse=return_inverse)
    return (out, np.cumsum(first) - 1) if return_inverse else out


def members(column: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether each ``query`` id is in the sorted, distinct ``column``:
    one ``searchsorted``, no sort of either side."""
    return found_at(column, np.searchsorted(column, query), query)


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted union of two sorted, distinct id runs, as a new array.

    A stable sort of the concatenation is a timsort, which finds the two
    runs and merges them in one linear pass; one mask then drops the ids
    both runs hold."""
    both = np.concatenate((a, b))
    if len(both) < 2:
        return both
    both.sort(kind="stable")
    keep = np.empty(len(both), dtype=bool)
    keep[0] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


def merge_rows(at: np.ndarray, *columns: Tuple[np.ndarray, np.ndarray]) -> List[np.ndarray]:
    """Splice rows into sorted parallel columns without a sort.

    Each of ``columns`` is a ``(base, added)`` pair; ``at`` holds, for
    each added row in order, the base row it goes before (a left
    ``searchsorted`` of ids absent from the base, so non-decreasing).
    Returns the merged columns, new arrays sharing no memory with either
    side."""
    slots = at + np.arange(len(at))
    old_rows = np.ones(len(columns[0][0]) + len(at), dtype=bool)
    old_rows[slots] = False
    return [_splice(old_rows, slots, base, added) for base, added in columns]


def packable(keys: np.ndarray, others: np.ndarray) -> bool:
    """Whether every id of both columns fits 31 unsigned bits, so that
    ``(key << 31) | other`` orders as the pair does."""
    return not len(keys) or (
        keys.min() >= 0
        and others.min() >= 0
        and keys.max() < _PACK_LIMIT
        and others.max() < _PACK_LIMIT
    )


def pair_column(keys: np.ndarray, others: np.ndarray, records: bool) -> np.ndarray:
    """(key, other) pairs as one sortable 1-d column: :data:`PAIR_DTYPE`
    records, or packed int64s (the caller has checked :func:`packable`)."""
    if records:
        rec = np.empty(len(keys), dtype=PAIR_DTYPE)
        rec["k"] = keys
        rec["o"] = others
        return rec
    return (keys << np.int64(31)) | others


def unpack_pairs(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pair_column`: contiguous (keys, others)."""
    if pairs.dtype == PAIR_DTYPE:
        return np.ascontiguousarray(pairs["k"]), np.ascontiguousarray(pairs["o"])
    return pairs >> np.int64(31), pairs & (_PACK_LIMIT - 1)


def distinct_pairs(pairs: np.ndarray) -> np.ndarray:
    """Sorted distinct pairs of a :func:`pair_column`; a packed batch
    already in order is not re-sorted."""
    return np.unique(pairs) if pairs.dtype == PAIR_DTYPE else distinct(pairs)
