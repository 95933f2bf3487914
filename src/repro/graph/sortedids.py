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
of them re-sorts what is already sorted.  :func:`segments` turns a
non-decreasing key column into that id column plus the offsets of each
key's run: the CSR index an ``EdgeStore`` is built around.

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


def found_at(column: np.ndarray, at: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether ``column[at] == query``, for ``at`` from a left
    ``searchsorted`` of ``query`` against the sorted ``column``."""
    if len(column) == 0:
        return np.zeros(np.shape(query), dtype=bool)
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


def segments(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct keys, offsets) of a non-decreasing key column: key
    ``i``'s rows are ``offsets[i]:offsets[i + 1]``, and the offsets hold
    one entry more than the keys (``[0]`` for no rows)."""
    first = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    return keys[first[:-1]], np.flatnonzero(first)


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
