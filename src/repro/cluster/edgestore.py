"""Array-native shard storage: edge stores, value columns, dirty log.

An agent's shard — adjacency and per-program vertex state — lives in
sorted arrays whose *batch* operations are numpy vectorized end to
end.  These classes are the only shape that state takes: in memory, in
checkpoints, in the WAL and in migration payloads.  All mutation is
batched; a read-only dict/set surface (``in``, iteration, ``items``,
``to_dict``/``from_dict``, ``==`` against plain dicts) remains for
tests and result inspection.

* :class:`EdgeStore` — one shard role's edge copies as a CSR:
  ``unique_keys`` (the keyed vertices, ascending), ``starts`` (each
  key's first row, then the row count) and ``others`` (each row's other
  endpoint, ascending within a key), all int64, and nothing beside them.
  A key's lookups (``degree``, ``neighbors``, ``rows_keyed_by``, ``in``)
  are one search into ``unique_keys`` and a slice of ``starts``; the
  per-row key column exists only on demand (``arrays()``, a
  ``np.repeat``, and ``keys_of(rows)``, a search into ``starts``).
  ``version`` is the mutation counter callers can key caches on.
  ``apply`` ingests a whole mutation batch at once — one pass of
  :func:`repro.kernels.merge_edges`, which takes and returns the CSR —
  and reports the *effective* rows (duplicates and no-ops dropped) in
  deterministic inserts-then-removes, (key, other)-sorted order.
  Every change *replaces* the three columns, and they are read-only
  (``writeable=False``), so ``copy()`` shares them in O(1).
* :class:`ValueColumn` — a ``{vertex: float}`` mapping as id-indexed
  ndarray columns with vectorized ``lookup``/``set_many``/``select``
  joins.
* :class:`IdSet` — a ``Set[int]`` as a sorted id array.
* :class:`DirtyLog` — the mutation dirty log as array batches with
  row-count watermarks; batches are frozen when appended, so
  ``copy()`` shares them too.

Every id column here — ``ValueColumn.ids``, ``IdSet.ids``, an
``EdgeStore``'s ``unique_keys`` — is sorted ascending with no
duplicates, so joining two of them is a merge:
:mod:`repro.graph.sortedids` holds the operations.

Sorting uses signed int64 comparison throughout, so negative vertex
ids order consistently everywhere.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro import kernels
from repro.graph.sortedids import (
    distinct,
    found_at,
    increasing,
    members,
    merge_rows,
    segments,
    union,
)

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I64.flags.writeable = False
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def _as_i64(arr) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(arr), dtype=np.int64)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, refusing writes from now on.  For arrays this
    module made and shares: a missed in-place write raises instead of
    reaching every copy that holds the array."""
    arr.flags.writeable = False
    return arr


def _owned(arr) -> np.ndarray:
    """``arr`` as a frozen int64 column: frozen in place when it owns
    its buffer, a frozen copy when it is a view of someone else's (or
    needs another dtype or layout)."""
    arr = _as_i64(arr)
    return _frozen(arr if arr.flags.owndata else arr.copy())


def _ro(view: np.ndarray) -> np.ndarray:
    view = view.view()
    view.flags.writeable = False
    return view


class EdgeStore:
    """One adjacency role's edges as a CSR.

    Invariants: ``unique_keys`` is strictly increasing; ``starts`` holds
    one offset per key and a last one, ``n_edges``, strictly increasing
    from 0, so no key has an empty segment; key ``i``'s others are
    ``others[starts[i]:starts[i + 1]]``, strictly increasing.  The three
    columns are int64 and read-only: a change builds new ones, never
    edits them, so copies share them.
    """

    __slots__ = ("_unique_keys", "_starts", "_others", "_version")

    def __init__(self, keys: Optional[np.ndarray] = None, others: Optional[np.ndarray] = None):
        # ``(keys, others)`` rows in (key, other) order.  The caller
        # keeps its arrays writable: the store freezes copies.
        keys = _EMPTY_I64 if keys is None else _as_i64(keys)
        self._unique_keys, self._starts = map(_frozen, segments(keys))
        self._others = _frozen(np.array(_EMPTY_I64 if others is None else others, dtype=np.int64))
        self._version = 0

    # -- construction / conversion -------------------------------------

    @classmethod
    def from_dict(cls, store: Dict[int, Set[int]]) -> "EdgeStore":
        pairs = [(k, o) for k, vals in store.items() for o in vals]
        if not pairs:
            return cls()
        arr = np.asarray(pairs, dtype=np.int64)
        keys, others = arr[:, 0], arr[:, 1]
        order = np.lexsort((others, keys))
        return cls(keys[order], others[order])

    def to_dict(self) -> Dict[int, Set[int]]:
        out: Dict[int, Set[int]] = {}
        for key, nbrs in self.items():
            out[key] = set(map(int, nbrs))
        return out

    def copy(self) -> "EdgeStore":
        """An independent store in O(1): it shares the frozen columns,
        which a change to either store replaces rather than edits."""
        out = EdgeStore()
        out._unique_keys, out._starts, out._others = self._csr()
        return out

    # -- array access ---------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every state change, so callers
        can key derived caches on it."""
        return self._version

    @property
    def n_edges(self) -> int:
        return len(self._others)

    @property
    def unique_keys(self) -> np.ndarray:
        """Sorted distinct keyed vertices (read-only view)."""
        return _ro(self._unique_keys)

    @property
    def starts(self) -> np.ndarray:
        """Row offset of each key's segment, and ``n_edges`` last
        (read-only view)."""
        return _ro(self._starts)

    @property
    def others(self) -> np.ndarray:
        """Every row's other endpoint, in row order (read-only view)."""
        return _ro(self._others)

    @property
    def key_counts(self) -> np.ndarray:
        """Rows per distinct key, aligned with :attr:`unique_keys`."""
        return np.diff(self._starts)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(keys, others)`` rows, keys ascending and others
        ascending within each key.  The key column is built per call
        (one ``np.repeat``); ``others`` is the store's own."""
        return _frozen(np.repeat(self._unique_keys, self.key_counts)), _ro(self._others)

    def keys_of(self, rows: np.ndarray) -> np.ndarray:
        """The key of each of the given rows."""
        return self._unique_keys[np.searchsorted(self._starts, rows, side="right") - 1]

    def _bounds(self, vertices) -> Tuple[np.ndarray, np.ndarray]:
        """(first row, end row) of each vertex's segment (one vertex or
        an array of them); both the row its segment would start at when
        the vertex keys no row."""
        at = np.searchsorted(self._unique_keys, vertices)
        found = found_at(self._unique_keys, at, vertices)
        return self._starts[at], self._starts[at + found]

    def rows_keyed_by(self, vertices: np.ndarray) -> np.ndarray:
        """Ascending row indices of every edge keyed by one of the
        (sorted, distinct) ``vertices``."""
        lo, hi = self._bounds(_as_i64(vertices))
        counts = hi - lo
        before = np.cumsum(counts) - counts
        return np.repeat(lo - before, counts) + np.arange(int(counts.sum()))

    def neighbors(self, vertex: int) -> np.ndarray:
        """The sorted adjacency of ``vertex`` (read-only view; empty if
        absent)."""
        lo, hi = self._bounds(vertex)
        return self._others[lo:hi]

    def get(self, vertex: int, default=None):
        nbrs = self.neighbors(vertex)
        return default if default is not None and not len(nbrs) else nbrs

    def degree(self, vertex: int) -> int:
        return len(self.neighbors(vertex))

    def degrees(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized per-vertex degree lookup."""
        lo, hi = self._bounds(_as_i64(vertices))
        return hi - lo

    # -- read-only dict surface ---------------------------------------

    def __contains__(self, vertex) -> bool:
        return self.degree(int(vertex)) > 0

    def __iter__(self) -> Iterator[int]:
        return iter(map(int, self._unique_keys))

    def __len__(self) -> int:
        return len(self._unique_keys)

    def __bool__(self) -> bool:
        return len(self._others) > 0

    def __getitem__(self, vertex: int) -> np.ndarray:
        nbrs = self.neighbors(int(vertex))
        if len(nbrs) == 0:
            raise KeyError(vertex)
        return nbrs

    def items(self) -> Iterator[Tuple[int, np.ndarray]]:
        starts = self._starts.tolist()
        for i, key in enumerate(self._unique_keys.tolist()):
            yield key, self._others[starts[i]:starts[i + 1]]

    def keys(self) -> Iterator[int]:
        return iter(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeStore):
            return all(map(np.array_equal, self._csr(), other._csr()))
        if isinstance(other, dict):
            mine = {k for k, _ in self.items()}
            theirs = {int(k) for k, v in other.items() if len(v)}
            if mine != theirs:
                return False
            for key, nbrs in self.items():
                if set(map(int, nbrs)) != {int(v) for v in other[key]}:
                    return False
            return True
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- mutation -------------------------------------------------------

    def _csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._unique_keys, self._starts, self._others

    def _set(self, csr: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        self._unique_keys, self._starts, self._others = map(_frozen, csr)
        self._version += 1

    def contains_pairs(self, keys: np.ndarray, others: np.ndarray) -> np.ndarray:
        """Vectorized membership test for (key, other) pairs."""
        return kernels.reference.locate_pairs(*self._csr(), _as_i64(keys), _as_i64(others))[1]

    def apply(
        self, keys: np.ndarray, others: np.ndarray, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply one batch of edge mutations (+1 insert / -1 remove).

        Returns the *effective* rows as ``(keys, others, actions)``
        arrays in deterministic (inserts lexsorted, then removes
        lexsorted) order — duplicates and no-ops drop out exactly as a
        row-by-row walk would.  A batch that both inserts and removes
        the same pair is the one case routed through the sequential
        fallback, preserving strict batch order.

        Only the batch is sorted: :func:`repro.kernels.merge_edges`
        locates each pair in the CSR and writes the new one in a
        single O(S + b) pass.
        """
        keys = _as_i64(keys)
        others = _as_i64(others)
        actions = np.asarray(actions)
        if len(keys) == 0:
            return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
        merged = kernels.merge_edges(*self._csr(), keys, others, actions > 0)
        if merged is None:
            return self._apply_sequential(keys, others, actions)
        eff_k, eff_o, n_adds, csr = merged
        if csr is not None:
            self._set(csr)
        eff_a = np.ones(len(eff_k), dtype=np.int64)
        eff_a[n_adds:] = -1
        return eff_k, eff_o, eff_a

    def _apply_sequential(
        self, keys: np.ndarray, others: np.ndarray, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Strict batch-order fallback (same pair inserted *and*
        removed in one batch): replay through a transient dict."""
        store = self.to_dict()
        eff: List[Tuple[int, int, int]] = []
        for i in range(len(keys)):
            key = int(keys[i])
            val = int(others[i])
            bucket = store.get(key)
            if actions[i] > 0:
                if bucket is None:
                    bucket = store[key] = set()
                if val not in bucket:
                    bucket.add(val)
                    eff.append((key, val, 1))
            else:
                if bucket is not None and val in bucket:
                    bucket.remove(val)
                    eff.append((key, val, -1))
                    if not bucket:
                        del store[key]
        self._set(EdgeStore.from_dict(store)._csr())
        if not eff:
            return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
        arr = np.asarray(eff, dtype=np.int64)
        return arr[:, 0], arr[:, 1], arr[:, 2]

    def remove_pairs(self, keys: np.ndarray, others: np.ndarray) -> int:
        """Drop the given pairs: the same merge as :meth:`apply` with
        every row a removal.  Returns how many were present."""
        if len(keys) == 0:
            return 0
        removals = np.zeros(len(keys), dtype=bool)
        eff_k, _, _, csr = kernels.merge_edges(
            *self._csr(), _as_i64(keys), _as_i64(others), removals
        )
        if csr is not None:
            self._set(csr)
        return len(eff_k)


class ValueColumn:
    """A ``{vertex_id: float}`` mapping as id-indexed ndarray columns.

    ``ids`` is sorted unique int64; ``vals`` is parallel float64.  The
    read-only scalar surface exists for tests and cold paths; writes go
    through ``set_many``/``restrict``, hot reads through the vectorized
    ``lookup``/``select`` joins.
    """

    __slots__ = ("ids", "vals")

    def __init__(self, ids: Optional[np.ndarray] = None, vals: Optional[np.ndarray] = None):
        self.ids = _EMPTY_I64 if ids is None else _as_i64(ids)
        self.vals = (
            _EMPTY_F64
            if vals is None
            else np.ascontiguousarray(np.asarray(vals), dtype=np.float64)
        )

    @classmethod
    def from_dict(cls, d: Dict[int, float]) -> "ValueColumn":
        if not d:
            return cls()
        ids = np.fromiter(d.keys(), dtype=np.int64, count=len(d))
        vals = np.fromiter(d.values(), dtype=np.float64, count=len(d))
        order = np.argsort(ids, kind="stable")
        return cls(ids[order], vals[order])

    def to_dict(self) -> Dict[int, float]:
        return {int(i): float(v) for i, v in zip(self.ids, self.vals)}

    def copy(self) -> "ValueColumn":
        return ValueColumn(self.ids.copy(), self.vals.copy())

    def __len__(self) -> int:
        return len(self.ids)

    def __bool__(self) -> bool:
        return len(self.ids) > 0

    def __contains__(self, vertex) -> bool:
        pos = np.searchsorted(self.ids, int(vertex))
        return pos < len(self.ids) and self.ids[pos] == int(vertex)

    def __iter__(self) -> Iterator[int]:
        return iter(map(int, self.ids))

    def keys(self) -> Iterator[int]:
        return iter(self)

    def values(self) -> Iterator[float]:
        return iter(map(float, self.vals))

    def items(self) -> Iterator[Tuple[int, float]]:
        return ((int(i), float(v)) for i, v in zip(self.ids, self.vals))

    def get(self, vertex: int, default=None):
        pos = np.searchsorted(self.ids, int(vertex))
        if pos < len(self.ids) and self.ids[pos] == int(vertex):
            return float(self.vals[pos])
        return default

    def __getitem__(self, vertex: int) -> float:
        val = self.get(vertex)
        if val is None:
            raise KeyError(vertex)
        return val

    def __eq__(self, other) -> bool:
        if isinstance(other, ValueColumn):
            return np.array_equal(self.ids, other.ids) and np.array_equal(
                self.vals, other.vals
            )
        if isinstance(other, dict):
            if len(other) != len(self.ids):
                return False
            return all(other.get(int(i)) == float(v) for i, v in zip(self.ids, self.vals))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- vectorized joins ----------------------------------------------

    def lookup(self, ids: np.ndarray, default: float = np.nan) -> Tuple[np.ndarray, np.ndarray]:
        """(values, found) for each queried id; missing ids get
        ``default`` and found=False."""
        ids = _as_i64(ids)
        if len(self.ids) == 0 or len(ids) == 0:
            return np.full(len(ids), default), np.zeros(len(ids), dtype=bool)
        pos = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
        found = self.ids[pos] == ids
        return np.where(found, self.vals[pos], default), found

    def set_many(self, ids: np.ndarray, vals: np.ndarray) -> None:
        """Upsert a batch (last write wins within the batch).

        A strictly increasing batch skips the sort; ids the column lacks
        are spliced in by :func:`merge_rows`.  The column never keeps a
        reference to the caller's arrays."""
        ids = _as_i64(ids)
        vals = np.ascontiguousarray(np.asarray(vals), dtype=np.float64)
        if len(ids) == 0:
            return
        if not increasing(ids):
            order = np.argsort(ids, kind="stable")
            ids, vals = ids[order], vals[order]
            last = np.empty(len(ids), dtype=bool)
            last[-1] = True
            np.not_equal(ids[1:], ids[:-1], out=last[:-1])
            ids, vals = ids[last], vals[last]
        if len(self.ids) == 0:
            self.ids, self.vals = ids.copy(), vals.copy()
            return
        at = np.searchsorted(self.ids, ids)
        hit = found_at(self.ids, at, ids)
        if hit.any():
            self.vals[at[hit]] = vals[hit]
        if not hit.all():
            miss = ~hit
            self.ids, self.vals = merge_rows(
                at[miss], (self.ids, ids[miss]), (self.vals, vals[miss])
            )

    def select(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(present ids, their values) — the subset join used to ship
        migrating vertices' state."""
        vals, found = self.lookup(ids)
        ids = _as_i64(ids)
        return ids[found], vals[found]

    def restrict(self, ids: np.ndarray) -> None:
        """Drop every entry whose id is not in the sorted, distinct
        ``ids``."""
        if len(self.ids) == 0:
            return
        keep = members(_as_i64(ids), self.ids)
        if not keep.all():
            self.ids = self.ids[keep]
            self.vals = self.vals[keep]


class IdSet:
    """A ``Set[int]`` as a sorted unique int64 array."""

    __slots__ = ("ids",)

    def __init__(self, ids: Optional[np.ndarray] = None):
        if ids is None:
            self.ids = _EMPTY_I64
        else:
            self.ids = np.unique(_as_i64(ids))

    def to_set(self) -> Set[int]:
        return set(map(int, self.ids))

    def copy(self) -> "IdSet":
        out = IdSet()
        out.ids = self.ids.copy()
        return out

    def __len__(self) -> int:
        return len(self.ids)

    def __bool__(self) -> bool:
        return len(self.ids) > 0

    def __contains__(self, vertex) -> bool:
        pos = np.searchsorted(self.ids, int(vertex))
        return pos < len(self.ids) and self.ids[pos] == int(vertex)

    def __iter__(self) -> Iterator[int]:
        return iter(map(int, self.ids))

    def __eq__(self, other) -> bool:
        if isinstance(other, IdSet):
            return np.array_equal(self.ids, other.ids)
        if isinstance(other, (set, frozenset)):
            return self.to_set() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def update(self, ids: np.ndarray) -> None:
        """Add a batch of ids (any order, repeats allowed)."""
        if len(ids):
            self.ids = union(self.ids, distinct(_as_i64(ids)))

    def restrict(self, ids: np.ndarray) -> None:
        """Drop every id not in the sorted, distinct ``ids``."""
        if len(self.ids):
            self.ids = self.ids[members(_as_i64(ids), self.ids)]

    def assign(self, universe: np.ndarray, member: np.ndarray) -> None:
        """Batch re-assignment over the sorted, distinct ``universe``:
        ids in universe are members iff their mask bit is set; ids
        outside are untouched."""
        universe = _as_i64(universe)
        outside = self.ids[~members(universe, self.ids)]
        self.ids = union(outside, universe[member])

    def isin(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized membership of ``ids`` in this set."""
        return members(self.ids, _as_i64(ids))


class DirtyLog:
    """Effective mutation rows as array batches with row watermarks.

    Streaming ingest appends one ``(role, keys, others, actions)``
    array batch per applied update; delta runs slice suffixes, and
    programs keep consumption watermarks, by *row count*.  Batches are
    frozen as they are appended and never edited (``trim`` slices
    them), so a copy shares them.
    """

    __slots__ = ("_batches", "_rows")

    def __init__(self) -> None:
        self._batches: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows = 0

    def __len__(self) -> int:
        """Total rows over all batches."""
        return self._rows

    def append_batch(
        self, role: str, keys: np.ndarray, others: np.ndarray, actions: np.ndarray
    ) -> None:
        """Log one batch.  The log keeps the caller's arrays, frozen
        (see :func:`_owned`): the WAL record of the same rows shares
        them."""
        if len(keys) == 0:
            return
        self._batches.append((role, _owned(keys), _owned(others), _owned(actions)))
        self._rows += len(keys)

    def extend(self, batches) -> None:
        """Append ``(role, keys, others, actions)`` array batches."""
        for role, k, o, a in batches:
            self.append_batch(role, k, o, a)

    def copy(self) -> "DirtyLog":
        """An independent log sharing the frozen batch arrays."""
        out = DirtyLog()
        out._batches = list(self._batches)
        out._rows = self._rows
        return out

    def rows(self) -> Iterator[Tuple[str, int, int, int]]:
        """Flat ``(role, key, other, action)`` rows in append order, for
        tests."""
        for role, k, o, a in self._batches:
            for i in range(len(k)):
                yield role, int(k[i]), int(o[i]), int(a[i])

    def suffix(self, start_row: int) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Rows from ``start_row`` on, split by role into (keys,
        others, actions) arrays — the delta-run seed format."""
        parts: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        seen = 0
        for role, k, o, a in self._batches:
            end = seen + len(k)
            if end > start_row:
                lo = max(0, start_row - seen)
                parts.setdefault(role, []).append((k[lo:], o[lo:], a[lo:]))
            seen = end
        out: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for role, chunks in parts.items():
            out[role] = (
                np.concatenate([c[0] for c in chunks]),
                np.concatenate([c[1] for c in chunks]),
                np.concatenate([c[2] for c in chunks]),
            )
        return out

    def trim(self, n_rows: int) -> None:
        """Drop the first ``n_rows`` rows (watermark GC)."""
        if n_rows <= 0:
            return
        remaining = []
        to_cut = n_rows
        for role, k, o, a in self._batches:
            if to_cut >= len(k):
                to_cut -= len(k)
                continue
            if to_cut > 0:
                k, o, a = k[to_cut:], o[to_cut:], a[to_cut:]
                to_cut = 0
            remaining.append((role, k, o, a))
        self._batches = remaining
        self._rows = max(0, self._rows - n_rows)
