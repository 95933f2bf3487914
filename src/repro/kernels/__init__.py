"""The compiled kernels under the hottest array paths.

The data plane bottoms out in five kernels: the placement hash
(``wang64``), the scatter of a round's sending rows along their edges
(``scatter_rows``), the canonical pair combine (``combine_pairs``), the
receive-side fold (``fold_pairs``), and the id table behind every
placement memo (:func:`id_table`: one hash and a short probe per key,
where the reference searches a sorted column).  Ingest bottoms out in
three more, each one pass per batch: the count-min sketch's estimates
and updates (:func:`sketch_query`, :func:`sketch_add`), edge placement
on the ring with its second-level rendezvous pick (:func:`place_edges`,
for the wang64 hash only: a placer with another hash keeps the numpy
body), and the merge of a mutation batch into the edge store's CSR
(:func:`merge_edges`: the CSR in, the new CSR out).  This package
provides a C backend for them (compiled at first use with the system
compiler — see :mod:`repro.kernels.csrc`) plus the pure-numpy
reference (:mod:`repro.kernels.reference`) that *defines* correct
behaviour.

The backend is selected from what the machine has, and is strictly
bit-identical either way:

* The first dispatch (or :func:`backend` query) builds and loads the C
  library; if there is no compiler, the build fails, or the cache
  directory is not this user's own, production silently runs the numpy
  reference and :func:`build_error` says why.  No environment variable
  is read.
* :func:`set_enabled` is the one seam tests and ``bench_kernels.py``
  use to pin the reference (``False``) or go back to the C library.
* Parity is enforced by the hypothesis suite in
  ``tests/kernels`` (marker: ``kernels``): for every dtype and shard
  split, C results must equal the reference bit for bit.

Dispatch floors come from the measured crossover table in
``BENCH_kernels.json`` (``bench_kernels.py``, n = 16 … 4,096 through
these dispatchers, on batches shaped as a round sends them): C loses at
a size only when it is slower than numpy by more than 10 % in at least
9 of 10 alternating pairs.  It never does on ``wang64``,
``combine_pairs``, ``fold_pairs`` and the three ingest kernels, so no
kernel has a floor; ``scatter_rows`` walks a whole round's sending rows
per call and has none either; and the PageRank apply lost at every size
the cluster calls it with, so it has no C version at all.  The raw-pointer calls
check nothing themselves: the ``c_*`` wrappers own dtype, contiguity
and length, and pass every pointer through :func:`_address`.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Tuple

import numpy as np

from repro.kernels import csrc, reference
from repro.kernels.csrc import build_error

__all__ = [
    "available",
    "enabled",
    "set_enabled",
    "backend",
    "build_error",
    "wang64_u64",
    "combine_pairs",
    "fold_pairs",
    "scatter_rows",
    "pagerank_apply",
    "id_table",
    "sketch_query",
    "sketch_add",
    "place_edges",
    "merge_edges",
    "c_wang64_u64",
    "c_combine_pairs",
    "c_fold_pairs",
    "c_scatter_rows",
    "c_sketch_query",
    "c_sketch_add",
    "c_place_edges",
    "c_merge_edges",
    "CIdTable",
]

_OPCODES = {np.add: 0, np.minimum: 1, np.maximum: 2}

_UNRESOLVED = object()
#: What the dispatchers call into: the loaded C library, ``None`` for
#: the numpy reference, ``_UNRESOLVED`` until the first use builds it.
_lib = _UNRESOLVED


def _library():
    """The C library the dispatchers call, or None for the reference."""
    global _lib
    if _lib is _UNRESOLVED:
        _lib = csrc.load()
    return _lib


def available() -> bool:
    """Whether the C backend compiled and loaded successfully."""
    return csrc.load() is not None


def enabled() -> bool:
    """Whether dispatchers currently call the C backend."""
    return _library() is not None


def set_enabled(flag: bool) -> bool:
    """Pin the reference (``False``) or select the C library again;
    returns the *effective* state (enabling without a compiler stays
    off — graceful fallback)."""
    global _lib
    _lib = csrc.load() if flag else None
    return _lib is not None


def backend() -> str:
    """The backend production calls currently resolve to."""
    return "c" if enabled() else "numpy"


# ----------------------------------------------------------------------
# direct C entry points (raise if the backend is unavailable) — what the
# dispatchers call, and what the parity suite compares to the reference
# ----------------------------------------------------------------------


def _require():
    lib = csrc.load()
    if lib is None:
        raise RuntimeError(f"C kernel backend unavailable: {build_error()}")
    return lib


def c_wang64_u64(key: np.ndarray) -> np.ndarray:
    lib = _require()
    key = np.ascontiguousarray(key, dtype=np.uint64)
    out = np.empty_like(key)
    lib.repro_wang64(_address(key), _address(out), key.size)
    return out


def _pairs(dst: np.ndarray, val: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Equal-length contiguous int64 / float64 images of a pair batch."""
    d = np.ascontiguousarray(dst, dtype=np.int64)
    v = np.ascontiguousarray(val, dtype=np.float64)
    if d.ndim != 1 or d.shape != v.shape:
        raise ValueError("pair kernels need 1-d dst and val of one length")
    return d, v


def c_combine_pairs(
    dst: np.ndarray, val: np.ndarray, ufunc: np.ufunc, identity: float
) -> Tuple[np.ndarray, np.ndarray]:
    lib = _require()
    op = _OPCODES[ufunc]
    if len(dst) == 0:
        return dst, val
    d, v = _pairs(dst, val)
    out_dst = np.empty(len(d), dtype=np.int64)
    out_val = np.empty(len(d), dtype=np.float64)
    m = lib.repro_combine_pairs(
        _address(d), _address(v), len(d), op, float(identity),
        _address(out_dst), _address(out_val),
    )
    if m < 0:  # pragma: no cover - allocation failure
        raise MemoryError("combine_pairs C kernel allocation failed")
    unique = out_dst[:m]
    if unique.dtype != dst.dtype:
        unique = unique.astype(dst.dtype)
    return unique, out_val[:m]


def _foldable(accum: np.ndarray, got: np.ndarray, ids: np.ndarray) -> bool:
    """Whether the C fold may write through these accumulators: it
    indexes both by position in ``ids`` and checks nothing itself."""
    return (
        accum.dtype == np.float64
        and accum.flags.c_contiguous
        and got.dtype == np.bool_
        and got.flags.c_contiguous
        and accum.shape == got.shape == ids.shape
    )


def c_fold_pairs(
    accum: np.ndarray,
    got: np.ndarray,
    ids: np.ndarray,
    dst: np.ndarray,
    val: np.ndarray,
    ufunc: np.ufunc,
) -> None:
    lib = _require()
    op = _OPCODES[ufunc]
    if len(dst) == 0:
        return
    if not _foldable(accum, got, ids):
        raise TypeError(
            "fold_pairs needs contiguous float64 accum and bool got, one row per id"
        )
    d, v = _pairs(dst, val)
    ids_c = np.ascontiguousarray(ids, dtype=np.int64)
    rc = lib.repro_fold_pairs(
        _address(d), _address(v), len(d), _address(ids_c), len(ids_c), op,
        _address(accum), _address(got),
    )
    if rc == -2:
        raise KeyError("fold_pairs: destination not hosted in ids table")
    if rc != 0:  # pragma: no cover - allocation failure
        raise MemoryError("fold_pairs C kernel allocation failed")


def c_scatter_rows(
    rows: np.ndarray,
    vals: np.ndarray,
    off: np.ndarray,
    others: np.ndarray,
    owner: np.ndarray,
    cap: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lib = _require()
    r = np.ascontiguousarray(rows, dtype=np.int64)
    x = np.ascontiguousarray(vals, dtype=np.float64)
    o = np.ascontiguousarray(off, dtype=np.int64)
    d = np.ascontiguousarray(others, dtype=np.int64)
    a = np.ascontiguousarray(owner, dtype=np.int32)
    c = np.ascontiguousarray(cap, dtype=np.int64)
    # ``cap`` must be the prefix of ``owner``'s own bincount (what
    # ``Routing`` builds): the C loop indexes it by owner unchecked.
    if r.ndim != 1 or r.shape != x.shape or not len(o) or not len(d) == len(a) == o[-1] == c[-1]:
        raise ValueError("scatter_rows needs one value per row, one owner per edge")
    if len(r) and (r.min() < 0 or r.max() >= len(o) - 1):
        raise IndexError("scatter_rows: row outside the CSR offsets")
    counts = np.zeros(len(c) - 1, dtype=np.int64)
    out_dst = np.empty(len(d), dtype=np.int64)
    out_val = np.empty(len(d), dtype=np.float64)
    lib.repro_scatter_rows(
        _address(r), _address(x), len(r), _address(o), _address(d),
        _address(a), _address(c), _address(counts), _address(out_dst),
        _address(out_val),
    )
    return out_dst, out_val, c[:-1], counts


def _sketchable(salts: np.ndarray, keys: np.ndarray, table: Optional[np.ndarray]) -> bool:
    """Whether the C sketch kernels may read (and write) this table: a
    contiguous int64 ``(depth, width)`` table, one uint64 salt per row,
    a 1-d uint64 key batch."""
    return table is None or (
        table.dtype == np.int64
        and table.ndim == 2
        and table.flags.c_contiguous
        and table.shape[0] == len(salts)
        and salts.dtype == np.uint64
        and keys.dtype == np.uint64
        and keys.ndim == 1
    )


def c_sketch_query(
    salts: np.ndarray, keys: np.ndarray, table: np.ndarray, plus: Optional[np.ndarray] = None
) -> np.ndarray:
    lib = _require()
    if not (_sketchable(salts, keys, table) and _sketchable(salts, keys, plus)):
        raise TypeError("sketch kernels need contiguous int64 (depth, width) tables")
    if plus is not None and plus.shape != table.shape:
        raise ValueError("a sketch and its plus table differ in shape")
    k = np.ascontiguousarray(keys)
    s = np.ascontiguousarray(salts)
    out = np.empty(len(k), dtype=np.int64)
    lib.repro_sketch_query(
        _address(k), len(k), _address(s), table.shape[0], table.shape[1],
        _address(table), None if plus is None else _address(plus), _address(out),
    )
    return out


def c_sketch_add(salts: np.ndarray, keys: np.ndarray, table: np.ndarray, counts) -> None:
    lib = _require()
    if not (_sketchable(salts, keys, table) and table.flags.writeable):
        raise TypeError("sketch kernels need a writable contiguous int64 (depth, width) table")
    k = np.ascontiguousarray(keys)
    s = np.ascontiguousarray(salts)
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim == 0 or c.strides == (0,):  # one count for every key
        c, step = np.ascontiguousarray(c.reshape(-1)[:1]), 0
    elif c.shape == k.shape:
        c, step = np.ascontiguousarray(c), 1
    else:
        raise ValueError("sketch counts need one value, or one per key")
    if len(k) and len(c):
        lib.repro_sketch_add(
            _address(k), len(k), _address(s), table.shape[0], table.shape[1],
            _address(table), _address(c), step,
        )


def c_place_edges(
    ring, own: np.ndarray, other: Optional[np.ndarray] = None, k: Optional[np.ndarray] = None
) -> np.ndarray:
    lib = _require()
    pos, owners = ring.slots()
    if not len(pos):
        raise LookupError("ring has no members")
    o = np.ascontiguousarray(own, dtype=np.int64)
    out = np.empty(len(o), dtype=np.int64)
    if k is None:
        lib.repro_place_edges(
            _address(o), None, None, len(o), _address(pos), _address(owners),
            len(pos), len(ring), None, _address(out),
        )
        return out
    t = np.ascontiguousarray(other, dtype=np.int64)
    kk = np.ascontiguousarray(k, dtype=np.int64)
    if o.ndim != 1 or o.shape != t.shape or o.shape != kk.shape:
        raise ValueError("place_edges needs one other endpoint and one k per row")
    reps = np.empty(len(ring), dtype=np.int64)
    lib.repro_place_edges(
        _address(o), _address(t), _address(kk), len(o), _address(pos),
        _address(owners), len(pos), len(ring), _address(reps), _address(out),
    )
    return out


def c_merge_edges(
    unique_keys: np.ndarray,
    starts: np.ndarray,
    store_others: np.ndarray,
    keys: np.ndarray,
    others: np.ndarray,
    ins: np.ndarray,
):
    lib = _require()
    uk = np.ascontiguousarray(unique_keys, dtype=np.int64)
    st = np.ascontiguousarray(starts, dtype=np.int64)
    so = np.ascontiguousarray(store_others, dtype=np.int64)
    bk = np.ascontiguousarray(keys, dtype=np.int64)
    bo = np.ascontiguousarray(others, dtype=np.int64)
    flags = np.ascontiguousarray(ins, dtype=np.bool_)
    n = len(bk)
    if not (len(st) == len(uk) + 1 and st[-1] == len(so) and n == len(bo) == len(flags)):
        raise ValueError("merge_edges needs a CSR store and parallel batch rows")
    eff_k, eff_o, at = (np.empty(n, dtype=np.int64) for _ in range(3))
    n_adds = np.zeros(1, dtype=np.int64)
    store = (_address(uk), _address(st), len(uk), _address(so))
    m = lib.repro_edge_classify(
        *store, _address(bk), _address(bo), _address(flags), n, _address(eff_k),
        _address(eff_o), _address(at), _address(n_adds),
    )
    if m == -2:
        return None
    if m < 0:  # pragma: no cover - allocation failure
        raise MemoryError("merge_edges C kernel allocation failed")
    na = int(n_adds[0])
    if m < n:  # exact-size arrays: the dirty log and the WAL keep them
        eff_k, eff_o = eff_k[:m].copy(), eff_o[:m].copy()
    if not m:
        return eff_k, eff_o, 0, None
    room = len(uk) + na
    new_uk = np.empty(room, dtype=np.int64)
    new_st = np.empty(room + 1, dtype=np.int64)
    new_o = np.empty(len(so) + 2 * na - m, dtype=np.int64)
    k_at, at_at = _address(eff_k), _address(at)
    n_keys = lib.repro_edge_splice(
        *store, k_at, _address(eff_o), at_at, na, k_at + 8 * na, at_at + 8 * na, m - na,
        _address(new_uk), _address(new_st), _address(new_o),
    )
    new_uk.resize(n_keys, refcheck=False)  # exact-size columns, shrunk in place:
    new_st.resize(n_keys + 1, refcheck=False)  # checkpoints keep them
    return eff_k, eff_o, na, (new_uk, new_st, new_o)


def _address(arr: np.ndarray) -> int:
    """The data address of a contiguous array: through the buffer
    protocol (a third of what ``.ctypes.data`` costs) unless the array
    is read-only or empty, which that protocol will not export."""
    if arr.flags.writeable and arr.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _max_load(capacity: int) -> int:
    """Entries a table of ``capacity`` slots may hold: 2/3 of them.  At
    1/2, the e2e ``bulk-static`` workload's peak RSS was ~3 % above the
    sorted memos' (EXPERIMENTS.md); at 2/3 a hit still probes ~2 slots
    on average, within one or two cache lines."""
    return capacity * 2 // 3


class CIdTable:
    """The open-addressed id table: :class:`reference.IdTable`'s answers
    at one hash and a short probe per key.

    Capacity is a power of two at least 3/2 of the entries (load <= 2/3,
    as in a Python dict), doubling as entries arrive; a slot is an int64
    key and an int32 value, empty while the value is
    :data:`reference.EMPTY`.  ``items()`` lists the entries in slot
    order.  Nothing is ever removed: a caller that drops entries builds
    a new table from the kept ``items()``.
    """

    _MIN_CAPACITY = 16

    def __init__(self):
        self._lib = _require()
        self._size = np.zeros(1, dtype=np.int64)
        self._size_at = _address(self._size)
        # No slots until the first entry: many memos are reset and never
        # filled.  ``arr.ctypes.data`` costs microseconds a call, so the
        # slot columns' addresses are taken once per allocation.
        self._keys = np.zeros(0, dtype=np.int64)
        self._vals = np.zeros(0, dtype=np.int32)
        self._slot_args = (0, 0, 0)

    def __len__(self) -> int:
        return int(self._size[0])

    def get(self, keys) -> Tuple[np.ndarray, np.ndarray]:
        q = np.ascontiguousarray(keys, dtype=np.int64)
        if not (q.size and self._size[0]):
            return np.full(q.size, reference.EMPTY), np.zeros(q.size, dtype=bool)
        out = np.empty(q.size, dtype=np.int64)
        found = np.empty(q.size, dtype=bool)
        self._lib.repro_table_get(
            *self._slot_args, _address(q), q.size, _address(out), _address(found)
        )
        return out, found

    def put(self, keys, values) -> None:
        k = np.ascontiguousarray(keys, dtype=np.int64)
        v = np.ascontiguousarray(values, dtype=np.int64)
        if k.ndim != 1 or k.shape != v.shape:
            raise ValueError("an id table needs 1-d keys and values of one length")
        if not k.size:
            return
        if not self._slot_args[2]:
            self._grow(k.size)
        done = 0
        k_at, v_at = _address(k), _address(v)
        while True:
            rows = self._lib.repro_table_put(
                *self._slot_args, self._size_at, _max_load(len(self._keys)),
                k_at + 8 * done, v_at + 8 * done, k.size - done,
            )
            if rows < 0:
                raise ValueError("id table values must be 32-bit and above INT32_MIN")
            done += rows
            if done == k.size:
                return
            self._grow(len(self) + k.size - done)

    def _grow(self, entries: int) -> None:
        """Rehash into the least doubling that holds ``entries``."""
        capacity = max(2 * len(self._keys), self._MIN_CAPACITY)
        while _max_load(capacity) < entries:
            capacity *= 2
        old_keys, old_vals = self._keys, self._vals  # alive until rehashed
        old = self._slot_args
        self._keys = np.zeros(capacity, dtype=np.int64)
        self._vals = np.full(capacity, reference.EMPTY, dtype=np.int32)
        self._slot_args = (_address(self._keys), _address(self._vals), capacity)
        self._lib.repro_table_rehash(*old, *self._slot_args)

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        held = self._vals != reference.EMPTY
        return self._keys[held], self._vals[held].astype(np.int64)


# ----------------------------------------------------------------------
# dispatchers — what production code calls
# ----------------------------------------------------------------------


def wang64_u64(key: np.ndarray) -> np.ndarray:
    """Thomas Wang's 64-bit mix over a uint64 array."""
    # ascontiguousarray would hand a 0-d key back 1-d.
    if _library() is not None and key.ndim:
        return c_wang64_u64(key)
    return reference.wang64_u64(key)


def combine_pairs(
    dst: np.ndarray, val: np.ndarray, ufunc: np.ufunc, identity: float
) -> Tuple[np.ndarray, np.ndarray]:
    if _library() is not None and ufunc in _OPCODES:
        return c_combine_pairs(dst, val, ufunc, identity)
    return reference.combine_pairs(dst, val, ufunc, identity)


def fold_pairs(
    accum: np.ndarray,
    got: np.ndarray,
    ids: np.ndarray,
    dst: np.ndarray,
    val: np.ndarray,
    ufunc: np.ufunc,
) -> None:
    if _library() is not None and ufunc in _OPCODES and _foldable(accum, got, ids):
        c_fold_pairs(accum, got, ids, dst, val, ufunc)
        return
    reference.fold_pairs(accum, got, ids, dst, val, ufunc)


def scatter_rows(
    rows: np.ndarray,
    vals: np.ndarray,
    off: np.ndarray,
    others: np.ndarray,
    owner: np.ndarray,
    cap: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sending rows' edges as (dst, val) pairs, agent ``a``'s at
    ``[start[a], start[a] + counts[a])``: returns (dst, val, start,
    counts) (see :func:`reference.scatter_rows`)."""
    if _library() is not None:
        return c_scatter_rows(rows, vals, off, others, owner, cap)
    return reference.scatter_rows(rows, vals, off, others, owner, cap)


def id_table():
    """A new, empty int64 -> int32 id table: the open-addressed
    :class:`CIdTable`, or :class:`reference.IdTable` on the reference.
    The backend is fixed when the table is made."""
    return CIdTable() if _library() is not None else reference.IdTable()


def sketch_query(
    salts: np.ndarray, keys: np.ndarray, table: np.ndarray, plus: Optional[np.ndarray] = None
) -> np.ndarray:
    """Count-min estimates of uint64 ``keys`` (see
    :func:`reference.sketch_query`)."""
    if (
        _library() is not None
        and _sketchable(salts, keys, table)
        and _sketchable(salts, keys, plus)
    ):
        return c_sketch_query(salts, keys, table, plus)
    return reference.sketch_query(salts, keys, table, plus)


def sketch_add(salts: np.ndarray, keys: np.ndarray, table: np.ndarray, counts) -> None:
    """Count uint64 ``keys`` into ``table`` in place (see
    :func:`reference.sketch_add`)."""
    if _library() is not None and _sketchable(salts, keys, table) and table.flags.writeable:
        c_sketch_add(salts, keys, table, counts)
        return
    reference.sketch_add(salts, keys, table, counts)


def place_edges(
    ring, own: np.ndarray, other: Optional[np.ndarray] = None, k: Optional[np.ndarray] = None
) -> np.ndarray:
    """Owners of int64 ``own`` vertices on ``ring`` under the wang64
    mix, second-level placed by ``other`` where ``k > 1`` (see
    :func:`reference.place_edges`)."""
    if _library() is not None:
        return c_place_edges(ring, own, other, k)
    return reference.place_edges(ring, reference.wang64_u64, own, other, k)


def merge_edges(
    unique_keys: np.ndarray,
    starts: np.ndarray,
    store_others: np.ndarray,
    keys: np.ndarray,
    others: np.ndarray,
    ins: np.ndarray,
):
    """One mutation batch against an edge store's CSR ``(unique_keys,
    starts, others)`` (see :func:`reference.merge_edges`)."""
    if _library() is not None:
        return c_merge_edges(unique_keys, starts, store_others, keys, others, ins)
    return reference.merge_edges(unique_keys, starts, store_others, keys, others, ins)


#: ``base + damping * agg``.  One numpy expression on both backends: a C
#: loop lost to it at every size the cluster applies (0.8 vs 2.8 µs at
#: 64 rows, 3.7 vs 4.5 µs at 8,192 — EXPERIMENTS.md), so there is none.
pagerank_apply = reference.pagerank_apply
