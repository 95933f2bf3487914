"""The compiled kernels under the hottest array paths.

The data plane bottoms out in four kernels: the placement hash
(``wang64``), the scatter of a round's sending rows along their edges
(``scatter_rows``), the canonical pair combine (``combine_pairs``), and
the receive-side fold (``fold_pairs``).  This package provides a C
backend for them (compiled at first use with the system compiler — see
:mod:`repro.kernels.csrc`) plus the pure-numpy reference
(:mod:`repro.kernels.reference`) that *defines* correct behaviour.

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
these dispatchers): C never loses on ``wang64`` and ``combine_pairs``,
so they have none; ``fold_pairs`` keeps :data:`MIN_FOLD`;
``scatter_rows`` walks a whole round's sending rows per call and has
none either; and the PageRank apply lost at every size the cluster
calls it with, so it has no C version at all.  The raw-pointer calls
check nothing themselves: the ``c_*`` wrappers own dtype, contiguity
and length.
"""

from __future__ import annotations

from typing import Tuple

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
    "c_wang64_u64",
    "c_combine_pairs",
    "c_fold_pairs",
    "c_scatter_rows",
    "MIN_FOLD",
]

#: Rows below which ``fold_pairs`` stays on the reference: the measured
#: crossover (``BENCH_kernels.json: crossover.floors.fold_pairs``).
MIN_FOLD = 128

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
    lib.repro_wang64(key.ctypes.data, out.ctypes.data, key.size)
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
        d.ctypes.data, v.ctypes.data, len(d), op, float(identity),
        out_dst.ctypes.data, out_val.ctypes.data,
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
        d.ctypes.data, v.ctypes.data, len(d), ids_c.ctypes.data, len(ids_c), op,
        accum.ctypes.data, got.ctypes.data,
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
        r.ctypes.data, x.ctypes.data, len(r), o.ctypes.data, d.ctypes.data,
        a.ctypes.data, c.ctypes.data, counts.ctypes.data, out_dst.ctypes.data,
        out_val.ctypes.data,
    )
    return out_dst, out_val, c[:-1], counts


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
    if (
        _library() is not None
        and len(dst) >= MIN_FOLD
        and ufunc in _OPCODES
        and _foldable(accum, got, ids)
    ):
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


#: ``base + damping * agg``.  One numpy expression on both backends: a C
#: loop lost to it at every size the cluster applies (0.8 vs 2.8 µs at
#: 64 rows, 3.7 vs 4.5 µs at 8,192 — EXPERIMENTS.md), so there is none.
pagerank_apply = reference.pagerank_apply
