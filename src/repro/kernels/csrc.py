"""Runtime-compiled C backend for the hot kernels.

The container ships no numba/cython, so the production backend is a
single C translation unit compiled on first use with the system ``cc``
into a shared library loaded via ``ctypes``.  Compilation is
best-effort: any failure (no compiler, a cache directory this user does
not own, read-only tmp, exotic platform) leaves the backend unavailable
— :func:`build_error` says why — and every caller falls back to the
numpy reference path; behaviour, not just results, must be identical
either way.

Every exported function takes raw data pointers (``c_void_p``): the
wrappers in :mod:`repro.kernels` own the dtype, contiguity and length
checks, and pass ``arr.ctypes.data`` of arrays they keep alive across
the call.

Determinism contract (see DESIGN.md §6j): every C kernel reproduces the
numpy reference *bit for bit* on finite inputs.

* Integer kernels (``wang64``) are exact by construction — the same
  64-bit wrapping ops in the same order.
* Float folds replicate numpy's evaluation order: pairs are sorted by
  ``np.lexsort((val, dst))``-equivalent order (stable LSD radix on the
  IEEE-754 total-order key), then folded strictly left to right per
  destination, which is exactly what ``ufunc.at`` does after a lexsort.
  min/max use numpy's own element formula
  ``acc = (acc < v || isnan(acc)) ? acc : v`` so NaN propagation and
  ±0.0 selection match ``np.minimum``/``np.maximum``.
* ``-ffp-contract=off`` forbids FMA contraction so ``a + b * c``
  rounds twice, exactly as numpy's separate multiply and add do.

The one documented divergence: a batch holding *both* -0.0 and +0.0
for the same destination can fold them in either order (they compare
equal, and the radix key is a total order while lexsort is stable).
The sums are equal; only min/max could surface the sign bit.  No
shipped vertex program emits -0.0.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
import threading
from contextlib import suppress
from shutil import which
from typing import Optional

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ---- Thomas Wang 64-bit mix (bit-identical to the numpy path) ---- */

static uint64_t wang_mix(uint64_t key) {
    key = (~key) + (key << 21);
    key ^= key >> 24;
    key = (key + (key << 3)) + (key << 8);
    key ^= key >> 14;
    key = (key + (key << 2)) + (key << 4);
    key ^= key >> 28;
    key = key + (key << 31);
    return key;
}

void repro_wang64(const uint64_t* in, uint64_t* out, int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = wang_mix(in[i]);
}

/* ---- pair sort: np.lexsort((val, dst)) order ---- */

/* Monotone uint64 image of an IEEE-754 double (total order). */
static uint64_t dkey(double x) {
    uint64_t b;
    memcpy(&b, &x, 8);
    return (b & 0x8000000000000000ULL) ? ~b : (b ^ 0x8000000000000000ULL);
}

/* Inverse of dkey: recover the double from its total-order image. */
static double dkey_inv(uint64_t k) {
    uint64_t b = (k & 0x8000000000000000ULL) ? (k ^ 0x8000000000000000ULL) : ~k;
    double x;
    memcpy(&x, &b, 8);
    return x;
}

static uint64_t ikey(int64_t x) {
    return ((uint64_t)x) ^ 0x8000000000000000ULL;
}

/* Stable LSD radix of (dst, vkey) pairs by the biased dst key, moving
 * both arrays together (no index indirection — sequential reads,
 * bucketed writes).  All eight byte histograms are built in ONE scan,
 * and scatter passes run only for bytes that actually vary — vertex
 * ids use few low bytes, and the sign bias makes high bytes constant,
 * so this is typically 2-3 passes, not 8. */
static void radix_pairs_by_dst(int64_t** d, uint64_t** v, int64_t** td,
                               uint64_t** tv, int64_t n) {
    int64_t count[8][256];
    memset(count, 0, sizeof(count));
    const int64_t* ds0 = *d;
    for (int64_t i = 0; i < n; i++) {
        uint64_t k = ikey(ds0[i]);
        count[0][k & 0xFF]++;
        count[1][(k >> 8) & 0xFF]++;
        count[2][(k >> 16) & 0xFF]++;
        count[3][(k >> 24) & 0xFF]++;
        count[4][(k >> 32) & 0xFF]++;
        count[5][(k >> 40) & 0xFF]++;
        count[6][(k >> 48) & 0xFF]++;
        count[7][(k >> 56) & 0xFF]++;
    }
    for (int p = 0; p < 8; p++) {
        int single = 0;
        for (int j = 0; j < 256; j++)
            if (count[p][j] == n) { single = 1; break; }
        if (single) continue; /* constant byte: order unchanged */
        int64_t offs[256];
        int64_t run = 0;
        for (int j = 0; j < 256; j++) {
            offs[j] = run;
            run += count[p][j];
        }
        const int64_t* ds = *d;
        const uint64_t* vs = *v;
        int64_t* od = *td;
        uint64_t* ov = *tv;
        int shift = p * 8;
        for (int64_t i = 0; i < n; i++) {
            uint64_t b = (ikey(ds[i]) >> shift) & 0xFF;
            od[offs[b]] = ds[i];
            ov[offs[b]] = vs[i];
            offs[b]++;
        }
        *td = (int64_t*)ds;
        *tv = (uint64_t*)vs;
        *d = od;
        *v = ov;
    }
}

/* Sort one dst-group's value keys ascending: insertion sort for small
 * runs; above that, byte-wise LSD radix with single-scan histograms
 * and constant-byte skipping. */
static void sort_keys(uint64_t* k, int64_t n, uint64_t* tmp) {
    if (n < 2) return;
    if (n <= 32) {
        for (int64_t i = 1; i < n; i++) {
            uint64_t x = k[i];
            int64_t j = i - 1;
            while (j >= 0 && k[j] > x) {
                k[j + 1] = k[j];
                j--;
            }
            k[j + 1] = x;
        }
        return;
    }
    int64_t count[8][256];
    memset(count, 0, sizeof(count));
    for (int64_t i = 0; i < n; i++) {
        uint64_t x = k[i];
        count[0][x & 0xFF]++;
        count[1][(x >> 8) & 0xFF]++;
        count[2][(x >> 16) & 0xFF]++;
        count[3][(x >> 24) & 0xFF]++;
        count[4][(x >> 32) & 0xFF]++;
        count[5][(x >> 40) & 0xFF]++;
        count[6][(x >> 48) & 0xFF]++;
        count[7][(x >> 56) & 0xFF]++;
    }
    uint64_t* a = k;
    uint64_t* b = tmp;
    for (int p = 0; p < 8; p++) {
        int single = 0;
        for (int j = 0; j < 256; j++)
            if (count[p][j] == n) { single = 1; break; }
        if (single) continue;
        int64_t offs[256];
        int64_t run = 0;
        for (int j = 0; j < 256; j++) {
            offs[j] = run;
            run += count[p][j];
        }
        int shift = p * 8;
        for (int64_t i = 0; i < n; i++)
            b[offs[(a[i] >> shift) & 0xFF]++] = a[i];
        uint64_t* t = a; a = b; b = t;
    }
    if (a != k) memcpy(k, a, sizeof(uint64_t) * n);
}

/* Sort (dst, val) pairs into (dst asc, val asc) order — the exact
 * order np.lexsort((val, dst)) produces for finite floats (entries
 * comparing equal are interchangeable; see the -0.0 note above).
 * Strategy: map values to their monotone uint64 keys once, LSD radix
 * on dst bytes moving the (dst, vkey) pairs (constant bytes skipped),
 * sort vkeys independently per dst group, decode back to doubles.
 * Returns sorted arrays through *out_d / *out_v plus two scratch
 * buffers; the caller frees all four. */
static int sort_pairs(const int64_t* dst, const double* val, int64_t n,
                      int64_t** out_d, double** out_v,
                      int64_t** scratch_d, double** scratch_v) {
    int64_t* d = (int64_t*)malloc(sizeof(int64_t) * n);
    uint64_t* v = (uint64_t*)malloc(sizeof(uint64_t) * n);
    int64_t* td = (int64_t*)malloc(sizeof(int64_t) * n);
    uint64_t* tv = (uint64_t*)malloc(sizeof(uint64_t) * n);
    if (!d || !v || !td || !tv) {
        free(d); free(v); free(td); free(tv);
        return -1;
    }
    memcpy(d, dst, sizeof(int64_t) * n);
    for (int64_t i = 0; i < n; i++) v[i] = dkey(val[i]);
    radix_pairs_by_dst(&d, &v, &td, &tv, n);
    int64_t start = 0;
    for (int64_t i = 1; i <= n; i++) {
        if (i == n || d[i] != d[start]) {
            sort_keys(v + start, i - start, tv);
            start = i;
        }
    }
    double* vd = (double*)v; /* decode in place: same 8-byte slots */
    for (int64_t i = 0; i < n; i++) vd[i] = dkey_inv(v[i]);
    *out_d = d;
    *out_v = vd;
    *scratch_d = td;
    *scratch_v = (double*)tv;
    return 0;
}

/* op: 0 = add, 1 = minimum, 2 = maximum — numpy's element formulas. */
static double op_apply(int op, double acc, double v) {
    if (op == 0) return acc + v;
    if (op == 1) return (acc < v || isnan(acc)) ? acc : v;
    return (acc > v || isnan(acc)) ? acc : v;
}

/* combine_pairs: fold a (dst, val) multiset to one partial per dst in
 * (dst, val)-sorted order.  Returns the number of unique dsts, or -1
 * on allocation failure. */
int64_t repro_combine_pairs(const int64_t* dst, const double* val, int64_t n,
                            int op, double identity,
                            int64_t* out_dst, double* out_val) {
    if (n == 0) return 0;
    int64_t *d, *sd;
    double *v, *sv;
    if (sort_pairs(dst, val, n, &d, &v, &sd, &sv) != 0) return -1;
    int64_t m = -1;
    int64_t prev = 0;
    for (int64_t i = 0; i < n; i++) {
        if (m < 0 || d[i] != prev) {
            m++;
            out_dst[m] = d[i];
            out_val[m] = identity;
            prev = d[i];
        }
        out_val[m] = op_apply(op, out_val[m], v[i]);
    }
    free(d); free(v); free(sd); free(sv);
    return m + 1;
}

/* fold_pairs: the receive-side fold — sort (dst, val), locate each dst
 * in the sorted id table, fold into accum and mark got.  Returns 0,
 * -1 on allocation failure, -2 if a dst is not in ids. */
int repro_fold_pairs(const int64_t* dst, const double* val, int64_t n,
                     const int64_t* ids, int64_t n_ids,
                     int op, double* accum, uint8_t* got) {
    if (n == 0) return 0;
    int64_t *d, *sd;
    double *v, *sv;
    if (sort_pairs(dst, val, n, &d, &v, &sd, &sv) != 0) return -1;
    int64_t pos = -1;
    int64_t prev = 0;
    for (int64_t i = 0; i < n; i++) {
        if (pos < 0 || d[i] != prev) {
            int64_t key = d[i];
            int64_t lo = 0, hi = n_ids;
            while (lo < hi) {
                int64_t mid = (lo + hi) >> 1;
                if (ids[mid] < key) lo = mid + 1; else hi = mid;
            }
            if (lo >= n_ids || ids[lo] != key) {
                free(d); free(v); free(sd); free(sv);
                return -2;
            }
            pos = lo;
            prev = key;
        }
        accum[pos] = op_apply(op, accum[pos], v[i]);
        got[pos] = 1;
    }
    free(d); free(v); free(sd); free(sv);
    return 0;
}
"""

#: Compile command; -ffp-contract=off keeps float folds bit-identical
#: to numpy (no FMA), and no -march flags keeps codegen portable.
_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-strict-aliasing"]

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_build_failed = False
_build_error: Optional[str] = None


def _compiler() -> Optional[str]:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and which(cc):
            return cc
    return None


def _cache_dir() -> str:
    """The per-user directory the library is built in and loaded from.

    A shared, predictable path would let another local user pre-create
    it and plant a library, so anything but a real directory this user
    owns and nobody else can write raises (and ``load`` falls back)."""
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")
    with suppress(FileExistsError):
        os.mkdir(path, 0o700)
    st = os.lstat(path)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != uid or st.st_mode & 0o022:
        raise PermissionError(
            f"kernel cache {path} must be a directory owned by uid {uid} and "
            f"writable by nobody else (owner {st.st_uid}, mode {stat.filemode(st.st_mode)})"
        )
    return path


def _build() -> ctypes.CDLL:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    libdir = _cache_dir()
    libpath = os.path.join(libdir, f"repro_kernels_{digest}.so")
    if not os.path.exists(libpath):
        src = os.path.join(libdir, f"repro_kernels_{digest}.c")
        with open(src, "w") as fh:
            fh.write(C_SOURCE)
        tmp = libpath + f".tmp{os.getpid()}"
        try:
            done = subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, src], capture_output=True, timeout=120
            )
            if done.returncode:
                raise RuntimeError(
                    f"{cc} exited {done.returncode}: "
                    f"{done.stderr.decode(errors='replace').strip()[-400:]}"
                )
            os.replace(tmp, libpath)  # atomic: concurrent builders race safely
        finally:
            with suppress(FileNotFoundError):  # a failed compile's leftover
                os.unlink(tmp)
    if os.stat(libpath).st_uid != os.getuid():
        raise PermissionError(f"{libpath} is not owned by uid {os.getuid()}")
    lib = ctypes.CDLL(libpath)
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.repro_wang64.argtypes = [ptr, ptr, i64]
    lib.repro_wang64.restype = None
    lib.repro_combine_pairs.argtypes = [
        ptr, ptr, i64, ctypes.c_int, ctypes.c_double, ptr, ptr,
    ]
    lib.repro_combine_pairs.restype = ctypes.c_int64
    lib.repro_fold_pairs.argtypes = [ptr, ptr, i64, ptr, i64, ctypes.c_int, ptr, ptr]
    lib.repro_fold_pairs.restype = ctypes.c_int
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled library, building it on first call (None if the
    toolchain is unavailable — callers must fall back gracefully)."""
    global _lib, _build_failed, _build_error
    if _lib is not None or _build_failed:
        return _lib
    with _lock:
        if _lib is not None or _build_failed:
            return _lib
        try:
            _lib = _build()
        except Exception as exc:  # any failure means "no acceleration"
            _build_failed = True
            _build_error = f"{type(exc).__name__}: {exc}"
    return _lib


def build_error() -> Optional[str]:
    """Why the backend is unavailable (None if fine or not yet tried)."""
    return _build_error
