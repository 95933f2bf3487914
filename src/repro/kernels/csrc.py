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

* Integer kernels (``wang64``, the id table, and the ingest kernels of
  :mod:`repro.kernels.csrc_ingest`: the sketch, placement and the edge
  merge) are exact by construction — the same 64-bit wrapping ops,
  remainders and comparisons as numpy's, on no float, so no visiting
  order can change a result.
* Float folds replicate numpy's evaluation order: pairs are sorted by
  ``np.lexsort((val, dst))``-equivalent order, then folded strictly
  left to right per destination, which is exactly what ``ufunc.at``
  does after a lexsort.  The sort groups pairs by destination with a
  stable counting sort (a radix sort when the id range is too wide to
  count) and orders each group on the IEEE-754 total-order key with a
  run-adaptive sort, so a batch emitted in value order costs one scan
  per group — and the output depends on the batch's contents only,
  never on its order.
  min/max use numpy's own element formula
  ``acc = (acc < v || isnan(acc)) ? acc : v`` so NaN propagation and
  ±0.0 selection match ``np.minimum``/``np.maximum``.
* ``-ffp-contract=off`` forbids FMA contraction so ``a + b * c``
  rounds twice, exactly as numpy's separate multiply and add do.

The documented divergences: a batch holding *both* -0.0 and +0.0 for
the same destination can fold them in either order (they compare
equal, and the total-order key puts -0.0 first while lexsort is
stable).  The sums are equal; only min/max could surface the sign bit.
Likewise NaNs of both signs in one group (lexsort puts every NaN last,
the key puts negative ones first); NaNs of one sign fold to the same
bits.  No shipped vertex program emits -0.0 or NaN.

``repro_scatter_rows`` moves no float: it copies each sending row's
value onto that row's edges, grouped by destination agent.

``repro_table_get`` / ``repro_table_put`` / ``repro_table_rehash`` are
the id table's probe, insert and growth loops
(:class:`repro.kernels.CIdTable`): integer only, and what they answer
is the sorted reference's answer — only where an entry sits (and so the
order ``items()`` lists them in) differs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import stat
import subprocess
import tempfile
import threading
from contextlib import suppress
from shutil import which
from typing import Optional

from repro.kernels import csrc_ingest

_DATA_PLANE_SOURCE = r"""
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

/* Stable LSD radix of (key, vkey) pairs by the biased key, moving
 * both arrays together.  All eight byte histograms are built in ONE
 * scan, and scatter passes run only for bytes that actually vary.
 * The branch for key ranges too wide (or too negative) to count. */
static void radix_pairs_by_key(int64_t** d, uint64_t** v, int64_t** td,
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

/* Merge two ascending runs a[0:na] and b[0:nb] into out. */
static void merge_runs(const uint64_t* a, int64_t na, const uint64_t* b,
                       int64_t nb, uint64_t* out) {
    int64_t i = 0, j = 0, o = 0;
    while (i < na && j < nb) out[o++] = (b[j] < a[i]) ? b[j++] : a[i++];
    while (i < na) out[o++] = a[i++];
    while (j < nb) out[o++] = b[j++];
}

/* Byte-wise LSD radix of value keys, single-scan histograms and
 * constant-byte skipping: for long groups of many short runs. */
static void radix_keys(uint64_t* k, int64_t n, uint64_t* tmp) {
    int64_t count[8][256];
    memset(count, 0, sizeof(count));
    for (int64_t i = 0; i < n; i++) {
        uint64_t x = k[i];
        for (int p = 0; p < 8; p++) count[p][(x >> (8 * p)) & 0xFF]++;
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
        for (int64_t i = 0; i < n; i++) b[offs[(a[i] >> shift) & 0xFF]++] = a[i];
        uint64_t* t = a; a = b; b = t;
    }
    if (a != k) memcpy(k, a, sizeof(uint64_t) * n);
}

/* Sort one group's value keys ascending, adaptively: a group that is
 * already ascending costs one scan, a short one an insertion sort, one
 * of a few ascending runs (a group gathered from a few value-ordered
 * emissions) a natural merge, and anything else a radix sort. */
static void sort_group(uint64_t* k, int64_t n, uint64_t* tmp) {
    int64_t runs = 1;
    for (int64_t i = 1; i < n; i++) runs += k[i - 1] > k[i];
    if (runs == 1) return;
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
    if (runs > 4) {
        radix_keys(k, n, tmp);
        return;
    }
    uint64_t* a = k;
    uint64_t* b = tmp;
    for (; runs > 1; runs = (runs + 1) / 2) {
        int64_t s = 0;
        while (s < n) {
            int64_t m = s + 1;
            while (m < n && a[m - 1] <= a[m]) m++;
            int64_t e = m;
            if (m < n) {
                e = m + 1;
                while (e < n && a[e - 1] <= a[e]) e++;
            }
            merge_runs(a + s, m - s, a + m, e - m, b + s);
            s = e;
        }
        uint64_t* t = a; a = b; b = t;
    }
    if (a != k) memcpy(k, a, sizeof(uint64_t) * n);
}

/* (key, val) pairs in (key asc, val asc) order — the exact order
 * np.lexsort((val, key)) produces for finite floats (entries comparing
 * equal are interchangeable; see the -0.0 note above) — as groups:
 * group g holds key gkey[g] and the value keys v[gend[g-1]:gend[g]]. */
typedef struct {
    uint64_t* v;
    int64_t* gkey;
    int64_t* gend;
    int64_t ngroups;
} Groups;

static void free_groups(Groups* g) {
    free(g->v); free(g->gkey); free(g->gend);
}

/* Group pairs by key: a stable counting sort when the key range is at
 * most a small multiple of n, else an LSD radix sort; then each group's
 * value keys are sorted by sort_group.  Both steps order by content
 * alone, so any permutation of the input gives the same groups.
 * Returns -1 on allocation failure. */
static int group_pairs(const int64_t* key, const double* val, int64_t n, Groups* g) {
    uint64_t* v = (uint64_t*)malloc(sizeof(uint64_t) * n);
    uint64_t* tv = (uint64_t*)malloc(sizeof(uint64_t) * n);
    int64_t* gkey = (int64_t*)malloc(sizeof(int64_t) * (n + 1)); /* +1: see below */
    int64_t* gend = (int64_t*)malloc(sizeof(int64_t) * n);
    int64_t *d = NULL, *td = NULL, *count = NULL;
    int64_t ng = 0;
    if (!v || !tv || !gkey || !gend) goto fail;
    int64_t lo = key[0], hi = key[0];
    for (int64_t i = 1; i < n; i++) {
        if (key[i] < lo) lo = key[i];
        if (key[i] > hi) hi = key[i];
    }
    uint64_t span = (uint64_t)hi - (uint64_t)lo + 1; /* exact even across 0 */
    if (span - 1 <= 4 * (uint64_t)n + 1024) {
        count = (int64_t*)calloc(span + 1, sizeof(int64_t));
        if (!count) goto fail;
        for (int64_t i = 0; i < n; i++) count[(uint64_t)key[i] - (uint64_t)lo + 1]++;
        for (uint64_t j = 0; j < span; j++) {
            gkey[ng] = lo + (int64_t)j; /* branch-free (ng <= n): buckets are sparse */
            ng += count[j + 1] != 0;
            count[j + 1] += count[j];
        }
        for (int64_t i = 0; i < n; i++) v[count[(uint64_t)key[i] - (uint64_t)lo]++] = dkey(val[i]);
        for (int64_t i = 0; i < ng; i++) /* each bucket's start moved to its end */
            gend[i] = count[(uint64_t)gkey[i] - (uint64_t)lo];
        free(count);
    } else {
        d = (int64_t*)malloc(sizeof(int64_t) * n);
        td = (int64_t*)malloc(sizeof(int64_t) * n);
        if (!d || !td) goto fail;
        memcpy(d, key, sizeof(int64_t) * n);
        for (int64_t i = 0; i < n; i++) v[i] = dkey(val[i]);
        radix_pairs_by_key(&d, &v, &td, &tv, n); /* may swap d/td, v/tv */
        for (int64_t i = 1; i <= n; i++)
            if (i == n || d[i] != d[i - 1]) {
                gkey[ng] = d[i - 1];
                gend[ng++] = i;
            }
        free(d); free(td);
    }
    int64_t start = 0;
    for (int64_t i = 0; i < ng; i++) {
        sort_group(v + start, gend[i] - start, tv);
        start = gend[i];
    }
    free(tv);
    g->v = v;
    g->gkey = gkey;
    g->gend = gend;
    g->ngroups = ng;
    return 0;
fail:
    free(v); free(tv); free(gkey); free(gend); free(d); free(td);
    return -1;
}

/* op: 0 = add, 1 = minimum, 2 = maximum — numpy's element formulas. */
static double op_apply(int op, double acc, double v) {
    if (op == 0) return acc + v;
    if (op == 1) return (acc < v || isnan(acc)) ? acc : v;
    return (acc > v || isnan(acc)) ? acc : v;
}

/* Fold one group's sorted value keys into acc, left to right. */
static double fold_group(int op, double acc, const uint64_t* v, int64_t n) {
    for (int64_t i = 0; i < n; i++) acc = op_apply(op, acc, dkey_inv(v[i]));
    return acc;
}

/* combine_pairs: fold a (dst, val) multiset to one partial per dst in
 * (dst, val)-sorted order.  Returns the number of unique dsts, or -1
 * on allocation failure. */
int64_t repro_combine_pairs(const int64_t* dst, const double* val, int64_t n,
                            int op, double identity,
                            int64_t* out_dst, double* out_val) {
    if (n == 0) return 0;
    Groups g;
    if (group_pairs(dst, val, n, &g) != 0) return -1;
    int64_t start = 0;
    for (int64_t i = 0; i < g.ngroups; i++) {
        out_dst[i] = g.gkey[i];
        out_val[i] = fold_group(op, identity, g.v + start, g.gend[i] - start);
        start = g.gend[i];
    }
    free_groups(&g);
    return g.ngroups;
}

/* First index at or after `from` whose id is >= key: gallop, then
 * bisect — a merge walk over keys that arrive ascending. */
static int64_t seek(const int64_t* ids, int64_t n_ids, int64_t from, int64_t key) {
    int64_t lo = from, hi = from, step = 1;
    while (hi < n_ids && ids[hi] < key) {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    if (hi > n_ids) hi = n_ids;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (ids[mid] < key) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* fold_pairs: the receive-side fold — group the pairs by dst as
 * combine_pairs does, locate the distinct dsts (ascending) in the
 * sorted id table with one merge walk, then fold each group into accum
 * and mark got.  Every dst is located before anything is written.
 * Returns 0, -1 on allocation failure, -2 if a dst is not in ids. */
int repro_fold_pairs(const int64_t* dst, const double* val, int64_t n,
                     const int64_t* ids, int64_t n_ids,
                     int op, double* accum, uint8_t* got) {
    if (n == 0) return 0;
    Groups g;
    if (group_pairs(dst, val, n, &g) != 0) return -1;
    int64_t at = 0;
    for (int64_t i = 0; i < g.ngroups; i++) {
        at = seek(ids, n_ids, at, g.gkey[i]);
        if (at >= n_ids || ids[at] != g.gkey[i]) {
            free_groups(&g);
            return -2;
        }
        g.gkey[i] = at; /* from here on: the group's position */
    }
    int64_t start = 0;
    for (int64_t i = 0; i < g.ngroups; i++) {
        at = g.gkey[i];
        accum[at] = fold_group(op, accum[at], g.v + start, g.gend[i] - start);
        got[at] = 1;
        start = g.gend[i];
    }
    free_groups(&g);
    return 0;
}

/* ---- scatter: sending rows' edges into per-agent slices ---- */

/* Walk the CSR edges (off, others, owner) of each sending row, in the
 * given row order; a row's value rides every one of its edges.  Agent
 * a's pairs go to out_dst / out_val from cap[a] on (cap: exclusive
 * prefix of the routing's edges per agent, so every slice fits) and
 * counts[a] (zeroed by the caller) receives how many.  One pass, no
 * count-then-fill. */
void repro_scatter_rows(const int64_t* restrict rows, const double* restrict vals,
                        int64_t n_rows, const int64_t* restrict off,
                        const int64_t* restrict others, const int32_t* restrict owner,
                        const int64_t* restrict cap, int64_t* restrict counts,
                        int64_t* restrict out_dst, double* restrict out_val) {
    for (int64_t i = 0; i < n_rows; i++) {
        const double x = vals[i];
        const int64_t end = off[rows[i] + 1];
        for (int64_t e = off[rows[i]]; e < end; e++) {
            const int32_t a = owner[e];
            const int64_t at = cap[a] + counts[a]++;
            out_dst[at] = others[e];
            out_val[at] = x;
        }
    }
}

/* ---- id table: open-addressed int64 -> int32 map ---- */

/* A power-of-two array of slots probed linearly from mix(key); a slot
 * is empty while its value is TABLE_EMPTY, so any key (INT64_MIN and
 * INT64_MAX included) can be stored.  Values are 32-bit — agent ids,
 * replication factors — which keeps a slot at 12 bytes.  The mixer is
 * murmur3's fmix64, its own: the placement hash is a counted seam. */
#define TABLE_EMPTY INT32_MIN

static uint64_t table_mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/* The slot holding key, or the empty slot ending its probe run. */
static uint64_t table_slot(const int64_t* skeys, const int32_t* svals,
                           uint64_t mask, int64_t key) {
    uint64_t s = table_mix((uint64_t)key) & mask;
    while (svals[s] != TABLE_EMPTY && skeys[s] != key) s = (s + 1) & mask;
    return s;
}

/* Each key's value (TABLE_EMPTY where absent), widened, and whether it
 * was found. */
void repro_table_get(const int64_t* restrict skeys, const int32_t* restrict svals,
                     int64_t cap, const int64_t* restrict keys, int64_t n,
                     int64_t* restrict out, uint8_t* restrict found) {
    const uint64_t mask = (uint64_t)cap - 1;
    for (int64_t i = 0; i < n; i++) {
        const int32_t v = svals[table_slot(skeys, svals, mask, keys[i])];
        out[i] = v;
        found[i] = v != TABLE_EMPTY;
    }
}

/* Insert keys[i] -> vals[i] in row order where the key is absent: a
 * stored entry wins, and so does the first row of a key the batch
 * repeats.  Returns -1, inserting nothing, if a value is not a 32-bit
 * integer above TABLE_EMPTY; else stops before the insert that would
 * take *size past limit and returns the rows consumed (the caller grows
 * the table and resumes). */
int64_t repro_table_put(int64_t* restrict skeys, int32_t* restrict svals, int64_t cap,
                        int64_t* restrict size, int64_t limit,
                        const int64_t* restrict keys, const int64_t* restrict vals,
                        int64_t n) {
    for (int64_t i = 0; i < n; i++)
        if (vals[i] <= TABLE_EMPTY || vals[i] > INT32_MAX) return -1;
    const uint64_t mask = (uint64_t)cap - 1;
    int64_t filled = *size, i = 0;
    for (; i < n; i++) {
        const uint64_t s = table_slot(skeys, svals, mask, keys[i]);
        if (svals[s] != TABLE_EMPTY) continue;
        if (filled >= limit) break;
        skeys[s] = keys[i];
        svals[s] = (int32_t)vals[i];
        filled++;
    }
    *size = filled;
    return i;
}

/* Move every entry of the old slot columns into the new, larger ones
 * (all empty; the keys are distinct, so no probe finds a match). */
void repro_table_rehash(const int64_t* restrict okeys, const int32_t* restrict ovals,
                        int64_t ocap, int64_t* restrict skeys, int32_t* restrict svals,
                        int64_t cap) {
    const uint64_t mask = (uint64_t)cap - 1;
    for (int64_t i = 0; i < ocap; i++) {
        if (ovals[i] == TABLE_EMPTY) continue;
        const uint64_t s = table_slot(skeys, svals, mask, okeys[i]);
        skeys[s] = okeys[i];
        svals[s] = ovals[i];
    }
}
"""

#: The one translation unit: the data-plane kernels, then the ingest
#: kernels of :mod:`repro.kernels.csrc_ingest`, which use its mixer.
C_SOURCE = _DATA_PLANE_SOURCE + csrc_ingest.C_SOURCE

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


#: A built pair in the cache: ``repro_kernels_<16 hex digits>.{c,so}``.
_BUILT = re.compile(r"repro_kernels_([0-9a-f]{16})\.(?:c|so)")


def _remove_stale(libdir: str, digest: str) -> None:
    """Delete the sources and libraries of any other digest from this
    user's private cache: no build of this source loads them again (a
    process that already has one loaded keeps its mapping)."""
    for entry in os.scandir(libdir):
        built = _BUILT.fullmatch(entry.name)
        if built and built.group(1) != digest:
            with suppress(FileNotFoundError):  # a concurrent builder's cleanup
                os.unlink(entry.path)


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
        _remove_stale(libdir, digest)
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
    lib.repro_scatter_rows.argtypes = [ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.repro_scatter_rows.restype = None
    lib.repro_table_get.argtypes = [ptr, ptr, i64, ptr, i64, ptr, ptr]
    lib.repro_table_get.restype = None
    lib.repro_table_put.argtypes = [ptr, ptr, i64, ptr, i64, ptr, ptr, i64]
    lib.repro_table_put.restype = i64
    lib.repro_table_rehash.argtypes = [ptr, ptr, i64, ptr, ptr, i64]
    lib.repro_table_rehash.restype = None
    csrc_ingest.declare(lib)
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
