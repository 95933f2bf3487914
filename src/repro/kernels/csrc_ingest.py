"""C source of the ingest kernels: the count-min sketch, edge placement
and the edge-store merge.

:mod:`repro.kernels.csrc` compiles this text into the same translation
unit as the data-plane kernels (after them: ``wang_mix``, ``ikey`` and
``seek`` are theirs), and :func:`declare` gives the loaded library's
new entry points their ctypes signatures.  Each kernel is integer
arithmetic only — 64-bit wrapping mixes, remainders, comparisons and
copies — so it gives the bits of its numpy reference
(:mod:`repro.kernels.reference`) by construction: no float is computed,
and no result depends on the order a loop visits its rows in.

* ``repro_sketch_query`` / ``repro_sketch_add``: every key hashed for
  every row (``wang_mix(key ^ salt) % width``, a mask when the width is
  a power of two: the same remainder), then the least counter of each
  table, or a wrapping add per key and row.
* ``repro_place_edges``: per row the ring's first position at or after
  ``wang_mix(own)``; a row with ``k > 1`` walks on to the next ``k``
  distinct members and takes the highest rendezvous weight of
  ``wang_mix(other)``, the first of equal weights.
* ``repro_edge_classify`` / ``repro_edge_splice``: a batch's insert and
  remove rows sorted (signed ``(key, other)`` order) and deduplicated,
  refused if one pair is in both, and located in the store's CSR,
  ``(unique_keys, starts, others)``, by a galloping walk over the keys
  and then within the key's segment; the splice writes the new
  ``others`` column, removed rows dropped and new ones in place, in one
  copy, and the new key index beside it in one walk over the keys.  No
  per-row key column is read or written: only the numpy reference
  expands one, per call (:func:`repro.kernels.reference.merge_edges`).
"""

from __future__ import annotations

import ctypes

C_SOURCE = r"""
/* ==== ingest: count-min sketch ==== */

/* Each key's least counter over the depth rows of table, plus the same
 * over plus (NULL: none), wrapping as int64 does. */
void repro_sketch_query(const uint64_t* restrict keys, int64_t n,
                        const uint64_t* restrict salts, int64_t depth, int64_t width,
                        const int64_t* restrict table, const int64_t* restrict plus,
                        int64_t* restrict out) {
    const uint64_t w = (uint64_t)width, mask = w - 1;
    const int pow2 = (w & mask) == 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t lo = 0, lo_plus = 0;
        for (int64_t r = 0; r < depth; r++) {
            const uint64_t h = wang_mix(keys[i] ^ salts[r]);
            const int64_t at = r * width + (int64_t)(pow2 ? (h & mask) : (h % w));
            if (r == 0 || table[at] < lo) lo = table[at];
            if (plus && (r == 0 || plus[at] < lo_plus)) lo_plus = plus[at];
        }
        out[i] = (int64_t)((uint64_t)lo + (uint64_t)lo_plus);
    }
}

/* Add counts[i * step] to key i's counter in every row (step 0: one
 * count for all), wrapping as int64 does. */
void repro_sketch_add(const uint64_t* restrict keys, int64_t n,
                      const uint64_t* restrict salts, int64_t depth, int64_t width,
                      int64_t* restrict table, const int64_t* restrict counts, int64_t step) {
    const uint64_t w = (uint64_t)width, mask = w - 1;
    const int pow2 = (w & mask) == 0;
    for (int64_t r = 0; r < depth; r++) {
        int64_t* row = table + r * width;
        for (int64_t i = 0; i < n; i++) {
            const uint64_t h = wang_mix(keys[i] ^ salts[r]);
            const int64_t at = (int64_t)(pow2 ? (h & mask) : (h % w));
            row[at] = (int64_t)((uint64_t)row[at] + (uint64_t)counts[i * step]);
        }
    }
}

/* ==== ingest: edge placement ==== */

#define HRW_STEP 0x9E3779B97F4A7C15ULL
#define HRW_SALT 0xC2B2AE3D27D4EB4FULL

/* The first slot whose position is >= h, past the top wrapping to 0. */
static int64_t ring_slot(const uint64_t* pos, int64_t n_slots, uint64_t h) {
    int64_t lo = 0, hi = n_slots;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (pos[mid] < h) lo = mid + 1; else hi = mid;
    }
    return lo == n_slots ? 0 : lo;
}

/* Owner of each row's own vertex on the ring (pos ascending, owners
 * parallel, n_members distinct).  With k (NULL: every row 1), a row
 * with k[i] > 1 collects the next k[i] (at most n_members) distinct
 * owners clockwise into reps (room for n_members) and picks the one of
 * highest rendezvous weight
 * wang_mix(wang_mix(rep * HRW_STEP ^ HRW_SALT) ^ wang_mix(other)),
 * the first of equal weights. */
void repro_place_edges(const int64_t* restrict own, const int64_t* restrict other,
                       const int64_t* restrict k, int64_t n,
                       const uint64_t* restrict pos, const int64_t* restrict owners,
                       int64_t n_slots, int64_t n_members, int64_t* restrict reps,
                       int64_t* restrict out) {
    for (int64_t i = 0; i < n; i++) {
        const int64_t s = ring_slot(pos, n_slots, wang_mix((uint64_t)own[i]));
        if (!k || k[i] <= 1) {
            out[i] = owners[s];
            continue;
        }
        const int64_t want = k[i] < n_members ? k[i] : n_members;
        int64_t found = 0;
        for (int64_t step = 0; step < n_slots && found < want; step++) {
            const int64_t at = s + step < n_slots ? s + step : s + step - n_slots;
            const int64_t o = owners[at];
            int64_t j = 0;
            while (j < found && reps[j] != o) j++;
            if (j == found) reps[found++] = o;
        }
        const uint64_t oh = wang_mix((uint64_t)other[i]);
        uint64_t best = 0;
        int64_t pick = 0;
        for (int64_t j = 0; j < found; j++) {
            const uint64_t w = wang_mix(wang_mix(((uint64_t)reps[j] * HRW_STEP) ^ HRW_SALT) ^ oh);
            if (j == 0 || w > best) {
                best = w;
                pick = j;
            }
        }
        out[i] = reps[pick];
    }
}

/* ==== ingest: edge-store merge ==== */

static int pair_lt(int64_t ak, int64_t ao, int64_t bk, int64_t bo) {
    return ak < bk || (ak == bk && ao < bo);
}

/* Sort (k, o) pairs ascending, key first, as signed integers: nothing
 * for a run already in order, an insertion sort for a short one, else
 * a stable LSD radix sort over the other's bytes then the key's,
 * skipping bytes that do not vary.  Returns -1 on allocation failure. */
static int sort_pairs(int64_t* k, int64_t* o, int64_t n) {
    int64_t i = 1;
    while (i < n && !pair_lt(k[i], o[i], k[i - 1], o[i - 1])) i++;
    if (i >= n) return 0;
    if (n <= 32) {
        for (i = 1; i < n; i++) {
            const int64_t xk = k[i], xo = o[i];
            int64_t j = i - 1;
            while (j >= 0 && pair_lt(xk, xo, k[j], o[j])) {
                k[j + 1] = k[j];
                o[j + 1] = o[j];
                j--;
            }
            k[j + 1] = xk;
            o[j + 1] = xo;
        }
        return 0;
    }
    int64_t* tk = (int64_t*)malloc(sizeof(int64_t) * n);
    int64_t* to = (int64_t*)malloc(sizeof(int64_t) * n);
    if (!tk || !to) {
        free(tk); free(to);
        return -1;
    }
    static const int NPASS = 16;
    int64_t (*count)[256] = (int64_t (*)[256])calloc(NPASS * 256, sizeof(int64_t));
    if (!count) {
        free(tk); free(to);
        return -1;
    }
    for (i = 0; i < n; i++) {
        const uint64_t x = ikey(o[i]), y = ikey(k[i]);
        for (int p = 0; p < 8; p++) {
            count[p][(x >> (8 * p)) & 0xFF]++;
            count[8 + p][(y >> (8 * p)) & 0xFF]++;
        }
    }
    int64_t *ak = k, *ao = o, *bk = tk, *bo = to;
    for (int p = 0; p < NPASS; p++) {
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
        const int64_t* src = p < 8 ? ao : ak;
        const int shift = 8 * (p % 8);
        for (i = 0; i < n; i++) {
            const int64_t at = offs[(ikey(src[i]) >> shift) & 0xFF]++;
            bk[at] = ak[i];
            bo[at] = ao[i];
        }
        int64_t* t = ak; ak = bk; bk = t;
        t = ao; ao = bo; bo = t;
    }
    if (ak != k) {
        memcpy(k, ak, sizeof(int64_t) * n);
        memcpy(o, ao, sizeof(int64_t) * n);
    }
    free(count); free(tk); free(to);
    return 0;
}

/* Drop repeats from sorted pairs in place; returns how many remain. */
static int64_t dedupe_pairs(int64_t* k, int64_t* o, int64_t n) {
    if (n == 0) return 0;
    int64_t m = 1;
    for (int64_t i = 1; i < n; i++)
        if (k[i] != k[m - 1] || o[i] != o[m - 1]) {
            k[m] = k[i];
            o[m] = o[i];
            m++;
        }
    return m;
}

/* Whether the CSR store (uk, U keys; st, U + 1 offsets; so) holds the
 * pair (key, oth), with *p set to its row, or to the row it would go
 * before.  Pairs are visited in ascending order: *j (key index) and *p
 * are cursors that start at 0 and only move forward. */
static int locate_pair(const int64_t* uk, const int64_t* st, int64_t U, const int64_t* so,
                       int64_t key, int64_t oth, int64_t* j, int64_t* p) {
    *j = seek(uk, U, *j, key);
    if (*j == U || uk[*j] != key) {
        *p = st[*j];
        return 0;
    }
    const int64_t end = st[*j + 1];
    *p = seek(so, end, *p > st[*j] ? *p : st[*j], oth);
    return *p < end && so[*p] == oth;
}

/* Classify a batch (row i inserts (bk[i], bo[i]) where ins[i], else
 * removes it) against the CSR store (uk, st, U, so).  Writes the
 * effective rows to eff_k / eff_o (room for n) — the distinct absent
 * pairs inserted, ascending, then the distinct present pairs removed,
 * ascending — and each one's store row to at: where an insert goes
 * before, which row a removal drops.  Returns the effective row count
 * with the inserts' in *n_adds; -2 (nothing written) when one pair is
 * both inserted and removed; -1 on allocation failure. */
int64_t repro_edge_classify(const int64_t* restrict uk, const int64_t* restrict st, int64_t U,
                            const int64_t* restrict so,
                            const int64_t* restrict bk, const int64_t* restrict bo,
                            const uint8_t* restrict ins, int64_t n,
                            int64_t* restrict eff_k, int64_t* restrict eff_o,
                            int64_t* restrict at, int64_t* restrict n_adds) {
    int64_t* k = (int64_t*)malloc(sizeof(int64_t) * (n ? n : 1));
    int64_t* o = (int64_t*)malloc(sizeof(int64_t) * (n ? n : 1));
    if (!k || !o) {
        free(k); free(o);
        return -1;
    }
    /* inserts fill [0, n_ins) from the front, removals the rest from the back */
    int64_t n_ins = 0, back = n;
    for (int64_t i = 0; i < n; i++) {
        const int64_t slot = ins[i] ? n_ins++ : --back;
        k[slot] = bk[i];
        o[slot] = bo[i];
    }
    int64_t *dk = k + n_ins, *dO = o + n_ins;
    if (sort_pairs(k, o, n_ins) || sort_pairs(dk, dO, n - n_ins)) {
        free(k); free(o);
        return -1;
    }
    const int64_t na = dedupe_pairs(k, o, n_ins);
    const int64_t nd = dedupe_pairs(dk, dO, n - n_ins);
    for (int64_t i = 0, j = 0; i < na && j < nd;) {
        if (pair_lt(k[i], o[i], dk[j], dO[j])) i++;
        else if (pair_lt(dk[j], dO[j], k[i], o[i])) j++;
        else {
            free(k); free(o);
            return -2;
        }
    }
    int64_t m = 0, key = 0, p = 0;
    for (int64_t i = 0; i < na; i++) {
        if (locate_pair(uk, st, U, so, k[i], o[i], &key, &p)) continue;
        eff_k[m] = k[i];
        eff_o[m] = o[i];
        at[m++] = p;
    }
    *n_adds = m;
    key = p = 0;
    for (int64_t j = 0; j < nd; j++) {
        if (!locate_pair(uk, st, U, so, dk[j], dO[j], &key, &p)) continue;
        eff_k[m] = dk[j];
        eff_o[m] = dO[j];
        at[m++] = p;
    }
    free(k); free(o);
    return m;
}

/* The store's new CSR after repro_edge_classify: rows del_at (ascending,
 * keyed del_k) dropped and pair a of (ak, ao) inserted before row
 * add_at[a].  Writes out_o (S - nd + na rows), out_uk and out_st (room
 * for U + na keys and one offset more) and returns the new key count:
 * an old key keeps its entry while rows remain, and a key the inserts
 * bring in enters before the first old key above it. */
int64_t repro_edge_splice(const int64_t* restrict uk, const int64_t* restrict st, int64_t U,
                          const int64_t* restrict so,
                          const int64_t* restrict ak, const int64_t* restrict ao,
                          const int64_t* restrict add_at, int64_t na,
                          const int64_t* restrict del_k, const int64_t* restrict del_at,
                          int64_t nd, int64_t* restrict out_uk, int64_t* restrict out_st,
                          int64_t* restrict out_o) {
    const int64_t S = st[U];
    int64_t s = 0, w = 0, a = 0, d = 0;
    while (a < na || d < nd) {
        const int64_t next_a = a < na ? add_at[a] : INT64_MAX;
        const int64_t next_d = d < nd ? del_at[d] : INT64_MAX;
        const int64_t p = next_a <= next_d ? next_a : next_d;
        memcpy(out_o + w, so + s, sizeof(int64_t) * (p - s));
        w += p - s;
        s = p;
        if (next_a <= next_d) {
            out_o[w++] = ao[a++];
        } else {
            s = p + 1;
            d++;
        }
    }
    memcpy(out_o + w, so + s, sizeof(int64_t) * (S - s));
    int64_t nu = 0;
    w = a = d = 0;
    for (int64_t j = 0; j < U || a < na;) {
        const int fresh = j == U || (a < na && ak[a] < uk[j]);
        const int64_t key = fresh ? ak[a] : uk[j];
        int64_t rows = fresh ? 0 : st[j + 1] - st[j];
        j += !fresh;
        while (a < na && ak[a] == key) { a++; rows++; }
        while (d < nd && del_k[d] == key) { d++; rows--; }
        if (rows) {
            out_uk[nu] = key;
            out_st[nu++] = w;
            w += rows;
        }
    }
    out_st[nu] = w;
    return nu;
}
"""


def declare(lib: ctypes.CDLL) -> None:
    """Give the ingest entry points of a loaded library their signatures."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.repro_sketch_query.argtypes = [ptr, i64, ptr, i64, i64, ptr, ptr, ptr]
    lib.repro_sketch_query.restype = None
    lib.repro_sketch_add.argtypes = [ptr, i64, ptr, i64, i64, ptr, ptr, i64]
    lib.repro_sketch_add.restype = None
    lib.repro_place_edges.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, i64, i64, ptr, ptr]
    lib.repro_place_edges.restype = None
    lib.repro_edge_classify.argtypes = [ptr, ptr, i64, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr]
    lib.repro_edge_classify.restype = i64
    lib.repro_edge_splice.argtypes = [
        ptr, ptr, i64, ptr, ptr, ptr, ptr, i64, ptr, ptr, i64, ptr, ptr, ptr
    ]
    lib.repro_edge_splice.restype = i64
