"""Ingest-kernel bit-identity: the count-min sketch, edge placement and
the edge-store merge give the numpy reference's bits on the C backend.

Each property compares the bare C entry point (``kernels.c_*``) with its
reference (``kernels.reference``), and the public method
(``CountMinSketch``, ``EdgePlacer``, ``EdgeStore``) on both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cluster.edgestore import EdgeStore
from repro.hashing.hashes import HASH_FUNCTIONS, wang64
from repro.hashing.ring import ConsistentHashRing
from repro.kernels import reference
from repro.partition.placer import EdgePlacer
from repro.sketch.countmin import CountMinSketch

pytestmark = [
    pytest.mark.kernels,
    pytest.mark.skipif(
        not kernels.available(), reason="C kernel backend unavailable (no compiler)"
    ),
]

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SMALL_IDS = st.integers(min_value=-40, max_value=60)
WIDE_IDS = st.one_of(SMALL_IDS, st.integers(min_value=2**31 - 3, max_value=2**31 + 3), I64)


@pytest.fixture(autouse=True)
def _restore_dispatch():
    before = kernels.enabled()
    yield
    kernels.set_enabled(before)


def on_both_backends(fn):
    """``fn()`` on the reference, then on the C backend."""
    kernels.set_enabled(False)
    ref = fn()
    assert kernels.set_enabled(True)
    return ref, fn()


# ----------------------------------------------------------------------
# count-min sketch
# ----------------------------------------------------------------------

WIDTHS = st.sampled_from([1, 2, 64, 256, 7, 97, 1000])


@given(
    width=WIDTHS,
    depth=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    keys=st.lists(I64, max_size=60),
    counts=st.lists(st.integers(min_value=-5, max_value=5), min_size=60, max_size=60),
    queries=st.lists(I64, max_size=40),
)
@settings(max_examples=80, deadline=None)
def test_sketch_kernels_equal_the_reference(width, depth, seed, keys, counts, queries):
    """Turnstile counts, repeated keys, negative ids, odd and power-of-two
    widths: the same table after ``add``, the same estimates after it."""
    sketch = CountMinSketch(width, depth, seed=seed)
    salts = sketch._row_salts
    key_arr = np.array(keys, dtype=np.int64).view(np.uint64)
    count_arr = np.array(counts[: len(keys)], dtype=np.int64)
    ref_table, c_table = sketch.table.copy(), sketch.table.copy()
    reference.sketch_add(salts, key_arr, ref_table, count_arr)
    kernels.c_sketch_add(salts, key_arr, c_table, count_arr)
    assert np.array_equal(ref_table, c_table)
    reference.sketch_add(salts, key_arr, ref_table, np.broadcast_to(np.int64(3), key_arr.shape))
    kernels.c_sketch_add(salts, key_arr, c_table, np.broadcast_to(np.int64(3), key_arr.shape))
    assert np.array_equal(ref_table, c_table)

    q = np.array(queries + keys[:5], dtype=np.int64).view(np.uint64)
    plus = np.roll(ref_table, 1, axis=1).copy()
    for extra in (None, plus):
        want = reference.sketch_query(salts, q, ref_table, extra)
        got = kernels.c_sketch_query(salts, q, c_table, extra)
        assert want.dtype == got.dtype == np.int64
        assert np.array_equal(want, got)


@given(
    keys=st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=1, max_size=50),
    width=WIDTHS,
)
@settings(max_examples=40, deadline=None)
def test_sketch_methods_agree_across_backends(keys, width):
    """Scalar and array input, int32 and negative ids, ``plus=``."""

    def run():
        sketch = CountMinSketch(width, 4, seed=11)
        delta = CountMinSketch(width, 4, seed=11)
        sketch.add(np.array(keys, dtype=np.int32))
        delta.add(keys[::2], np.arange(len(keys[::2])) - 2)
        delta.remove(keys[:1])
        arr = sketch.query(np.array(keys, dtype=np.int64), plus=delta)
        scalar = sketch.query(int(keys[0]))
        return sketch.table.copy(), delta.table.copy(), delta.total, arr, scalar

    ref, acc = on_both_backends(run)
    for want, got in zip(ref, acc):
        assert np.array_equal(want, got)
    assert type(ref[-1]) is type(acc[-1]) is int


def test_negative_python_int_keys_count_as_their_uint64_view():
    """``add(-1)`` / ``query(-1)`` hash -1 as 2**64 - 1, as a negative
    int64 array does, on both backends (a Python int used to overflow)."""
    for flag in (False, True):
        kernels.set_enabled(flag)
        sketch = CountMinSketch(64, 4)
        sketch.add(-1)
        sketch.add(-1, 2)
        assert sketch.query(-1) == 3
        assert sketch.query(np.array([-1], dtype=np.int64)).tolist() == [3]
        assert sketch.query(2**64 - 1) == 3
        sketch.remove(np.array([-1], dtype=np.int32))
        assert sketch.query(-1) == 2


def test_sketch_tables_the_kernel_cannot_write_go_to_the_reference():
    """An int32 table takes the reference from the dispatcher and is
    refused by the bare C entry point.  A sketch allocates its table at
    its first count, so the write goes through ``add``; a table shared
    copy-on-write is read-only, and the reference refuses to write it
    (``np.add.at`` alone would ignore the flag)."""
    sketch = CountMinSketch(64, 3, dtype=np.int32)
    keys = np.arange(10, dtype=np.uint64)
    table = np.zeros((3, 64), dtype=np.int32)
    kernels.sketch_add(sketch._row_salts, keys, table, np.ones(10, dtype=np.int32))
    sketch.add(keys, np.ones(10, dtype=np.int32))
    assert sketch.table.dtype == np.int32 and np.array_equal(sketch.table, table)
    assert sketch.query(np.arange(10)).min() >= 1
    with pytest.raises(TypeError):
        kernels.c_sketch_add(sketch._row_salts, keys, sketch.table, 1)
    with pytest.raises(TypeError):
        kernels.c_sketch_query(sketch._row_salts, keys, sketch.table)
    shared = CountMinSketch(64, 3)
    shared.add(keys)
    before = shared.table.copy()
    shared.copy()
    with pytest.raises(ValueError, match="read-only"):
        kernels.sketch_add(shared._row_salts, keys, shared.table, np.ones(10, dtype=np.int64))
    assert np.array_equal(shared.table, before)


# ----------------------------------------------------------------------
# edge placement
# ----------------------------------------------------------------------


def _placer(members, hubs, threshold, gated, hash_fn=wang64):
    sketch = CountMinSketch(256, 4)
    if hubs:
        sketch.add(np.repeat(np.array(hubs, dtype=np.int64), 40))
    ring = ConsistentHashRing(members, virtual_factor=20, hash_fn=hash_fn)
    gate = frozenset(hubs) if gated else None
    return EdgePlacer(ring, sketch, threshold, hash_fn=hash_fn, split_gate=gate)


@given(
    members=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6, unique=True),
    hubs=st.lists(SMALL_IDS, max_size=4, unique=True),
    threshold=st.integers(min_value=1, max_value=60),
    gated=st.booleans(),
    rows=st.lists(st.tuples(SMALL_IDS, I64), max_size=80),
)
@settings(max_examples=80, deadline=None)
def test_place_edges_equals_the_reference(members, hubs, threshold, gated, rows):
    """Unsplit and split rows mixed, with and without a split gate; a
    threshold of 1 asks for more replicas than the ring has members."""
    placer = _placer(members, hubs, threshold, gated)
    own = np.array([r[0] for r in rows] + hubs, dtype=np.int64)
    other = np.array([r[1] for r in rows] + hubs[::-1], dtype=np.int64)
    k = placer.replication_factor(own)
    want = reference.place_edges(placer.ring, reference.wang64_u64, own, other, k)
    assert np.array_equal(want, kernels.c_place_edges(placer.ring, own, other, k))
    # uncapped factors are capped, as the reference caps them
    big = k + 3 * (k > 1)
    want_big = reference.place_edges(placer.ring, reference.wang64_u64, own, other, big)
    assert np.array_equal(want_big, kernels.c_place_edges(placer.ring, own, other, big))
    assert np.array_equal(
        reference.place_edges(placer.ring, reference.wang64_u64, own),
        kernels.c_place_edges(placer.ring, own),
    )
    ref, acc = on_both_backends(
        lambda: (placer.owner_of_edges(own, other), placer.ring_owners(own))
    )
    assert np.array_equal(ref[0], acc[0]) and np.array_equal(ref[1], acc[1])


@pytest.mark.parametrize("members", [[0], [3, 9], [0, 1, 2, 7, 40]])
def test_place_edges_wraps_past_the_top_of_the_ring(members):
    """A key hashed above every position belongs to the first one: with
    a few positions a sixth or more of all keys wrap."""
    ring = ConsistentHashRing(members, virtual_factor=2)
    rng = np.random.default_rng(len(members))
    own = rng.integers(-(2**63), 2**63 - 1, size=5000, dtype=np.int64)
    other = rng.integers(-(2**63), 2**63 - 1, size=5000, dtype=np.int64)
    wraps = wang64(own) > ring.slots()[0][-1]
    assert wraps.sum() > 100
    k = np.where(np.arange(5000) % 2 == 0, len(members), 1)
    for kk in (None, k):
        want = reference.place_edges(ring, reference.wang64_u64, own, other, kk)
        got = kernels.c_place_edges(ring, own, None if kk is None else other, kk)
        assert np.array_equal(want, got)


def test_place_edges_on_an_empty_batch_and_an_empty_ring():
    placer = _placer([0, 1, 2], [5], 10, True)
    empty = np.empty(0, dtype=np.int64)
    for flag in (False, True):
        kernels.set_enabled(flag)
        assert placer.owner_of_edges(empty, empty).shape == (0,)
        assert placer.ring_owners(empty).shape == (0,)
    with pytest.raises(LookupError):
        kernels.c_place_edges(ConsistentHashRing([]), np.arange(3))


@pytest.mark.parametrize("name", sorted(set(HASH_FUNCTIONS) - {"wang"}))
def test_other_hashes_keep_the_numpy_placement(monkeypatch, name):
    """Only wang64 is compiled: any other hash places through its own
    function and the ring's lookups, never the C kernel."""
    calls = []
    monkeypatch.setattr(kernels, "c_place_edges", lambda *a: calls.append(a))
    hash_fn = HASH_FUNCTIONS[name]
    placer = _placer([0, 1, 2, 3], [4, 9], 10, True, hash_fn=hash_fn)
    rng = np.random.default_rng(4)
    own = rng.integers(0, 12, size=200).astype(np.int64)
    other = rng.integers(0, 12, size=200).astype(np.int64)
    got = placer.owner_of_edges(own, other)
    k = placer.replication_factor(own)
    want = reference.place_edges(placer.ring, hash_fn, own, other, k)
    assert np.array_equal(got, want)
    assert np.array_equal(placer.ring_owners(own), placer.ring.lookup_hash(hash_fn(own)))
    assert calls == []


# ----------------------------------------------------------------------
# edge-store merge
# ----------------------------------------------------------------------

store_pairs = st.lists(st.tuples(SMALL_IDS, SMALL_IDS), max_size=60)
batch_rows = st.lists(st.tuples(SMALL_IDS, SMALL_IDS, st.booleans()), max_size=60)


def _store(pairs) -> EdgeStore:
    return EdgeStore.from_dict(
        {k: {o for kk, o in pairs if kk == k} for k, _ in pairs}
    ) if pairs else EdgeStore()


def _merge_both(store: EdgeStore, keys, others, ins):
    args = (store.unique_keys, store.starts, store.others, keys, others, ins)
    return reference.merge_edges(*args), kernels.c_merge_edges(*args)


def _same_merge(want, got):
    if want is None or got is None:
        assert want is None and got is None
        return
    (wk, wo, wn, wcols), (gk, go, gn, gcols) = want, got
    assert np.array_equal(wk, gk) and np.array_equal(wo, go) and wn == gn
    assert wk.dtype == gk.dtype == wo.dtype == go.dtype == np.int64
    if wcols is None or gcols is None:
        assert wcols is None and gcols is None
        return
    assert len(wcols) == len(gcols) == 3
    for w, g in zip(wcols, gcols):
        assert w.dtype == g.dtype == np.int64 and np.array_equal(w, g)
    unique_keys, starts, others = gcols
    assert len(starts) == len(unique_keys) + 1 and starts[0] == 0 and starts[-1] == len(others)
    assert (unique_keys[1:] > unique_keys[:-1]).all() and (np.diff(starts) > 0).all()


@given(pairs=store_pairs, rows=batch_rows)
@settings(max_examples=120, deadline=None)
def test_merge_edges_equals_the_reference(pairs, rows):
    """Duplicates, removals of absent pairs, an empty store, and a pair
    both inserted and removed (None from both: a sequential replay)."""
    store = _store(pairs)
    keys = np.array([r[0] for r in rows], dtype=np.int64)
    others = np.array([r[1] for r in rows], dtype=np.int64)
    ins = np.array([r[2] for r in rows], dtype=bool)
    _same_merge(*_merge_both(store, keys, others, ins))


@given(
    pairs=st.lists(st.tuples(WIDE_IDS, WIDE_IDS), max_size=30),
    rows=st.lists(st.tuples(WIDE_IDS, WIDE_IDS, st.booleans()), max_size=30),
)
@settings(max_examples=80, deadline=None)
def test_merge_edges_equals_the_reference_in_the_records_regime(pairs, rows):
    """Ids of 2**31 and up, or negative, on either side: ids no packed
    pair could hold, plain int64s to both merges."""
    store = _store(pairs)
    keys = np.array([r[0] for r in rows], dtype=np.int64)
    others = np.array([r[1] for r in rows], dtype=np.int64)
    ins = np.array([r[2] for r in rows], dtype=bool)
    _same_merge(*_merge_both(store, keys, others, ins))


def test_merge_edges_on_a_long_shuffled_batch_takes_the_radix_sort():
    """Batches over 32 rows out of order sort by radix passes, every byte
    of both ids varying."""
    rng = np.random.default_rng(9)
    held = rng.integers(-(2**62), 2**62, size=(3000, 2))
    store = _store([tuple(p) for p in held[:2000]])
    keys = np.concatenate([held[1000:3000, 0], held[:500, 0]])
    others = np.concatenate([held[1000:3000, 1], held[:500, 1]])
    ins = np.arange(len(keys)) % 3 != 0
    order = rng.permutation(len(keys))
    _same_merge(*_merge_both(store, keys[order], others[order], ins[order]))


@given(pairs=store_pairs, batches=st.lists(batch_rows, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_edge_store_apply_agrees_across_backends(pairs, batches):
    """The public ``apply``: the same effective rows, CSR, version
    and membership answers after each batch, sequential fallback
    included."""

    def run():
        store = _store(pairs)
        out = []
        for rows in batches:
            k = np.array([r[0] for r in rows], dtype=np.int64)
            o = np.array([r[1] for r in rows], dtype=np.int64)
            a = np.array([1 if r[2] else -1 for r in rows], dtype=np.int8)
            eff = store.apply(k, o, a)
            out.append([x.tolist() for x in eff])
            out.append([x.tolist() for x in (store.unique_keys, store.starts, store.others)])
            out.append(store.version)
            out.append(store.contains_pairs(k, o).tolist())
        return out

    ref, acc = on_both_backends(run)
    assert ref == acc


#: A wide pair, a held one and an absent one: what ``_remove_wide`` drops.
DROP_K, DROP_O = np.array([2**40, 1, 7]), np.array([-5, 3, 7])


def _remove_wide(remove):
    """Effective rows, CSR and version of a store that took a wide
    pair and then lost it to ``remove(store)``."""
    store = EdgeStore()
    seen = [store.apply(np.array([1, 2]), np.array([3, 4]), np.array([1, 1]))]
    seen.append(store.apply(DROP_K[:1], DROP_O[:1], np.array([1])))
    removed = remove(store)
    csr = (store.unique_keys, store.starts, store.others)
    bits = [(x.dtype.str, x.tobytes()) for x in (*seen[0], *seen[1], *csr)]
    return bits, removed, store.version


def test_remove_pairs_is_the_merge_of_apply_on_both_backends():
    """``remove_pairs`` of a ``(2**40, -5)`` pair gives the same bits on
    both backends, and leaves the store ``apply(k, o, -1)`` leaves."""
    by_pairs = on_both_backends(lambda: _remove_wide(lambda s: s.remove_pairs(DROP_K, DROP_O)))
    by_apply = on_both_backends(
        lambda: _remove_wide(lambda s: len(s.apply(DROP_K, DROP_O, -np.ones(3, dtype=np.int8))[0]))
    )
    assert by_pairs[0] == by_pairs[1] == by_apply[0] == by_apply[1]
    bits, removed, version = by_pairs[0]
    assert removed == 2 and version == 3
    assert [np.frombuffer(b, dtype=d).tolist() for d, b in bits[-3:]] == [[2], [0, 1], [4]]
