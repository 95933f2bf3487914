"""Properties of the shard's array storage against set/dict references.

``EdgeStore.apply`` is a row-by-row walk over a dict of sets.  The store
merges a sorted batch into sorted columns; the reference here walks the
same batch one row at a time over ``{key: {other, ...}}``.  Store
contents, the effective rows and their order must agree for batches with
in-batch duplicates, inserts of present pairs, removes of absent pairs,
mixed batches, the same pair inserted *and* removed (the strict-order
fallback), and wide (>= 2**31) and negative ids.  On both kernel
backends, the store stays one CSR (strictly increasing keys and segment
offsets, no empty segment, others ascending within a segment) whose
expanded rows are the dict's, lexsorted.
Replaying the produced rows through the WAL onto an empty store must
rebuild the same store.

The merge operations over sorted id columns (membership, union,
distinct, the sorted upsert) and everything built on them —
``ValueColumn.set_many``/``restrict``, ``IdSet.update``/``restrict``/
``assign``, ``ProgramState.absorb`` — equal a ``set``/``dict`` walk for
empty, negative, wide, repeated and unsorted batches, and never keep a
reference to a caller's arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cluster.edgestore import EdgeStore, IdSet, ValueColumn
from repro.cluster.recovery import EdgeWAL
from repro.cluster.shard import ProgramState, ShardState
from repro.graph.sortedids import distinct, increasing, members, union
from repro.sketch.countmin import CountMinSketch

NARROW = list(range(6))
POOLS = {
    "narrow": NARROW,
    "wide": NARROW + [2**31, 2**31 + 1, 2**40],
    "negative": NARROW + [-1, -2, 2**31 - 1],
}


@st.composite
def batch_sequences(draw):
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    row = st.tuples(st.sampled_from(pool), st.sampled_from(pool), st.sampled_from([1, -1]))
    return draw(st.lists(st.lists(row, max_size=24), min_size=1, max_size=6))


def reference_apply(store, rows):
    """Walk ``rows`` in order over a dict of sets; return the effective
    rows in the order the store documents."""
    effective = []
    for key, other, action in rows:
        bucket = store.get(key)
        if action > 0:
            if bucket is None:
                bucket = store[key] = set()
            if other not in bucket:
                bucket.add(other)
                effective.append((key, other, 1))
        elif bucket is not None and other in bucket:
            bucket.remove(other)
            effective.append((key, other, -1))
            if not bucket:
                del store[key]
    inserted = {(k, o) for k, o, a in rows if a > 0}
    removed = {(k, o) for k, o, a in rows if a < 0}
    if inserted & removed:
        return effective  # strict batch order
    return sorted(e for e in effective if e[2] > 0) + sorted(e for e in effective if e[2] < 0)


def columns(rows):
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def assert_csr(store):
    """The store is one CSR: strictly increasing keys and offsets from 0
    to its row count (so no empty segment), int64 throughout, and each
    segment's others strictly increasing."""
    unique_keys, starts, others = store.unique_keys, store.starts, store.others
    assert unique_keys.dtype == starts.dtype == others.dtype == np.int64
    assert len(starts) == len(unique_keys) + 1
    assert starts[0] == 0 and starts[-1] == len(others) == store.n_edges
    assert (unique_keys[1:] > unique_keys[:-1]).all()
    assert (starts[1:] > starts[:-1]).all()
    same_key = np.repeat(np.arange(len(unique_keys)), np.diff(starts))
    same_key = same_key[1:] == same_key[:-1]
    assert (others[1:][same_key] > others[:-1][same_key]).all()


def on_each_backend(fn):
    """``fn()`` on the numpy reference, then on the C kernels where they
    build."""
    before = kernels.enabled()
    try:
        for c_kernels in (False, True):
            if kernels.set_enabled(c_kernels) == c_kernels:
                fn()
    finally:
        kernels.set_enabled(before)


@given(batches=batch_sequences())
@settings(max_examples=150, deadline=None)
def test_apply_matches_dict_of_sets_walk(batches):
    on_each_backend(lambda: walk_against_dict_of_sets(batches))


def walk_against_dict_of_sets(batches):
    store = EdgeStore()
    reference = {}
    wal = EdgeWAL()
    for rows in batches:
        version = store.version
        got = store.apply(*columns(rows))
        expected = reference_apply(reference, rows)
        assert list(zip(*(col.tolist() for col in got))) == expected
        assert store == reference
        assert (store.version > version) == bool(expected)
        assert_csr(store)
        keys, others = store.arrays()
        pairs = list(zip(keys.tolist(), others.tolist()))
        assert pairs == sorted((k, o) for k, held in reference.items() for o in held)
        assert store.contains_pairs(keys, others).all()
        wal.append("out", got, sketched=True)
    rebuilt = ShardState(CountMinSketch(8, 1))
    wal.replay(rebuilt)
    assert rebuilt.out_store == store
    assert_csr(rebuilt.out_store)


@given(batches=batch_sequences(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_remove_pairs_and_row_selection(batches, data):
    store = EdgeStore()
    for rows in batches:
        store.apply(*columns(rows))
    keys, others = store.arrays()
    chosen = data.draw(st.lists(st.sampled_from(sorted(set(keys.tolist())) or [0]), unique=True))
    rows = store.rows_keyed_by(np.asarray(sorted(chosen), dtype=np.int64))
    assert rows.tolist() == [i for i, k in enumerate(keys.tolist()) if k in set(chosen)]
    assert store.keys_of(rows).tolist() == keys[rows].tolist()
    assert np.repeat(store.unique_keys, store.key_counts).tolist() == keys.tolist()
    expected = store.to_dict()
    for k, o in zip(keys[rows].tolist(), others[rows].tolist()):
        expected[k].discard(o)
    assert store.remove_pairs(keys[rows].copy(), others[rows].copy()) == len(rows)
    assert store == {k: v for k, v in expected.items() if v}


# -- merge operations over sorted id columns ---------------------------

ID_POOL = [-(2**40), -3, -1, 0, 1, 2, 3, 5, 8, 13, 2**31 - 1, 2**31, 2**40]
id_batches = st.lists(st.sampled_from(ID_POOL), max_size=20)
sorted_sets = id_batches.map(lambda ids: sorted(set(ids)))


def arr(ids):
    return np.asarray(ids, dtype=np.int64)


@given(batch=id_batches, column=sorted_sets, other=sorted_sets)
@settings(max_examples=150, deadline=None)
def test_members_union_and_distinct_match_sets(batch, column, other):
    assert members(arr(column), arr(batch)).tolist() == [v in set(column) for v in batch]
    merged = union(arr(column), arr(other))
    assert merged.dtype == np.int64
    assert merged.tolist() == sorted(set(column) | set(other))
    assert distinct(arr(batch)).tolist() == sorted(set(batch))
    assert distinct(arr(sorted(batch))).tolist() == sorted(set(batch))
    assert increasing(arr(batch)) == (batch == sorted(set(batch)))


@st.composite
def upsert_batches(draw):
    """(ids, values) batches: unsorted, repeated, sorted or empty."""
    rows = st.tuples(st.sampled_from(ID_POOL), st.integers(-50, 50).map(float))
    batches = draw(st.lists(st.lists(rows, max_size=12), min_size=1, max_size=5))
    return [sorted(b, key=lambda r: r[0]) if draw(st.booleans()) else b for b in batches]


@given(batches=upsert_batches(), keep=sorted_sets)
@settings(max_examples=150, deadline=None)
def test_value_column_upsert_and_restrict_match_a_dict(batches, keep):
    column, reference = ValueColumn(), {}
    for rows in batches:
        ids = arr([r[0] for r in rows])
        vals = np.asarray([r[1] for r in rows], dtype=np.float64)
        column.set_many(ids, vals)
        reference.update(dict(rows))  # last write in the batch wins
        assert column == reference
        assert increasing(column.ids) and len(column.vals) == len(column.ids)
    column.restrict(arr(keep))
    assert column == {k: v for k, v in reference.items() if k in set(keep)}


@given(batches=st.lists(id_batches, min_size=1, max_size=5), keep=sorted_sets,
       universe=sorted_sets, data=st.data())
@settings(max_examples=150, deadline=None)
def test_id_set_update_restrict_assign_match_a_set(batches, keep, universe, data):
    ids, reference = IdSet(), set()
    for batch in batches:
        ids.update(arr(batch))
        reference |= set(batch)
        assert ids == reference and increasing(ids.ids)
    mask = data.draw(st.lists(st.booleans(), min_size=len(universe), max_size=len(universe)))
    ids.assign(arr(universe), np.asarray(mask, dtype=bool))
    reference = (reference - set(universe)) | {v for v, m in zip(universe, mask) if m}
    assert ids == reference and increasing(ids.ids)
    ids.restrict(arr(keep))
    assert ids == reference & set(keep)


id_values = st.dictionaries(st.sampled_from(ID_POOL), st.integers(-50, 50).map(float), max_size=10)


def slice_of(values, active):
    """A shipped slice as ``ProgramState.select`` builds it: sorted
    distinct ids per part."""
    ids = arr(sorted(values))
    vals = np.asarray([values[i] for i in sorted(values)], dtype=np.float64)
    return {"values": (ids, vals), "active": arr(sorted(active)), "scatter": (ids, vals)}


@given(held=id_values, held_active=sorted_sets, shipped=id_values, active=sorted_sets,
       kept=st.none() | sorted_sets)
@settings(max_examples=150, deadline=None)
def test_absorb_matches_a_dict_merge(held, held_active, shipped, active, kept):
    state = ProgramState(ValueColumn.from_dict(held), IdSet(arr(held_active)))
    merged = state.absorb(slice_of(shipped, active), None if kept is None else arr(kept))
    allowed = set(shipped) if kept is None else set(shipped) & set(kept)
    took = {i: shipped[i] for i in allowed}
    took_active = set(active) if kept is None else set(active) & set(kept)
    assert state.values == {**held, **took}
    assert state.scatter == took
    assert state.active == set(held_active) | took_active
    # What was merged is what the WAL logs, empty parts dropped.
    assert set(merged) == {p for p, n in (("values", took), ("scatter", took),
                                          ("active", took_active)) if n}
    if took:
        assert merged["values"][0].tolist() == sorted(took)
    if took_active:
        assert merged["active"].tolist() == sorted(took_active)


def test_sorted_upsert_into_an_empty_column_keeps_no_caller_array():
    """The strictly increasing batch skips the sort: the copy is all that
    stands between the column and the caller's buffers."""
    ids = arr([1, 4, 9])
    vals = np.asarray([0.5, 1.5, 2.5])
    column = ValueColumn()
    column.set_many(ids, vals)
    ids[:] = [7, 7, 7]
    vals[:] = -1.0
    assert column == {1: 0.5, 4: 1.5, 9: 2.5}

    batch = arr([2, 3])
    active = IdSet()
    active.update(batch)
    batch[:] = 0
    assert active == {2, 3}
