"""Property: ``EdgeStore.apply`` is a row-by-row walk over a dict of sets.

The store merges a sorted batch into sorted columns; the reference here
walks the same batch one row at a time over ``{key: {other, ...}}``.
Store contents, the effective rows and their order must agree for
batches with in-batch duplicates, inserts of present pairs, removes of
absent pairs, mixed batches, the same pair inserted *and* removed (the
strict-order fallback), and ids that leave the packed 31-bit regime
(>= 2**31, negative).  Replaying the produced rows through the WAL onto
an empty store must rebuild the same store.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.edgestore import EdgeStore
from repro.cluster.recovery import EdgeWAL
from repro.cluster.shard import ShardState
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


@given(batches=batch_sequences())
@settings(max_examples=150, deadline=None)
def test_apply_matches_dict_of_sets_walk(batches):
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
        keys, others = store.arrays()
        pairs = list(zip(keys.tolist(), others.tolist()))
        assert pairs == sorted(set(pairs))
        assert store.contains_pairs(keys, others).all()
        wal.append("out", got, sketched=True)
    rebuilt = ShardState(CountMinSketch(8, 1))
    wal.replay(rebuilt)
    assert rebuilt.out_store == store


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
    assert np.repeat(store.unique_keys, store.key_counts).tolist() == keys.tolist()
    expected = store.to_dict()
    for k, o in zip(keys[rows].tolist(), others[rows].tolist()):
        expected[k].discard(o)
    assert store.remove_pairs(keys[rows].copy(), others[rows].copy()) == len(rows)
    assert store == {k: v for k, v in expected.items() if v}
