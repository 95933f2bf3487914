"""Property-based tests for the CountMinSketch invariants ElGA relies on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.hashes import as_u64_keys
from repro.kernels import reference
from repro.sketch import CountMinSketch

key_lists = st.lists(st.integers(min_value=0, max_value=2**62), min_size=0, max_size=200)


@given(keys=key_lists)
@settings(max_examples=60, deadline=None)
def test_no_underestimate_ever(keys):
    """The one-direction guarantee: the replication decision may fire
    early, never late."""
    cms = CountMinSketch(width=64, depth=4)
    cms.add(np.array(keys, dtype=np.int64)) if keys else None
    truth = {}
    for k in keys:
        truth[k] = truth.get(k, 0) + 1
    for k, count in truth.items():
        assert cms.query(k) >= count


@given(keys=key_lists)
@settings(max_examples=40, deadline=None)
def test_total_tracks_stream_length(keys):
    cms = CountMinSketch(width=32, depth=2)
    if keys:
        cms.add(np.array(keys, dtype=np.int64))
    assert cms.total == len(keys)


@given(keys=key_lists)
@settings(max_examples=40, deadline=None)
def test_delete_of_inserted_restores_exactly(keys):
    """Turnstile streams that never delete an absent edge leave the
    sketch exactly where it started."""
    cms = CountMinSketch(width=32, depth=2)
    baseline = cms.table.copy()
    arr = np.array(keys, dtype=np.int64)
    if len(arr):
        cms.add(arr)
        cms.remove(arr)
    assert np.array_equal(cms.table, baseline)


@given(a_keys=key_lists, b_keys=key_lists)
@settings(max_examples=40, deadline=None)
def test_merge_commutes_with_stream_concat(a_keys, b_keys):
    a = CountMinSketch(width=64, depth=3, seed=5)
    b = CountMinSketch(width=64, depth=3, seed=5)
    c = CountMinSketch(width=64, depth=3, seed=5)
    if a_keys:
        a.add(np.array(a_keys, dtype=np.int64))
    if b_keys:
        b.add(np.array(b_keys, dtype=np.int64))
    combined = a_keys + b_keys
    if combined:
        c.add(np.array(combined, dtype=np.int64))
    a.merge(b)
    assert a == c


@given(keys=key_lists, split=st.integers(min_value=0, max_value=200))
@settings(max_examples=40, deadline=None)
def test_incremental_equals_batch(keys, split):
    """Adding in two calls equals adding once — the delta-flush path."""
    split = min(split, len(keys))
    inc = CountMinSketch(width=64, depth=3)
    one = CountMinSketch(width=64, depth=3)
    if keys[:split]:
        inc.add(np.array(keys[:split], dtype=np.int64))
    if keys[split:]:
        inc.add(np.array(keys[split:], dtype=np.int64))
    if keys:
        one.add(np.array(keys, dtype=np.int64))
    assert inc == one


COW_WIDTH, COW_DEPTH, COW_SEED = 16, 3, 5
cow_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "copy", "merge", "clear"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.lists(st.integers(min_value=-40, max_value=40), max_size=10),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=40,
)


@given(steps=cow_steps)
@settings(max_examples=150, deadline=None)
def test_shared_tables_behave_as_deep_copies(steps):
    """Random add/remove/copy/merge/clear sequences over several
    sketches against a dense deep-copy model: tables, totals and
    estimates (alone and with ``plus=``) are bit-equal after every step,
    so no copy sees a later write to its source or the other way round;
    a new or cleared sketch holds no table; ``nbytes`` never moves."""
    sketches = [CountMinSketch(COW_WIDTH, COW_DEPTH, seed=COW_SEED)]
    models = [np.zeros((COW_DEPTH, COW_WIDTH), dtype=np.int64)]
    totals = [0]
    nbytes = sketches[0].nbytes
    assert nbytes == COW_DEPTH * COW_WIDTH * 8 and not sketches[0].holds_table
    salts = sketches[0]._row_salts
    probe = as_u64_keys(np.arange(-40, 41))

    def estimate(*tables):
        return sum(reference.sketch_query(salts, probe, table) for table in tables)

    for op, a, b, keys, count in steps:
        a, b = a % len(sketches), b % len(sketches)
        sketch, key_arr = sketches[a], np.array(keys, dtype=np.int64)
        if op in ("add", "remove"):
            signed = count if op == "add" else -count
            getattr(sketch, op)(key_arr, count)
            if len(keys):
                reference.sketch_add(
                    salts, as_u64_keys(key_arr), models[a], np.full(len(keys), signed)
                )
                totals[a] += signed * len(keys)
        elif op == "copy":
            sketches.append(sketch.copy())
            models.append(models[a].copy())
            totals.append(totals[a])
        elif op == "merge":
            sketch.merge(sketches[b])
            models[a] += models[b]
            totals[a] += totals[b]
        else:
            sketch.clear()
            models[a][:] = 0
            totals[a] = 0
            assert not sketch.holds_table
        for one, model, total in zip(sketches, models, totals):
            assert np.array_equal(one.table, model) and one.table.dtype == np.int64
            assert one.total == total and one.nbytes == nbytes
            assert np.array_equal(one.query(probe), estimate(model))
        assert np.array_equal(
            sketches[a].query(probe, plus=sketches[b]), estimate(models[a], models[b])
        )
