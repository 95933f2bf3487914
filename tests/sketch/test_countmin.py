"""CountMinSketch: guarantees, sizing, merging."""

import math

import numpy as np
import pytest

from repro.sketch import CountMinSketch


def test_never_underestimates():
    cms = CountMinSketch(width=512, depth=6)
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 300, size=10_000)
    cms.add(keys)
    truth = np.bincount(keys, minlength=300)
    est = cms.query(np.arange(300))
    assert np.all(est >= truth)


def test_error_bound_holds():
    cms = CountMinSketch(width=2048, depth=8)
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 1000, size=50_000)
    cms.add(keys)
    truth = np.bincount(keys, minlength=1000)
    est = cms.query(np.arange(1000))
    # The additive bound is e/width of the stream length, failing with
    # probability exp(-depth) ≈ 0.03 % per key at depth 8.
    bound = math.e / cms.width * cms.total
    confidence = 1.0 - math.exp(-cms.depth)
    over = est - truth
    assert (over <= bound).mean() >= confidence - 0.01


def test_exact_when_no_collisions():
    cms = CountMinSketch(width=4096, depth=8)
    cms.add(np.arange(10), counts=np.arange(10))
    assert np.array_equal(cms.query(np.arange(10)), np.arange(10))


def test_duplicate_keys_in_one_call_accumulate():
    cms = CountMinSketch(width=256, depth=4)
    cms.add([5, 5, 5])
    assert cms.query(5) >= 3
    assert cms.total == 3


def test_per_key_counts():
    cms = CountMinSketch(width=1024, depth=4)
    cms.add([1, 2], counts=[10, 20])
    assert cms.query(1) >= 10
    assert cms.query(2) >= 20
    assert cms.total == 30


def test_turnstile_deletions():
    cms = CountMinSketch(width=512, depth=4)
    cms.add([7] * 5)
    cms.remove([7] * 2)
    assert cms.query(7) >= 3
    assert cms.total == 3
    cms.remove([7] * 3)
    assert cms.query(7) >= 0
    assert cms.total == 0


def test_insert_delete_round_trip_restores_state():
    cms = CountMinSketch(width=256, depth=4)
    baseline = cms.table.copy()
    keys = np.array([1, 2, 3, 2, 1])
    cms.add(keys)
    cms.remove(keys)
    assert np.array_equal(cms.table, baseline)


def test_merge_equals_union_stream():
    a = CountMinSketch(width=512, depth=4, seed=9)
    b = CountMinSketch(width=512, depth=4, seed=9)
    both = CountMinSketch(width=512, depth=4, seed=9)
    rng = np.random.default_rng(3)
    ka = rng.integers(0, 100, 500)
    kb = rng.integers(0, 100, 500)
    a.add(ka)
    b.add(kb)
    both.add(np.concatenate([ka, kb]))
    a.merge(b)
    assert a == both
    assert a.total == both.total


def test_merge_incompatible_rejected():
    a = CountMinSketch(width=512, depth=4)
    with pytest.raises(ValueError):
        a.merge(CountMinSketch(width=256, depth=4))
    with pytest.raises(ValueError):
        a.merge(CountMinSketch(width=512, depth=8))
    with pytest.raises(ValueError):
        a.merge(CountMinSketch(width=512, depth=4, seed=1))


def test_copy_is_independent():
    a = CountMinSketch(width=64, depth=2)
    a.add([1])
    b = a.copy()
    b.add([1])
    assert a.query(1) >= 1
    assert b.total == a.total + 1
    assert not (a == b)


def test_clear_and_is_empty():
    cms = CountMinSketch(width=64, depth=2)
    assert cms.is_empty()
    cms.add([1, 2, 3])
    assert not cms.is_empty()
    cms.clear()
    assert cms.is_empty()


def test_sizing_matches_paper_example():
    """§3.3.1: width 2^18 and depth 8 give 99.965 % confidence of error
    within ~1 M on a 100-billion-edge graph, in an 8 MB table."""
    m = 100e9
    width, depth = 2**18, 8
    eps = np.e / width
    assert eps * m < 1.04e6  # "within just over 1 million"
    delta = np.exp(-depth)
    assert 1 - delta > 0.99965 - 1e-4
    cms = CountMinSketch(width=width, depth=depth)
    assert cms.nbytes == width * depth * 8  # 16 MB at int64; 8 MB at int32
    cms32 = CountMinSketch(width=width, depth=depth, dtype=np.int32)
    assert cms32.nbytes == 8 * 2**20


def test_size_for_round_trip():
    width, depth = CountMinSketch.size_for(epsilon=0.001, delta=0.01)
    assert width >= np.e / 0.001 - 1
    assert depth == int(np.ceil(np.log(100)))


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        CountMinSketch(width=0, depth=4)
    with pytest.raises(ValueError):
        CountMinSketch.size_for(epsilon=2.0, delta=0.5)


def test_empty_add_and_query():
    cms = CountMinSketch(width=64, depth=2)
    cms.add(np.empty(0, dtype=np.int64))
    assert cms.is_empty()
    assert len(cms.query(np.empty(0, dtype=np.int64))) == 0


def test_seed_changes_hash_rows():
    a = CountMinSketch(width=64, depth=2, seed=0)
    b = CountMinSketch(width=64, depth=2, seed=1)
    a.add(np.arange(50))
    b.add(np.arange(50))
    assert not np.array_equal(a.table, b.table)


def test_query_plus_is_the_sum_of_both_estimates():
    """A merged-plus-pending estimate, with the keys hashed once."""
    rng = np.random.default_rng(4)
    merged = CountMinSketch(64, 4, seed=3)
    pending = CountMinSketch(64, 4, seed=3)
    merged.add(rng.integers(0, 300, 2000))
    pending.add(rng.integers(0, 300, 500))
    keys = np.arange(300)
    assert np.array_equal(
        merged.query(keys, plus=pending), merged.query(keys) + pending.query(keys)
    )
    assert merged.query(7, plus=pending) == merged.query(7) + pending.query(7)
    with pytest.raises(ValueError):
        merged.query(keys, plus=CountMinSketch(32, 4, seed=3))
