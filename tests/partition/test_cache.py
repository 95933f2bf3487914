"""Unit tests for the epoch-versioned PlacementCache."""

import numpy as np
import pytest

from repro.bench.counters import PerfCounters
from repro.hashing import ConsistentHashRing
from repro.partition import EdgePlacer, PlacementCache
from repro.sketch import CountMinSketch


def build_placer(hot=(), members=8, threshold=20, seed=1):
    ring = ConsistentHashRing(list(range(members)), virtual_factor=16, seed=seed)
    sketch = CountMinSketch(width=256, depth=4)
    for v in hot:
        sketch.add(np.full(100, v, dtype=np.int64))
    return EdgePlacer(ring, sketch, replication_threshold=threshold)


def edges(n=400, hot=None, hot_frac=0.1, seed=0):
    rng = np.random.default_rng(seed)
    own = rng.integers(0, 5000, size=n).astype(np.int64)
    other = rng.integers(0, 5000, size=n).astype(np.int64)
    if hot is not None:
        mask = rng.random(n) < hot_frac
        own[mask] = hot
    return own, other


def test_warm_lookup_is_bit_identical_and_all_hits():
    placer = build_placer(hot=[7])
    cache = PlacementCache().bind((0, 1, 1, 1), placer, ring_epoch=(0, 1))
    own, other = edges(hot=7)
    cold = cache.owner_of_edges(own, other)
    assert np.array_equal(cold, placer.owner_of_edges(own, other))
    warm = cache.owner_of_edges(own, other)
    assert np.array_equal(warm, cold)
    assert cache.last_misses == 0
    assert cache.last_hits == len(own)


def test_same_epoch_rebind_keeps_memos():
    placer = build_placer()
    cache = PlacementCache().bind((0, 3, 0, 0), placer, ring_epoch=(0, 3))
    own, other = edges()
    cache.owner_of_edges(own, other)
    # Same epoch, fresh placer object (what a batch-clock broadcast does).
    cache.bind((0, 3, 0, 0), build_placer(), ring_epoch=(0, 3))
    assert cache.last_moved is not None and cache.last_moved.size == 0
    cache.owner_of_edges(own, other)
    assert cache.last_misses == 0


def test_epoch_change_invalidates():
    counters = PerfCounters()
    cache = PlacementCache(counters=counters).bind((0, 1, 0, 0), build_placer(), ring_epoch=(0, 1))
    assert cache.last_moved is None  # a first bind: nothing to compare with
    own, other = edges()
    cache.owner_of_edges(own, other)
    cache.bind((0, 2, 0, 0), build_placer(), ring_epoch=(0, 2))
    assert cache.last_moved is None  # a new ring: anything may have moved
    cache.owner_of_edges(own, other)
    assert cache.last_misses == len(own)
    assert counters.counts["placement_epoch_invalidations"] == 1


def test_unbound_cache_raises():
    with pytest.raises(RuntimeError):
        PlacementCache().owner_of_edges(np.array([1]), np.array([2]))


def test_negative_ids_bypass_edge_memo_but_stay_correct():
    hot = -3
    placer = build_placer(hot=[hot])
    cache = PlacementCache().bind((0, 1, 0, 0), placer, ring_epoch=(0, 1))
    own = np.full(64, hot, dtype=np.int64)
    other = np.arange(-32, 32, dtype=np.int64)
    for _ in range(2):  # cold then warm
        assert np.array_equal(
            cache.owner_of_edges(own, other), placer.owner_of_edges(own, other)
        )


def test_replication_factor_and_replica_set_cached():
    placer = build_placer(hot=[9])
    cache = PlacementCache().bind((0, 1, 0, 0), placer, ring_epoch=(0, 1))
    verts = np.array([9, 1, 2, 9], dtype=np.int64)
    assert np.array_equal(
        cache.replication_factor(verts), placer.replication_factor(verts)
    )
    assert cache.replica_set(9) == placer.replica_set(9)
    # Second call must come from the memo (placer result already equal).
    assert cache.replica_set(9) == placer.replica_set(9)
    assert cache.replica_set(1) == [placer.primary_of(1)]


def test_ring_is_the_bound_placers_and_nothing_else_is_delegated():
    placer = build_placer()
    cache = PlacementCache().bind((0, 1, 0, 0), placer, ring_epoch=(0, 1))
    assert cache.ring is placer.ring
    with pytest.raises(AttributeError):
        cache.sketch


def test_edge_memo_capacity_restarts_from_newest():
    placer = build_placer(hot=[7], threshold=5)
    cache = PlacementCache(max_edges=32).bind((0, 1, 0, 0), placer, ring_epoch=(0, 1))
    own = np.full(128, 7, dtype=np.int64)
    other = np.arange(128, dtype=np.int64)
    a = cache.owner_of_edges(own, other)
    assert np.array_equal(a, placer.owner_of_edges(own, other))
    # Overflowing the memo must never change answers.
    b = cache.owner_of_edges(own, other)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# two tiers: the ring memo outlives sketch epochs, the split memo does not
# ---------------------------------------------------------------------------


def gated_placer(ring, hot, hot_rows, members=8, threshold=20):
    sketch = CountMinSketch(width=256, depth=4)
    sketch.add(np.full(hot_rows, hot, dtype=np.int64))
    return EdgePlacer(ring, sketch, replication_threshold=threshold, split_gate=frozenset([hot]))


def test_ring_tier_survives_a_sketch_only_epoch():
    counters = PerfCounters()
    ring = ConsistentHashRing(list(range(8)), virtual_factor=16, seed=1)
    cache = PlacementCache(counters=counters)
    cache.bind((0, 1, 0, 1), gated_placer(ring, hot=7, hot_rows=100), ring_epoch=(0, 1))
    own, other = edges(hot=7)
    first = cache.owner_of_edges(own, other)
    ring_hits = counters.counts["placement_ring_memo_hits"]
    # A flush that leaves the hub's replication factor where it was
    # (100 -> 105 rows, threshold 20: k = 6 both times).
    after = gated_placer(ring, hot=7, hot_rows=105)
    cache.bind((0, 1, 1, 1), after, ring_epoch=(0, 1))
    assert cache.last_moved.tolist() == []
    assert np.array_equal(cache.owner_of_edges(own, other), first)
    assert cache.last_misses == 0
    unsplit = int((own != 7).sum())
    assert counters.counts["placement_ring_memo_hits"] == ring_hits + unsplit
    assert counters.counts["placement_epoch_invalidations"] == 1


def test_split_tier_drops_the_vertices_whose_factor_moved():
    ring = ConsistentHashRing(list(range(8)), virtual_factor=16, seed=1)
    cache = PlacementCache()
    cache.bind((0, 1, 0, 1), gated_placer(ring, hot=7, hot_rows=40), ring_epoch=(0, 1))
    own, other = edges(hot=7)
    cache.owner_of_edges(own, other)
    # 40 -> 100 rows: k goes 3 -> 6, every edge of the hub is suspect.
    after = gated_placer(ring, hot=7, hot_rows=100)
    cache.bind((0, 1, 1, 1), after, ring_epoch=(0, 1))
    assert cache.last_moved.tolist() == [7]
    got = cache.owner_of_edges(own, other)
    assert np.array_equal(got, after.owner_of_edges(own, other))
    assert cache.last_misses == int((own == 7).sum())
    assert cache.replica_set(7) == after.replica_set(7)


@pytest.mark.parametrize(
    "epoch",
    [(0, 2, 0, 1), (1, 1, 0, 1)],
    ids=["membership-or-weight", "term"],
)
def test_both_tiers_drop_when_the_ring_epoch_moves(epoch):
    ring = ConsistentHashRing(list(range(8)), virtual_factor=16, seed=1)
    cache = PlacementCache()
    cache.bind((0, 1, 0, 1), gated_placer(ring, hot=7, hot_rows=100), ring_epoch=(0, 1))
    own, other = edges(hot=7)
    cache.owner_of_edges(own, other)
    cache.replica_set(3), cache.replica_set(7)
    moved = ConsistentHashRing(
        list(range(8)), virtual_factor=16, seed=1, weights={2: 2.0}
    )
    after = gated_placer(moved, hot=7, hot_rows=100)
    cache.bind(epoch, after, ring_epoch=epoch[:2])
    assert np.array_equal(cache.owner_of_edges(own, other), after.owner_of_edges(own, other))
    assert cache.last_hits == 0
    assert cache.replica_set(3) == after.replica_set(3)
    assert cache.replica_set(7) == after.replica_set(7)


def test_unregistered_vertex_never_reaches_the_sketch():
    class Untouchable(CountMinSketch):
        def query(self, keys, plus=None):
            raise AssertionError("the gate must come before the sketch")

    ring = ConsistentHashRing(list(range(8)), virtual_factor=16, seed=1)
    placer = EdgePlacer(ring, Untouchable(256, 4), replication_threshold=20, split_gate=frozenset())
    own, other = edges()
    assert (placer.replication_factor(own) == 1).all()
    cache = PlacementCache().bind((0, 1, 0, 0), placer, ring_epoch=(0, 1))
    assert np.array_equal(cache.owner_of_edges(own, other), placer.ring_owners(own))
    assert cache.replica_set(5) == [placer.primary_of(5)]
