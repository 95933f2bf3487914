"""Property: cached placement is bit-identical to uncached placement
across arbitrary directory churn.

Drives the same churn the directory produces — joins, leaves,
re-weights, term changes, sketch flushes, split-registry growth, and
batch-clock-only broadcasts (which leave the epoch unchanged) — against
one long-lived PlacementCache bound the way participants bind it (full
epoch + ring epoch, ring object reused while the ring epoch stands),
comparing every lookup (cold and warm) to a freshly built EdgePlacer.
Along the way the two memo tiers must drop exactly when their token
moves: the ring tier answers every unsplit row straight after a sketch
flush or a split registration, and nothing after a ring change.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import ConsistentHashRing
from repro.partition import EdgePlacer, PlacementCache
from repro.sketch import CountMinSketch

ops = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("leave"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("weight"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("term"), st.just(0)),
        st.tuples(st.just("sketch"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("split"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("clock"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


@given(ops=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_cached_placement_identical_under_churn(ops, seed):
    rng = np.random.default_rng(seed)
    own = rng.integers(0, 200, size=120).astype(np.int64)
    other = rng.integers(0, 200, size=120).astype(np.int64)

    members = {0: 1.0, 1: 1.0}
    sketch = CountMinSketch(width=128, depth=4)
    split = set()
    term = membership_version = sketch_version = 0
    cache = PlacementCache()

    def fresh_ring():
        return ConsistentHashRing(sorted(members), virtual_factor=8, seed=2, weights=members)

    def check(ring_stands):
        epoch = (term, membership_version, sketch_version, len(split))
        ring = cache.placer.ring if ring_stands else fresh_ring()
        gate = frozenset(split)
        cache.bind(
            epoch,
            EdgePlacer(ring, sketch.copy(), replication_threshold=15, split_gate=gate),
            ring_epoch=epoch[:2],
        )
        uncached = EdgePlacer(fresh_ring(), sketch, replication_threshold=15, split_gate=gate)
        expected = uncached.owner_of_edges(own, other)
        assert np.array_equal(cache.owner_of_edges(own, other), expected)  # cold-ish
        if ring_stands:
            # Whatever else moved, the ring tier still answers for every
            # vertex outside the registry (ring_owners below taught it all).
            assert cache.last_hits >= int((~uncached.gated(own)).sum())
        else:
            assert cache.last_hits == 0
        assert np.array_equal(cache.owner_of_edges(own, other), expected)  # warm
        assert cache.last_misses == 0
        assert np.array_equal(cache.ring_owners(own), uncached.ring_owners(own))
        assert np.array_equal(
            cache.replication_factor(own), uncached.replication_factor(own)
        )

    check(ring_stands=False)
    for op, arg in ops:
        ring_stands = True
        if op == "join":
            if arg not in members:
                members[arg] = 1.0
                membership_version += 1
                ring_stands = False
        elif op == "leave":
            if arg in members and len(members) > 1:
                del members[arg]
                membership_version += 1
                ring_stands = False
        elif op == "weight":
            if arg in members:
                members[arg] = 3.0 - members[arg]  # 1.0 <-> 2.0
                membership_version += 1
                ring_stands = False
        elif op == "term":
            term += 1
            ring_stands = False
        elif op == "sketch":
            sketch.add(np.full(20, arg, dtype=np.int64))
            sketch_version += 1
        elif op == "split":
            # The registry only gates vertices the sketch justifies.
            sketch.add(np.full(20, arg, dtype=np.int64))
            sketch_version += 1
            split.add(arg)
        # "clock": batch-clock bump — epoch unchanged, memos must survive.
        check(ring_stands)
