"""EdgePlacer: the sketch + two-level consistent hashing of §3.4.1."""

import numpy as np
import pytest

from repro.hashing import ConsistentHashRing
from repro.partition import EdgePlacer, edge_loads, imbalance_factor
from repro.sketch import CountMinSketch


def make_placer(agents=8, threshold=100, split_gate=None, virtual=50):
    ring = ConsistentHashRing(range(agents), virtual_factor=virtual)
    sketch = CountMinSketch(width=2048, depth=6)
    return EdgePlacer(ring, sketch, replication_threshold=threshold, split_gate=split_gate), sketch, ring


def test_owner_is_a_member():
    placer, _, _ = make_placer()
    owners = placer.owner_of_edges(np.arange(100), np.arange(100) + 1)
    assert set(np.unique(owners)) <= set(range(8))


def test_placement_is_pure_function():
    """Every participant must compute identical placement from the same
    broadcast state."""
    placer_a, sketch_a, _ = make_placer()
    placer_b, sketch_b, _ = make_placer()
    sketch_a.add(np.full(500, 7))
    sketch_b.add(np.full(500, 7))
    us = np.random.default_rng(0).integers(0, 50, 1000)
    vs = np.random.default_rng(1).integers(0, 50, 1000)
    assert np.array_equal(placer_a.owner_of_edges(us, vs), placer_b.owner_of_edges(us, vs))


def test_low_degree_vertex_not_split():
    placer, sketch, _ = make_placer(threshold=100)
    sketch.add([5] * 50)  # below threshold
    assert placer.replication_factor(5)[0] == 1
    assert len(placer.replica_set(5)) == 1


def test_high_degree_vertex_splits():
    placer, sketch, _ = make_placer(threshold=100)
    sketch.add([9] * 350)
    k = int(placer.replication_factor(9)[0])
    assert k == 4  # 1 + 350 // 100
    assert len(placer.replica_set(9)) == 4


def test_replication_capped_at_cluster_size():
    placer, sketch, _ = make_placer(agents=3, threshold=10)
    sketch.add([1] * 1000)
    assert placer.replication_factor(1)[0] == 3


def test_undercounted_vertex_still_has_an_owner():
    """A turnstile sketch can go negative (removals whose insertions
    left with a departed agent's unflushed delta): k stays 1 and the
    vertex's edges go to its ring owner, never nowhere."""
    placer, sketch, _ = make_placer(threshold=100)
    sketch.remove([5] * 150)
    assert placer.replication_factor(5)[0] == 1
    owners = placer.owner_of_edges(np.full(4, 5), np.arange(4))
    assert set(owners) == {placer.primary_of(5)}


def test_split_vertex_edges_land_only_on_replicas():
    placer, sketch, _ = make_placer(threshold=100)
    sketch.add([9] * 350)
    replicas = set(placer.replica_set(9))
    others = np.arange(2000)
    owners = placer.owner_of_edges(np.full(2000, 9), others)
    assert set(np.unique(owners)) <= replicas
    # The second hash spreads edges across the replicas, not onto one.
    assert len(np.unique(owners)) == len(replicas)


def test_non_split_vertex_all_edges_one_agent():
    placer, _, _ = make_placer()
    owners = placer.owner_of_edges(np.full(100, 3), np.arange(100))
    assert len(np.unique(owners)) == 1


def test_primary_is_first_replica():
    placer, sketch, _ = make_placer(threshold=50)
    sketch.add([4] * 200)
    assert placer.primary_of(4) == placer.replica_set(4)[0]


def test_split_gate_blocks_unregistered():
    placer, sketch, _ = make_placer(threshold=50, split_gate=frozenset())
    sketch.add([4] * 500)
    assert placer.replication_factor(4)[0] == 1
    placer_gated, sketch2, _ = make_placer(threshold=50, split_gate=frozenset({4}))
    sketch2.add([4] * 500)
    assert placer_gated.replication_factor(4)[0] > 1


def test_growing_k_only_moves_edges_to_new_replica():
    """Rendezvous second-level hashing: raising a vertex's replication
    factor only moves the edges the new replica claims."""
    placer, sketch, ring = make_placer(threshold=100)
    sketch.add([9] * 150)  # k = 2
    others = np.arange(3000)
    before = placer.owner_of_edges(np.full(3000, 9), others)
    sketch.add([9] * 100)  # k = 3
    after = placer.owner_of_edges(np.full(3000, 9), others)
    new_replica = placer.replica_set(9)[-1]
    moved = before != after
    assert np.all(after[moved] == new_replica)


def test_ragged_input_rejected():
    placer, _, _ = make_placer()
    with pytest.raises(ValueError):
        placer.owner_of_edges(np.arange(3), np.arange(4))


def test_empty_input():
    placer, _, _ = make_placer()
    assert len(placer.owner_of_edges(np.empty(0, np.int64), np.empty(0, np.int64))) == 0


def test_invalid_threshold():
    ring = ConsistentHashRing([0])
    with pytest.raises(ValueError):
        EdgePlacer(ring, CountMinSketch(64, 2), replication_threshold=0)


def test_splitting_improves_balance_on_skewed_load():
    """The point of the design: splitting hubs beats not splitting."""
    rng = np.random.default_rng(3)
    hub_edges = 5000
    us = np.concatenate([np.full(hub_edges, 7), rng.integers(0, 1000, 5000)])
    vs = rng.integers(0, 1000, len(us))
    ring = ConsistentHashRing(range(16), virtual_factor=100)
    sketch = CountMinSketch(width=4096, depth=6)
    sketch.add(us)

    split = EdgePlacer(ring, sketch, replication_threshold=500)
    unsplit = EdgePlacer(ring, sketch, replication_threshold=10**9)
    bal_split = imbalance_factor(edge_loads(split.owner_of_edges(us, vs), 16))
    bal_unsplit = imbalance_factor(edge_loads(unsplit.owner_of_edges(us, vs), 16))
    assert bal_split < bal_unsplit
