"""Consistent-hash ring behavior."""

import numpy as np
import pytest

from repro.hashing import ConsistentHashRing, mult64, wang64


def test_lookup_returns_members():
    ring = ConsistentHashRing([3, 7, 11], virtual_factor=50)
    owners = ring.lookup(np.arange(1000, dtype=np.uint64))
    assert set(np.unique(owners)) <= {3, 7, 11}


def test_scalar_lookup():
    ring = ConsistentHashRing([0, 1])
    assert ring.lookup(12345) in {0, 1}


def test_empty_ring_raises():
    ring = ConsistentHashRing()
    with pytest.raises(LookupError):
        ring.lookup(1)


def test_readd_is_idempotent():
    """Re-adding a member replaces its virtual positions, never
    duplicates them (regression: planner re-weighting relies on it)."""
    ring = ConsistentHashRing([1, 2], virtual_factor=50)
    before_positions, _ = ring.position_vector()
    ring.add(1)  # same weight: a no-op on the position vector
    after_positions, _ = ring.position_vector()
    assert np.array_equal(before_positions, after_positions)
    assert len(ring) == 2


def test_readd_with_new_weight_replaces_positions():
    ring = ConsistentHashRing([1, 2], virtual_factor=50)
    ring.add(1, weight=2.0)
    assert ring.weight_of(1) == 2.0
    positions, owners = ring.position_vector()
    # Total positions = sum of per-member counts, not old + new.
    assert len(positions) == 100 + 50
    assert int((owners == 1).sum()) == 100
    # Positions are unique — no duplicated virtual agents.
    assert len(np.unique(positions)) == len(positions)
    # Re-weighting back restores the original ring exactly.
    fresh = ConsistentHashRing([1, 2], virtual_factor=50)
    ring.add(1, weight=1.0)
    a_pos, a_own = ring.position_vector()
    b_pos, b_own = fresh.position_vector()
    assert np.array_equal(a_pos, b_pos) and np.array_equal(a_own, b_own)


def test_duplicate_member_in_constructor_rejected():
    with pytest.raises(ValueError):
        ConsistentHashRing([1, 1])


def test_negative_member_rejected():
    with pytest.raises(ValueError):
        ConsistentHashRing([-1])


def test_remove_missing_raises():
    ring = ConsistentHashRing([1])
    with pytest.raises(KeyError):
        ring.remove(2)


def test_membership_protocol():
    ring = ConsistentHashRing([5, 2])
    assert len(ring) == 2
    assert 5 in ring and 3 not in ring
    assert ring.members() == [2, 5]


def test_load_balance_with_virtual_nodes():
    """100 virtual agents keeps arc shares near uniform (Figure 6)."""
    ring = ConsistentHashRing(range(16), virtual_factor=100)
    keys = np.arange(200_000, dtype=np.uint64)
    counts = np.bincount(ring.lookup(keys), minlength=16)
    assert counts.max() / counts.mean() < 1.35


def test_more_virtual_nodes_better_balance():
    keys = np.arange(100_000, dtype=np.uint64)

    def imbalance(vf):
        ring = ConsistentHashRing(range(32), virtual_factor=vf)
        counts = np.bincount(ring.lookup(keys), minlength=32)
        return counts.max() / counts.mean()

    assert imbalance(100) < imbalance(1)


def test_removal_only_moves_departed_keys():
    ring = ConsistentHashRing(range(8), virtual_factor=64)
    keys = np.arange(20_000, dtype=np.uint64)
    before = ring.lookup(keys)
    ring.remove(3)
    after = ring.lookup(keys)
    moved = before != after
    assert np.all(before[moved] == 3)


def test_addition_only_claims_keys_for_new_member():
    ring = ConsistentHashRing(range(8), virtual_factor=64)
    keys = np.arange(20_000, dtype=np.uint64)
    before = ring.lookup(keys)
    ring.add(100)
    after = ring.lookup(keys)
    moved = before != after
    assert np.all(after[moved] == 100)
    # Expected movement ≈ 1/9 of keys.
    assert 0.02 < moved.mean() < 0.30


def test_lookup_matches_bruteforce():
    """The binary search must agree with the definitional next-highest
    position scan."""
    ring = ConsistentHashRing([4, 9, 17], virtual_factor=10)
    positions, owners = ring.position_vector()
    keys = np.arange(500, dtype=np.uint64)
    hashes = np.asarray(wang64(keys))
    got = ring.lookup_hash(hashes)
    for h, owner in zip(hashes, got):
        idx = np.searchsorted(positions, h, side="left")
        expect = owners[idx % len(positions)] if idx < len(positions) else owners[0]
        assert owner == expect


def test_successors_distinct_and_ordered():
    ring = ConsistentHashRing(range(10), virtual_factor=30)
    succ = ring.successors(42, 4)
    assert len(succ) == len(set(succ)) == 4
    assert succ[0] == ring.lookup(42)


def test_successors_capped_at_member_count():
    ring = ConsistentHashRing([1, 2, 3])
    assert sorted(ring.successors(7, 10)) == [1, 2, 3]


def test_ring_is_deterministic_across_participants():
    """All participants build identical rings from the same member list
    — placement must be a pure function of broadcast state."""
    a = ConsistentHashRing([1, 5, 9], virtual_factor=100, seed=7)
    b = ConsistentHashRing([9, 1, 5], virtual_factor=100, seed=7)  # any order
    keys = np.arange(5000, dtype=np.uint64)
    assert np.array_equal(a.lookup(keys), b.lookup(keys))


def test_hash_function_parameter_respected():
    a = ConsistentHashRing(range(4), hash_fn=wang64)
    b = ConsistentHashRing(range(4), hash_fn=mult64)
    keys = np.arange(2000, dtype=np.uint64)
    assert not np.array_equal(a.lookup(keys), b.lookup(keys))
