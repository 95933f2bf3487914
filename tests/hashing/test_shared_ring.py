"""The one-pass ring build, and the per-process memo of immutable rings."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import HASH_FUNCTIONS, ConsistentHashRing, wang64
from repro.hashing.ring import shared_ring

VIRTUAL_FACTORS = [1, 8, 100]

members_strategy = st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12)
# Whole, fractional and below 1/virtual_factor (which still gets one position).
weight_strategy = st.one_of(
    st.just(1.0), st.floats(min_value=1e-4, max_value=4.0, allow_nan=False)
)
seed_strategy = st.integers(min_value=0, max_value=2**70)


@st.composite
def ring_inputs(draw):
    members = sorted(draw(members_strategy))
    weights = {m: draw(weight_strategy) for m in members if draw(st.booleans())}
    return (
        members,
        weights,
        draw(st.sampled_from(VIRTUAL_FACTORS)),
        HASH_FUNCTIONS[draw(st.sampled_from(sorted(HASH_FUNCTIONS)))],
        draw(seed_strategy),
    )


def counting(hash_fn):
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return hash_fn(x)

    return counted, sizes


def member_by_member(members, weights, virtual_factor, hash_fn, seed):
    ring = ConsistentHashRing((), virtual_factor, hash_fn, seed)
    for m in members:
        ring.add(m, weight=weights.get(m, 1.0))
    return ring


def assert_same_ring(a, b, keys):
    for got, want in zip(a.position_vector(), b.position_vector()):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert a.members() == b.members()
    assert [a.weight_of(m) for m in a.members()] == [b.weight_of(m) for m in b.members()]
    assert np.array_equal(a.lookup(keys), b.lookup(keys))
    for key in keys[:4]:
        assert a.successors(int(key), 3) == b.successors(int(key), 3)


KEYS = np.arange(0, 4000, 7, dtype=np.uint64)


@given(inputs=ring_inputs())
@settings(max_examples=80, deadline=None)
def test_one_pass_build_equals_the_per_member_path(inputs):
    members, weights, virtual_factor, hash_fn, seed = inputs
    batched_fn, batched = counting(hash_fn)
    single_fn, single = counting(hash_fn)
    built = ConsistentHashRing(members[::-1], virtual_factor, batched_fn, seed, weights)
    reference = member_by_member(members, weights, virtual_factor, single_fn, seed)
    assert batched == [sum(single)], "one hash call, the same keys hashed"
    assert len(single) == len(members)
    assert_same_ring(built, reference, KEYS)


def test_colliding_positions_resolve_by_position_then_owner():
    def collapse(x):
        return np.asarray(x, dtype=np.uint64) % np.uint64(3)

    built = ConsistentHashRing([9, 2, 5], 8, collapse, seed=1)
    positions, owners = built.position_vector()
    order = np.lexsort((owners, positions))
    assert np.array_equal(order, np.arange(len(order)))
    assert len(np.unique(positions)) <= 3 < len(positions)
    assert_same_ring(built, member_by_member([2, 5, 9], {}, 8, collapse, 1), KEYS)


def test_constructor_still_validates_each_member():
    for members, weights in ([[1, 1], {}], [[-1], {}], [[3], {3: 0.0}]):
        with pytest.raises(ValueError):
            ConsistentHashRing(members, weights=weights)


@given(inputs=ring_inputs())
@settings(max_examples=60, deadline=None)
def test_shared_ring_equals_a_fresh_one(inputs):
    members, weights, virtual_factor, hash_fn, seed = inputs
    shared = shared_ring(members, weights, virtual_factor, hash_fn, seed)
    assert shared is shared_ring(members[::-1], dict(weights), virtual_factor, hash_fn, seed)
    fresh = ConsistentHashRing(members, virtual_factor, hash_fn, seed, weights)
    assert_same_ring(shared, fresh, KEYS)


def test_shared_ring_cannot_be_mutated_and_stays_usable():
    ring = shared_ring([1, 2, 3], {2: 2.0}, 8, wang64, 5)
    before = ring.lookup(KEYS)
    with pytest.raises(TypeError):
        ring.add(4)
    with pytest.raises(TypeError):
        ring.add(2, weight=1.0)
    with pytest.raises(TypeError):
        ring.remove(1)
    assert ring.members() == [1, 2, 3] and ring.weight_of(2) == 2.0
    assert np.array_equal(ring.lookup(KEYS), before)
    assert ring is shared_ring([1, 2, 3], {2: 2.0}, 8, wang64, 5)
    # A ring built directly is as mutable as ever.
    own = ConsistentHashRing([1, 2, 3], 8, wang64, 5, {2: 2.0})
    own.remove(1)
    assert own.members() == [2, 3]


def test_memo_holds_a_ring_exactly_as_long_as_a_caller_does():
    held = shared_ring([0, 1, 2], {1: 2.0}, 8, wang64, 3)
    for n in range(1, 40):  # however many other memberships come and go
        shared_ring(range(n + 3), None, 8, wang64, 3)
    assert shared_ring([2, 1, 0], {1: 2.0}, 8, wang64, 3) is held
    dropped = shared_ring([4, 5], None, 8, wang64, 3)
    before = dropped.lookup(KEYS)
    gone = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert gone() is None  # nobody holds it: the memo let it go
    rebuilt = shared_ring([4, 5], None, 8, wang64, 3)
    assert np.array_equal(rebuilt.lookup(KEYS), before)
    assert_same_ring(rebuilt, ConsistentHashRing([4, 5], 8, wang64, 3), KEYS)


def test_rings_are_shared_only_when_every_input_is_equal():
    def swapped_in(x):  # what a harness puts in HASH_FUNCTIONS["wang"]
        return wang64(x)

    base = ([0, 1, 2], {1: 1.5}, 8, wang64, 3)
    ring = shared_ring(*base)
    variants = [
        ([0, 1, 2], {1: 1.5}, 8, wang64, 4),
        ([0, 1, 2], {1: 1.5}, 9, wang64, 3),
        ([0, 1, 2], {1: 1.5}, 8, swapped_in, 3),
        ([0, 1, 2], {1: 2.5}, 8, wang64, 3),
        ([0, 1, 3], {1: 1.5}, 8, wang64, 3),
    ]
    others = [shared_ring(*v) for v in variants]
    assert len({id(r) for r in [ring, *others]}) == len(variants) + 1
    assert others[2].hash_fn is swapped_in
    # Weights of non-members and explicit 1.0s are not part of the input.
    assert ring is shared_ring([2, 0, 1], {1: 1.5, 0: 1.0, 7: 3.0}, 8, wang64, 3)
