"""The id table behind the placement memos: C vs the sorted reference.

An id table maps int64 keys to 32-bit values (agent ids, replication
factors) other than ``INT32_MIN``, which marks an empty slot.

``kernels.CIdTable`` (open addressing, C probe and insert loops) must
answer every ``get`` exactly as ``reference.IdTable`` (sorted columns,
``searchsorted``) does after any sequence of ``put`` batches, hold the
same entries, and keep the same ``put`` rules: a stored entry wins over
a re-put, and the first row of a key a batch repeats wins over the
later ones.  The sequences cover negative ids, 0, the int64 extremes,
keys that land on one slot, and growth through several rehashes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.hashing import ConsistentHashRing, hashes
from repro.kernels import reference
from repro.partition import EdgePlacer, PlacementCache
from repro.sketch import CountMinSketch

pytestmark = pytest.mark.kernels

needs_c = pytest.mark.skipif(
    not kernels.available(), reason="C kernel backend unavailable (no compiler)"
)

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
M64 = (1 << 64) - 1


def fmix64(x: int) -> int:
    """The C table's slot mixer, in Python, to aim keys at one slot."""
    x &= M64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & M64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & M64
    return x ^ (x >> 33)


def same_slot(n: int, capacity: int = 16) -> list:
    """``n`` small keys whose probe starts at slot 0 of a ``capacity``
    table: each one after the first walks the chain the others built."""
    return [k for k in range(100_000) if fmix64(k) % capacity == 0][:n]


COLLIDING = same_slot(12)

keys = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([0, -1, I64_MIN, I64_MAX, I64_MIN + 1, I64_MAX - 1, 2**32, -(2**32)]),
    st.sampled_from(COLLIDING),
    st.integers(min_value=0, max_value=64).map(lambda k: 16 * k),  # equal mod capacity
    st.integers(min_value=I64_MIN, max_value=I64_MAX),
)
values = st.integers(min_value=-(2**31) + 1, max_value=2**31 - 1)  # 32-bit but EMPTY
batches = st.lists(st.tuples(keys, values), max_size=60)


def as_arrays(batch):
    k = np.array([key for key, _ in batch], dtype=np.int64)
    v = np.array([val for _, val in batch], dtype=np.int64)
    return k, v


def entries(table) -> dict:
    return dict(zip(*(col.tolist() for col in table.items())))


def assert_same(c_table, ref_table, probe):
    got_c, found_c = c_table.get(probe)
    got_r, found_r = ref_table.get(probe)
    assert np.array_equal(found_c, found_r)
    assert np.array_equal(got_c, got_r)
    assert len(c_table) == len(ref_table)
    assert entries(c_table) == entries(ref_table)


@needs_c
@given(puts=st.lists(batches, max_size=8), probe=st.lists(keys, max_size=80))
@settings(max_examples=150, deadline=None)
def test_c_table_equals_the_reference_on_any_put_sequence(puts, probe):
    c_table, ref_table = kernels.CIdTable(), reference.IdTable()
    probe = np.array(probe, dtype=np.int64)
    assert_same(c_table, ref_table, probe)  # empty tables
    for batch in puts:
        k, v = as_arrays(batch)
        c_table.put(k, v)
        ref_table.put(k, v)
        assert_same(c_table, ref_table, np.concatenate([probe, k]))


@needs_c
def test_growth_through_several_rehashes_keeps_every_entry():
    c_table, ref_table = kernels.CIdTable(), reference.IdTable()
    rng = np.random.default_rng(4)
    for size in (7, 9, 30, 200, 1_000, 5_000):
        k = rng.integers(-(2**40), 2**40, size=size)
        c_table.put(k, k % 100_003)
        ref_table.put(k, k % 100_003)
        assert_same(c_table, ref_table, rng.integers(-(2**40), 2**40, size=500))
    held = len(c_table)
    assert held > 6_000
    assert held <= len(c_table._keys) * 2 // 3  # load stays <= 2/3
    assert len(c_table._keys) < 3 * held  # and capacity grows with entries only


@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_put_rules_first_row_then_stored_entry_win(backend):
    if backend == "c" and not kernels.available():
        pytest.skip("C kernel backend unavailable (no compiler)")
    table = kernels.CIdTable() if backend == "c" else reference.IdTable()
    table.put([], [])  # empty batch on an empty table
    assert len(table) == 0
    assert table.get([5, I64_MIN])[1].tolist() == [False, False]
    table.put(COLLIDING[:3] + [COLLIDING[0], I64_MIN], [1, 2, 3, 4, 5])
    table.put([COLLIDING[1], I64_MAX], [20, 6])
    absent = COLLIDING[5]  # its probe walks the whole chain to an empty slot
    got, found = table.get(COLLIDING[:3] + [I64_MIN, I64_MAX, absent])
    assert found.tolist() == [True] * 5 + [False]
    assert got[:5].tolist() == [1, 2, 3, 5, 6]
    assert got[5] == reference.EMPTY
    for refused in (reference.EMPTY, 2**31, -(2**31) - 1):  # no sentinel, no truncation
        with pytest.raises(ValueError):
            table.put([9], [refused])
    with pytest.raises(ValueError):
        table.put([9, 10], [1])


@pytest.mark.parametrize("enabled", [True, False])
def test_a_warm_placement_lookup_hashes_nothing(monkeypatch, enabled):
    """A memo hit costs a probe, not a placement hash: the counted seams
    (``hashing.wang64`` and the ``wang64_u64`` kernel) and the compiled
    placement and sketch kernels, which mix keys themselves, see no call."""
    was = kernels.enabled()
    kernels.set_enabled(enabled)
    try:
        sketch = CountMinSketch(width=256, depth=4)
        hubs = np.array([3, 7], dtype=np.int64)
        sketch.add(np.repeat(hubs, 50))
        placer = EdgePlacer(ConsistentHashRing([0, 1, 2, 3]), sketch, replication_threshold=10,
                            split_gate=frozenset(hubs.tolist()))
        cache = PlacementCache().bind((0, 1, 0, 2), placer, ring_epoch=(0, 1))
        rng = np.random.default_rng(2)
        own = rng.integers(0, 40, size=500).astype(np.int64)
        other = rng.integers(0, 40, size=500).astype(np.int64)
        cold = cache.owner_of_edges(own, other)
        assert cache.last_misses > 0 and (cache.replication_factor(hubs) > 1).all()

        rows = []

        def spy(real, name):
            return lambda *args: rows.append(name) or real(*args)

        for module, name in ((kernels, "wang64_u64"), (reference, "wang64_u64"),
                             (hashes, "wang64"), (kernels, "place_edges"),
                             (kernels, "sketch_query")):
            monkeypatch.setattr(module, name, spy(getattr(module, name), name))
        warm = cache.owner_of_edges(own, other)
        assert np.array_equal(warm, cold)
        assert cache.last_misses == 0
        assert rows == []
        PlacementCache().bind((0, 1, 0, 2), placer, ring_epoch=(0, 1)).owner_of_edges(own, other)
        assert rows  # the spies do see a cold lookup's hashes
    finally:
        kernels.set_enabled(was)
