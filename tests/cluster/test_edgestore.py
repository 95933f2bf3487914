"""Array-native shard storage: EdgeStore, ValueColumn, IdSet, DirtyLog.

These containers are the agents' shards and per-program state; all
mutation is batched over sorted parallel arrays, and a read-only
dict/set surface remains for inspection.  The units here pin the contract
edges the integration suites only exercise implicitly: effective-row
semantics of batched apply, the insert+remove same-pair fallback, the
wide and negative ids, version-counter cache invalidation,
and the dict-compat equality both directions.
"""

import numpy as np

from repro.cluster.edgestore import DirtyLog, EdgeStore, IdSet, ValueColumn
from repro.cluster.recovery import EdgeWAL


def store_of(pairs):
    s = EdgeStore()
    if pairs:
        k = np.asarray([p[0] for p in pairs], dtype=np.int64)
        o = np.asarray([p[1] for p in pairs], dtype=np.int64)
        s.apply(k, o, np.ones(len(k), dtype=bool))
    return s


class TestEdgeStore:
    def test_apply_returns_effective_rows_in_order(self):
        s = store_of([(1, 2), (1, 3)])
        k = np.asarray([1, 1, 4, 1], dtype=np.int64)
        o = np.asarray([2, 9, 5, 3], dtype=np.int64)
        a = np.asarray([False, True, True, False])
        ek, eo, ea = s.apply(k, o, a)
        # All four rows are effective, reported in the documented
        # deterministic order: inserts lexsorted, then removes lexsorted.
        assert ek.tolist() == [1, 4, 1, 1]
        assert eo.tolist() == [9, 5, 2, 3]
        assert ea.tolist() == [1, 1, -1, -1]
        assert s == {1: {9}, 4: {5}}

    def test_apply_skips_noop_rows(self):
        s = store_of([(1, 2)])
        k = np.asarray([1, 7], dtype=np.int64)
        o = np.asarray([2, 8], dtype=np.int64)
        a = np.asarray([True, False])  # (1,2) already present; (7,8) absent
        ek, eo, ea = s.apply(k, o, a)
        assert len(ek) == 0 and len(eo) == 0 and len(ea) == 0
        assert s == {1: {2}}

    def test_apply_same_pair_insert_then_remove_replays_sequentially(self):
        s = EdgeStore()
        k = np.asarray([3, 3], dtype=np.int64)
        o = np.asarray([4, 4], dtype=np.int64)
        a = np.asarray([True, False])
        ek, eo, ea = s.apply(k, o, a)
        # Both rows are effective (insert landed, then remove undid it)
        # and the store ends empty — order within the batch matters.
        assert ea.tolist() == [1, -1]
        assert len(s) == 0
        # And the mirror: remove-of-absent then insert.
        ek, eo, ea = s.apply(k, o, np.asarray([False, True]))
        assert ek.tolist() == [3] and ea.tolist() == [1]
        assert s == {3: {4}}

    def test_wide_and_negative_ids_use_structured_fallback(self):
        # Ids past 31 bits or below 0 are plain int64s to the CSR: no
        # packed pair could hold them, and none is made.
        big = 2**40
        s = store_of([(big, 1), (-5, 7), (2, big)])
        assert big in s and -5 in s
        assert s.degree(big) == 1 and sorted(s[big]) == [1]
        assert s.contains_pairs(
            np.asarray([big, -5, 2, 2], dtype=np.int64),
            np.asarray([1, 7, big, 3], dtype=np.int64),
        ).tolist() == [True, True, True, False]

    def test_remove_pairs(self):
        s = store_of([(1, 2), (1, 3), (2, 4)])
        s.remove_pairs(
            np.asarray([1, 2, 9], dtype=np.int64),
            np.asarray([3, 4, 9], dtype=np.int64),
        )
        assert s == {1: {2}}

    def test_version_bumps_only_on_change(self):
        s = store_of([(1, 2)])
        v = s.version
        csr = (s.unique_keys, s.starts, s.others)
        s.apply(
            np.asarray([1], dtype=np.int64),
            np.asarray([2], dtype=np.int64),
            np.asarray([True]),
        )  # no-op insert
        assert s.version == v  # no-op: derived caches keyed on version hold
        # A no-op keeps the CSR itself, not a copy of it.
        assert all(map(np.shares_memory, (s.unique_keys, s.starts, s.others), csr))
        s.apply(
            np.asarray([5], dtype=np.int64),
            np.asarray([6], dtype=np.int64),
            np.asarray([True]),
        )
        assert s.version > v

    def test_arrays_are_lexsorted(self):
        s = store_of([(5, 1), (1, 9), (1, 2), (3, 3)])
        k, o = s.arrays()
        order = np.lexsort((o, k))
        assert np.array_equal(order, np.arange(len(k)))

    def test_dict_surface_and_equality(self):
        s = store_of([(1, 2), (1, 3), (4, 5)])
        assert {k: set(v.tolist()) for k, v in s.items()} == {1: {2, 3}, 4: {5}}
        assert s == {1: {2, 3}, 4: {5}}
        assert {1: {2, 3}, 4: {5}} == s  # reflected
        assert s != {1: {2}, 4: {5}}
        assert sorted(s.keys()) == [1, 4]
        assert len(s.get(9)) == 0 and s.get(9, set()) == set()
        assert s.degrees(np.asarray([1, 4, 9], dtype=np.int64)).tolist() == [2, 1, 0]
        assert sorted(s.neighbors(1)) == [2, 3]
        assert sorted(s) == [1, 4]  # iteration yields vertex keys

    def test_copy_is_independent(self):
        s = store_of([(1, 2)])
        c = s.copy()
        c.apply(
            np.asarray([8], dtype=np.int64),
            np.asarray([9], dtype=np.int64),
            np.asarray([True]),
        )
        assert s == {1: {2}} and 8 in c

    def test_from_dict_roundtrip(self):
        s = EdgeStore.from_dict({1: {2, 3}, 7: {1}})
        assert s == {1: {2, 3}, 7: {1}}
        assert s.to_dict() == {1: {2, 3}, 7: {1}}


class TestValueColumn:
    def test_lookup_set_many_roundtrip(self):
        c = ValueColumn()
        c.set_many(np.asarray([3, 1, 2], dtype=np.int64), np.asarray([0.3, 0.1, 0.2]))
        vals, found = c.lookup(np.asarray([1, 9, 3], dtype=np.int64))
        assert found.tolist() == [True, False, True]
        assert vals[0] == 0.1 and vals[2] == 0.3 and np.isnan(vals[1])

    def test_set_many_last_write_wins(self):
        c = ValueColumn()
        c.set_many(np.asarray([1, 1], dtype=np.int64), np.asarray([5.0, 7.0]))
        assert c[1] == 7.0

    def test_select_and_restrict(self):
        c = ValueColumn.from_dict({1: 0.1, 2: 0.2, 3: 0.3})
        ids, vals = c.select(np.asarray([2, 9, 1], dtype=np.int64))
        assert dict(zip(ids.tolist(), vals.tolist())) == {1: 0.1, 2: 0.2}
        c.restrict(np.asarray([1, 3], dtype=np.int64))
        assert c == {1: 0.1, 3: 0.3}

    def test_dict_surface(self):
        c = ValueColumn.from_dict({4: 0.5})
        assert 4 in c and len(c) == 1
        assert c.get(4) == 0.5 and c.get(5, -1.0) == -1.0
        c.set_many(np.asarray([6], dtype=np.int64), np.asarray([0.25]))
        assert dict(c.items()) == {4: 0.5, 6: 0.25}
        assert c == {4: 0.5, 6: 0.25} and {4: 0.5, 6: 0.25} == c


class TestIdSet:
    def test_membership_ops(self):
        s = IdSet([3, 1])
        s.update(np.asarray([7], dtype=np.int64))
        s.restrict(np.asarray([3, 7, 99], dtype=np.int64))  # 99 absent: no-op
        assert s == {3, 7}
        assert s.isin(np.asarray([1, 3, 7], dtype=np.int64)).tolist() == [
            False,
            True,
            True,
        ]

    def test_update_restrict_assign(self):
        s = IdSet()
        s.update(np.asarray([5, 2, 5], dtype=np.int64))
        s.restrict(np.asarray([2, 9], dtype=np.int64))
        assert s == {2}
        universe = np.asarray([1, 2, 3], dtype=np.int64)
        s.assign(universe, np.asarray([False, True, True]))
        assert s == {2, 3}


class TestDirtyLog:
    def batch(self, keys, others, act):
        k = np.asarray(keys, dtype=np.int64)
        o = np.asarray(others, dtype=np.int64)
        a = np.full(len(k), act, dtype=np.int64)  # +1 insert / -1 remove
        return k, o, a

    def test_rows_and_len(self):
        log = DirtyLog()
        log.append_batch("out", *self.batch([1, 2], [3, 4], 1))
        log.append_batch("in", *self.batch([5], [6], -1))
        assert len(log) == 3
        rows = list(log.rows())
        assert rows[0] == ("out", 1, 3, 1) and rows[2] == ("in", 5, 6, -1)

    def test_suffix_splits_mid_batch(self):
        log = DirtyLog()
        log.append_batch("out", *self.batch([1, 2, 3], [1, 2, 3], 1))
        suffix = log.suffix(1)
        (k, o, a) = suffix["out"]
        assert k.tolist() == [2, 3]

    def test_trim_and_copy(self):
        log = DirtyLog()
        log.append_batch("out", *self.batch([1, 2, 3], [1, 2, 3], 1))
        snap = log.copy()
        log.trim(2)
        assert len(log) == 1 and len(snap) == 3
        # trim drops the oldest rows (watermark GC keeps the suffix)
        assert list(log.rows()) == [("out", 3, 3, 1)]

    def test_extend_accepts_log_and_tuples(self):
        # What a replacement agent does: re-dirty the write-ahead log's
        # streaming batches; any (role, keys, others, actions) tuples do.
        wal = EdgeWAL()
        wal.append("out", self.batch([1], [2], 1), sketched=True)
        wal.append("out", self.batch([5], [6], 1), sketched=False)  # migration
        b = DirtyLog()
        b.extend(wal.sketched_rows())
        b.extend([("in", *self.batch([7], [8], -1))])
        assert len(b) == 2
        assert list(b.rows()) == [("out", 1, 2, 1), ("in", 7, 8, -1)]
