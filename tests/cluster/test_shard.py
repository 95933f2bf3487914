"""ShardState: the Agent's durable state, named once.

The point of the object is that a checkpoint, a WAL replay, a rollback
and a migration all see *every* durable field.  The field-drift guards
below enumerate ``dataclasses.fields`` so a field added to ShardState or
ProgramState without a mutator here — i.e. without anyone having thought
about how it is copied and restored — fails loudly.

A checkpoint holds the graph half by reference: edge-store columns and
dirty-log batches are read-only arrays shared with the live shard.  The
twin below drives random interleavings of applies, in-place value
writes, snapshots, WAL appends, finalizes and restores through that
design and through a deep-copy model, and the two must agree on the live
shard and on every checkpoint ever taken.
"""

import copy
import dataclasses
import operator
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.edgestore import DirtyLog, EdgeStore, IdSet, ValueColumn
from repro.cluster.recovery import Checkpoint, EdgeWAL, RecoveryStore
from repro.cluster.shard import ProgramState, ShardState, copy_programs
from repro.sketch.countmin import CountMinSketch


def i64(*values):
    return np.asarray(values, dtype=np.int64)


def make_shard():
    shard = ShardState(CountMinSketch(32, 2, seed=3))
    ones = np.ones(2, dtype=np.int8)
    shard.out_store.apply(i64(1, 1), i64(2, 3), ones)
    shard.in_store.apply(i64(2, 3), i64(1, 1), ones)
    shard.sketch_delta.add(i64(1), i64(2))
    shard.dirty_log.append_batch("out", i64(1, 1), i64(2, 3), i64(1, 1))
    shard.dirty_seen["pagerank"] = 1
    shard.programs["pagerank"] = ProgramState(
        ValueColumn.from_dict({1: 0.5, 2: 0.25}),
        IdSet([2]),
        ValueColumn.from_dict({1: 0.125}),
    )
    return shard


def view(value):
    """A comparable picture of one durable field."""
    if isinstance(value, EdgeStore):
        return [col.tolist() for col in value.arrays()]
    if isinstance(value, CountMinSketch):
        return value.table.tolist()
    if isinstance(value, DirtyLog):
        return list(value.rows())
    if isinstance(value, ValueColumn):
        return value.to_dict()
    if isinstance(value, IdSet):
        return sorted(value.to_set())
    if isinstance(value, ProgramState):
        return {f.name: view(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: view(item) for key, item in value.items()}
    if isinstance(value, int):
        return value
    raise TypeError(f"no view for durable field of type {type(value).__name__}")


def picture(state):
    return {f.name: view(getattr(state, f.name)) for f in dataclasses.fields(state)}


ONE = np.ones(1, dtype=np.int8)

#: One in-place mutation per durable field, as an agent would make it.
SHARD_MUTATORS = {
    "sketch_delta": lambda s: s.sketch_delta.add(i64(9)),
    "out_store": lambda s: s.out_store.apply(i64(7), i64(8), ONE),
    "in_store": lambda s: s.in_store.apply(i64(8), i64(7), ONE),
    "dirty_log": lambda s: s.dirty_log.append_batch("in", i64(8), i64(7), i64(1)),
    "dirty_seen": lambda s: s.dirty_seen.update(wcc=2),
    "programs": lambda s: s.programs["pagerank"].values.set_many(i64(1), np.array([9.0])),
}

PROGRAM_MUTATORS = {
    "values": lambda p: p.values.set_many(i64(5), np.array([5.0])),
    "active": lambda p: p.active.update(i64(5)),
    "scatter": lambda p: p.scatter.set_many(i64(5), np.array([0.5])),
}


def test_every_durable_field_has_a_mutator():
    assert set(SHARD_MUTATORS) == {f.name for f in dataclasses.fields(ShardState)}
    assert set(PROGRAM_MUTATORS) == {f.name for f in dataclasses.fields(ProgramState)}


@pytest.mark.parametrize("name", sorted(SHARD_MUTATORS))
def test_shard_copy_is_independent_and_snapshot_restores(name):
    shard = make_shard()
    before = picture(shard)
    copied = shard.copy()
    store = RecoveryStore()
    checkpoint = store.snapshot_agent(SimpleNamespace(agent_id=0, shard=shard))
    SHARD_MUTATORS[name](shard)
    assert picture(shard)[name] != before[name], "mutator did not change its field"
    assert picture(copied) == before
    # Restore: what a replacement agent starts from.
    restored = store.slot(0).checkpoints.latest.state.copy()
    assert picture(restored) == before
    SHARD_MUTATORS[name](restored)
    assert picture(checkpoint.state) == before, "restore aliased the checkpoint"


@pytest.mark.parametrize("name", sorted(PROGRAM_MUTATORS))
def test_program_state_copy_is_independent(name):
    state = make_shard().programs["pagerank"]
    before = view(state)
    copied, via_half = state.copy(), copy_programs({"pagerank": state})["pagerank"]
    PROGRAM_MUTATORS[name](state)
    assert view(state)[name] != before[name]
    assert view(copied) == before and view(via_half) == before


def test_checkpoint_is_state_plus_where_it_was_taken():
    assert [f.name for f in dataclasses.fields(Checkpoint)] == ["state", "run_id", "step"]
    checkpoint = Checkpoint(make_shard())
    assert checkpoint.n_edges == 4 and checkpoint.run_id is None


def test_select_absorb_round_trip_keeps_only_kept_ids():
    source = ProgramState(
        ValueColumn.from_dict({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}),
        IdSet([2, 3]),
        ValueColumn.from_dict({3: 3.5, 4: 4.5}),
    )
    shipped = source.select(i64(2, 3, 4, 9))  # 9 is owned but has no state
    assert shipped["values"][0].tolist() == [2, 3, 4]
    assert shipped["active"].tolist() == [2, 3]
    assert shipped["scatter"][0].tolist() == [3, 4]

    target = ProgramState(ValueColumn.from_dict({7: 0.7, 3: -1.0}))
    logged = target.absorb(shipped, kept=i64(3, 4))
    assert target.values == {7: 0.7, 3: 0.3, 4: 0.4}  # merged, last write wins
    assert target.active == {3}
    assert target.scatter == {3: 3.5, 4: 4.5}
    # What was merged is what the WAL logs; replaying it is the same merge.
    replayed = ProgramState(ValueColumn.from_dict({7: 0.7, 3: -1.0}))
    replayed.absorb(logged)
    assert view(replayed) == view(target)

    # A forwarding hop that keeps none of the ids merges and logs nothing.
    hop = ProgramState()
    assert hop.absorb(shipped, kept=i64(1)) == {}
    assert view(hop) == view(ProgramState())


def test_restrict_drops_departed_vertices_from_every_column():
    state = make_shard().programs["pagerank"]
    state.restrict(i64(2))
    assert view(state) == {"values": {2: 0.25}, "active": [2], "scatter": {}}


def test_wal_replay_onto_checkpoint_copy_reproduces_live_shard():
    """In-cluster logging discipline, for the whole ShardState: after
    ingest, runs, an unflushed batch and a scale-out (migration carries
    algorithm state), ``latest checkpoint + WAL`` is the live shard."""
    from repro.core import ElGA, PageRank, WCC
    from repro.graph import EdgeBatch

    elga = ElGA(nodes=2, agents_per_node=2, seed=13, replication_threshold=30)
    rng = np.random.default_rng(8)
    us = rng.integers(0, 60, size=400)
    vs = rng.integers(0, 60, size=400)
    keep = us != vs
    elga.ingest_edges(us[keep], vs[keep])
    elga.run(PageRank(max_iters=4))
    elga.run(WCC())
    elga.apply_batch(EdgeBatch.insertions(us[keep][:40] + 100, vs[keep][:40]), flush=False)
    elga.scale_to(6)
    config = elga.config
    replayed_state = 0
    for agent_id, agent in elga.cluster.agents.items():
        slot = elga.cluster.recovery.slot(agent_id)
        base = slot.checkpoints.latest  # None for an agent that just joined
        rebuilt = base.state.copy() if base else ShardState(
            CountMinSketch(config.sketch_width, config.sketch_depth, seed=config.seed)
        )
        slot.wal.replay(rebuilt)
        rebuilt.log_dirty(slot.wal.sketched_rows())
        # Pruning state of vertices that migrated away is not logged: a
        # replacement's first directory adoption redoes it.
        hosted = np.union1d(rebuilt.out_store.unique_keys, rebuilt.in_store.unique_keys)
        for state in rebuilt.programs.values():
            state.restrict(hosted)
        replayed_state += sum(bool(record.state) for record in slot.wal._records)
        assert picture(rebuilt) == picture(agent.shard), f"agent {agent_id} diverged"
    assert replayed_state > 0, "scenario never logged migrated-in program state"


# -- by reference: what a checkpoint shares, and what it copies ----------


class Twin:
    """A shard, its WAL and its checkpoints, driven the way an agent
    drives them; ``clone`` is how a checkpoint is taken and restored."""

    def __init__(self, clone):
        self.clone = clone
        self.shard = ShardState(CountMinSketch(32, 2, seed=3))
        self.shard.dirty_seen["p"] = 0
        self.shard.programs["p"] = ProgramState()
        self.wal = EdgeWAL()
        self.taken = []
        self.snapshot()

    def snapshot(self):
        self.taken.append(self.clone(self.shard))
        self.wal.truncate()

    def apply(self, role, rows, sketched):
        keys, others, actions = (np.asarray(col, dtype=np.int64) for col in zip(*rows))
        store = self.shard.out_store if role == "out" else self.shard.in_store
        applied = store.apply(keys, others, actions)
        state = None
        if sketched:
            self.shard.log_dirty([(role, *applied)])
            ins = applied[2] > 0
            self.shard.sketch_delta.add(applied[0][ins])
            self.shard.sketch_delta.remove(applied[0][~ins])
        else:
            # Migration traffic: rows plus the vertex state riding along.
            owned = np.unique(keys)
            state = {"p": self.shard.programs["p"].absorb(
                {"values": (owned, owned * 0.5), "active": owned}
            )}
        self.wal.append(role, applied, sketched, state)

    def set_values(self, ids, vals):
        self.shard.programs["p"].values.set_many(np.asarray(ids), np.asarray(vals))

    def finalize(self):
        shard = self.shard
        shard.dirty_seen["p"] = len(shard.dirty_log)
        shard.dirty_log.trim(shard.dirty_seen["p"])
        shard.dirty_seen["p"] = 0
        self.snapshot()

    def restore(self):
        rebuilt = self.clone(self.taken[-1])
        self.wal.replay(rebuilt)
        rebuilt.log_dirty(self.wal.sketched_rows())
        self.shard = rebuilt
        self.snapshot()


POOL = st.integers(0, 7)
ROWS = st.lists(st.tuples(POOL, POOL, st.sampled_from([1, -1])), min_size=1, max_size=8)
STEPS = st.one_of(
    st.tuples(st.just("apply"), st.sampled_from(["out", "in"]), ROWS, st.booleans()),
    st.tuples(st.just("set"), st.lists(POOL, min_size=1, max_size=4), st.floats(-2, 2)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("finalize")),
    st.tuples(st.just("restore")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(STEPS, max_size=14))
def test_checkpoints_by_reference_equal_a_deep_copy_model(steps):
    shared, model = Twin(ShardState.copy), Twin(copy.deepcopy)
    for step in steps:
        for twin in (shared, model):
            if step[0] == "apply":
                twin.apply(*step[1:])
            elif step[0] == "set":
                ids = step[1]
                twin.set_values(ids, [step[2] + i for i in range(len(ids))])
            else:
                getattr(twin, step[0])()
        assert picture(shared.shard) == picture(model.shard)
        assert [picture(c) for c in shared.taken] == [picture(c) for c in model.taken]


def test_a_checkpoint_keeps_its_columns_while_the_live_shard_moves_on():
    shard = make_shard()
    checkpoint = shard.copy()
    assert all(map(operator.is_, checkpoint.out_store._csr(), shard.out_store._csr()))
    assert checkpoint.dirty_log._batches[0][1] is shard.dirty_log._batches[0][1]
    before = picture(checkpoint)
    ones = np.ones(2, dtype=np.int8)
    shard.out_store.apply(i64(1, 5), i64(9, 6), ones)  # the merge path
    shard.out_store.apply(i64(4, 4), i64(4, 4), np.array([1, -1]))  # the sequential path
    shard.in_store.remove_pairs(i64(2), i64(1))
    shard.dirty_log.append_batch("out", i64(5), i64(6), i64(1))
    shard.dirty_log.trim(2)
    shard.programs["pagerank"].values.set_many(i64(1, 2), np.array([7.0, 8.0]))
    assert picture(checkpoint) == before
    assert checkpoint.out_store._others is not shard.out_store._others


def shared_arrays(shard):
    """Every ndarray a checkpoint shares with the live shard: each
    store's three CSR columns, the dirty log's batches and the sketch
    delta's table, when one is held."""
    for store in (shard.out_store, shard.in_store):
        yield from store._csr()
    for batch in shard.dirty_log._batches:
        yield from batch[1:]
    if shard.sketch_delta.holds_table:
        yield shard.sketch_delta.table


def test_every_shared_array_is_read_only():
    shard = make_shard()
    assert shard.sketch_delta.holds_table
    arrays = list(shared_arrays(shard))
    assert len(arrays) == 10
    # A checkpoint holds these very arrays: nothing is copied or rebuilt.
    assert all(map(operator.is_, shared_arrays(shard.copy()), arrays))
    views = [
        view
        for store in (shard.out_store, shard.in_store)
        for view in (*store.arrays(), store.unique_keys, store.starts, store.others)
    ]
    for arr in arrays + views:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_stores_and_logs_do_not_freeze_what_they_copy():
    keys, others = i64(1, 1), i64(2, 3)
    store = EdgeStore(keys, others)
    assert keys.flags.writeable and others.flags.writeable
    keys[0] = 9  # the caller's array is its own
    assert store.arrays()[0].tolist() == [1, 1]
    window = i64(4, 5, 6, 7)
    log = DirtyLog()
    log.append_batch("out", window[1:3], window[1:3], window[1:3])
    assert window.flags.writeable  # a view of a caller's buffer is copied
    window[1] = 0
    assert [row[1] for row in log.rows()] == [5, 6]


def test_a_shard_with_no_watermark_keeps_no_dirty_rows():
    shard = ShardState(CountMinSketch(32, 2, seed=3))
    shard.log_dirty([("out", i64(1), i64(2), i64(1))])
    assert len(shard.dirty_log) == 0
    shard.dirty_seen["wcc"] = 0
    shard.log_dirty([("out", i64(1), i64(2), i64(1))])
    assert len(shard.dirty_log) == 1
    with pytest.raises(RuntimeError, match="no watermark"):
        shard.unconsumed("pagerank")
    assert shard.unconsumed("wcc")["out"][0].tolist() == [1]


def test_no_program_no_dirty_rows_and_no_batch_log():
    from repro.core import ElGA, WCC
    from repro.graph import EdgeBatch

    elga = ElGA(nodes=2, agents_per_node=2, seed=23)
    elga.ingest_edges(np.array([0, 1, 2]), np.array([1, 2, 3]))
    agents = elga.cluster.agents.values()
    assert all(len(a.shard.dirty_log) == 0 for a in agents)
    assert elga._batch_log == []
    elga.run(WCC())
    elga.apply_batch(EdgeBatch.insertions([3], [4]))
    assert sum(len(a.shard.dirty_log) for a in agents) == 2  # out- and in-copy
    assert len(elga._batch_log) == 1


def test_a_delta_run_on_a_shard_without_the_watermark_raises():
    from repro.core import ElGA, WCC
    from repro.graph import EdgeBatch

    elga = ElGA(nodes=2, agents_per_node=2, seed=23)
    elga.ingest_edges(np.array([0, 1, 2]), np.array([1, 2, 3]))
    elga.run(WCC())
    elga.apply_batch(EdgeBatch.insertions([3], [4]))
    del elga.cluster.agents[0].shard.dirty_seen["wcc"]
    with pytest.raises(RuntimeError, match="no watermark"):
        elga.run(WCC(), incremental=True)
