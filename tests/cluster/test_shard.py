"""ShardState: the Agent's durable state, named once.

The point of the object is that a checkpoint, a WAL replay, a rollback
and a migration all see *every* durable field.  The field-drift guards
below enumerate ``dataclasses.fields`` so a field added to ShardState or
ProgramState without a mutator here — i.e. without anyone having thought
about how it is copied and restored — fails loudly.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.edgestore import DirtyLog, EdgeStore, IdSet, ValueColumn
from repro.cluster.recovery import Checkpoint, RecoveryStore
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
        rebuilt.dirty_log.extend(slot.wal.sketched_rows())
        # Pruning state of vertices that migrated away is not logged: a
        # replacement's first directory adoption redoes it.
        hosted = np.union1d(rebuilt.out_store.unique_keys, rebuilt.in_store.unique_keys)
        for state in rebuilt.programs.values():
            state.restrict(hosted)
        replayed_state += sum(bool(record.state) for record in slot.wal._records)
        assert picture(rebuilt) == picture(agent.shard), f"agent {agent_id} diverged"
    assert replayed_state > 0, "scenario never logged migrated-in program state"
