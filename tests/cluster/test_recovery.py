"""Durability primitives: CheckpointStore, EdgeWAL, RecoveryStore.

Unit coverage for :mod:`repro.cluster.recovery` plus the in-cluster
logging discipline: after any amount of streaming ingest (migrations,
forwards, splits included), ``latest checkpoint + WAL replay`` must
reconstruct an agent's edge stores exactly.
"""

from types import SimpleNamespace

import numpy as np

from repro.cluster.edgestore import EdgeStore, IdSet, ValueColumn
from repro.bench.counters import PerfCounters
from repro.cluster.metrics import combine_metrics
from repro.cluster.recovery import Checkpoint, CheckpointStore, EdgeWAL, RecoveryStore
from repro.cluster.shard import ProgramState, ShardState
from repro.sketch.countmin import CountMinSketch


def rows(*triples):
    """(keys, others, actions) arrays from (key, other, action) triples."""
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def pairs(mapping):
    """The (ids, values) wire form of a {vertex: value} dict."""
    col = ValueColumn.from_dict(mapping)
    return col.ids, col.vals


def empty_shard(**fields):
    return ShardState(CountMinSketch(64, 3, seed=1), **fields)


# ---------------------------------------------------------------------------
# EdgeWAL
# ---------------------------------------------------------------------------


def test_wal_append_replay_roundtrip():
    wal = EdgeWAL()
    wal.append("out", rows((1, 2, 1), (1, 3, 1), (4, 5, 1)), sketched=True)
    wal.append("in", rows((2, 1, 1), (3, 1, 1)), sketched=True)
    wal.append("out", rows((1, 3, -1)), sketched=True)
    shard = empty_shard()
    replayed = wal.replay(shard)
    assert replayed == 6
    assert shard.out_store == {1: {2}, 4: {5}}
    assert shard.in_store == {2: {1}, 3: {1}}


def test_wal_remove_drops_empty_buckets():
    wal = EdgeWAL()
    wal.append("out", rows((7, 8, 1)), sketched=False)
    wal.append("out", rows((7, 8, -1)), sketched=False)
    shard = empty_shard()
    wal.replay(shard)
    assert shard.out_store == {} and shard.in_store == {}


def test_wal_empty_append_is_noop():
    wal = EdgeWAL()
    wal.append("out", rows(), sketched=True)
    assert len(wal) == 0


def test_wal_truncate_drops_everything():
    wal = EdgeWAL()
    wal.append("out", rows((1, 2, 1)), sketched=True)
    assert len(wal) == 1
    wal.truncate()
    assert len(wal) == 0
    assert wal.replay(empty_shard()) == 0


def test_wal_replays_migrated_values_and_activation():
    wal = EdgeWAL()
    wal.append(
        "out",
        rows((9, 10, 1)),
        sketched=False,
        state={"pagerank": {"values": pairs({9: 0.25}), "active": np.array([9])}},
    )
    shard = empty_shard(
        programs={"pagerank": ProgramState(values=ValueColumn.from_dict({1: 0.5}))}
    )
    wal.replay(shard)
    assert shard.programs["pagerank"].values == {1: 0.5, 9: 0.25}
    assert shard.programs["pagerank"].active == {9}


def test_wal_value_only_record_survives_without_rows():
    wal = EdgeWAL()
    wal.append("out", rows(), sketched=False, state={"wcc": {"values": pairs({3: 3.0})}})
    shard = empty_shard()
    wal.replay(shard)
    assert shard.programs["wcc"].values == {3: 3.0}


def test_wal_recounts_sketched_rows_into_delta():
    wal = EdgeWAL()
    wal.append("out", rows((5, 6, 1), (5, 7, 1)), sketched=True)
    wal.append("out", rows((5, 7, -1)), sketched=True)
    wal.append("out", rows((5, 8, 1)), sketched=False)  # migration: not sketched
    shard = empty_shard()
    wal.replay(shard)
    assert shard.sketch_delta.query(np.array([5]))[0] == 1  # +2 inserts, -1 remove


# ---------------------------------------------------------------------------
# CheckpointStore
# ---------------------------------------------------------------------------


def _checkpoint(run_id=None, step=0, edges=((1, 2),)):
    out = {}
    for u, v in edges:
        out.setdefault(u, set()).add(v)
    return Checkpoint(
        empty_shard(out_store=EdgeStore.from_dict(out)), run_id=run_id, step=step
    )


def test_checkpoint_store_tracks_latest_and_steps():
    store = CheckpointStore()
    assert store.latest is None
    store.save(_checkpoint())
    store.save(_checkpoint(run_id=1, step=2))
    store.save(_checkpoint(run_id=1, step=4))
    assert store.latest.step == 4
    assert store.steps_for(1) == [2, 4]
    assert store.checkpoint_for(1, 2) is not None
    assert store.checkpoint_for(1, 3) is None


def test_checkpoint_store_stashes_pre_run_base():
    """The snapshot from before a run's first mid-run checkpoint is the
    restore base for restart-mode recovery (mid-run checkpoints hold
    partially-converged values)."""
    store = CheckpointStore()
    base = _checkpoint(edges=((10, 11),))
    store.save(base)
    store.save(_checkpoint(run_id=7, step=2))
    assert store.pre_run is base
    # Later checkpoints of the same run leave the stash alone.
    store.save(_checkpoint(run_id=7, step=4))
    assert store.pre_run is base


def test_prune_run_keeps_latest():
    store = CheckpointStore()
    store.save(_checkpoint(run_id=3, step=2))
    store.prune_run(3)
    assert store.steps_for(3) == []
    assert store.latest is not None  # the restore base survives


# ---------------------------------------------------------------------------
# RecoveryStore
# ---------------------------------------------------------------------------


def _fake_agent(agent_id=0):
    return SimpleNamespace(
        agent_id=agent_id,
        shard=empty_shard(
            out_store=EdgeStore.from_dict({1: {2, 3}}),
            in_store=EdgeStore.from_dict({2: {1}}),
            programs={
                "pagerank": ProgramState(ValueColumn.from_dict({1: 0.9}), IdSet([1]))
            },
        ),
    )


def test_recovery_store_slots_are_stable():
    store = RecoveryStore()
    slot = store.slot(4)
    assert store.slot(4) is slot
    assert store.slot(5) is not slot


def test_snapshot_agent_copies_state_and_truncates_wal():
    store = RecoveryStore()
    agent = _fake_agent(agent_id=2)
    store.slot(2).wal.append("out", rows((1, 2, 1)), sketched=True)
    checkpoint = store.snapshot_agent(agent)
    assert len(store.slot(2).wal) == 0
    assert checkpoint.n_edges == 3
    # Deep copies: mutating the agent must not leak into the snapshot.
    agent.shard.out_store.apply(*rows((1, 99, 1)))
    agent.shard.programs["pagerank"].values.set_many(np.array([1]), np.array([0.0]))
    assert checkpoint.state.out_store == {1: {2, 3}}
    assert checkpoint.state.programs["pagerank"].values == {1: 0.9}


def test_recovery_store_prune_run_spans_all_slots():
    store = RecoveryStore()
    store.slot(0).checkpoints.save(_checkpoint(run_id=5, step=2))
    store.slot(1).checkpoints.save(_checkpoint(run_id=5, step=2))
    store.prune_run(5)
    assert store.slot(0).checkpoints.steps_for(5) == []
    assert store.slot(1).checkpoints.steps_for(5) == []


def test_copy_helpers_deep_copy():
    shard = empty_shard(
        out_store=EdgeStore.from_dict({1: {2}}),
        programs={"p": ProgramState(ValueColumn.from_dict({1: 0.5}), IdSet([1]))},
    )
    copied = shard.copy()
    shard.out_store.apply(*rows((1, 3, 1)))
    shard.programs["p"].values.set_many(np.array([2]), np.array([1.0]))
    shard.programs["p"].active.update(np.array([2]))
    assert copied.out_store == {1: {2}}
    assert copied.programs["p"].values == {1: 0.5}
    assert copied.programs["p"].active == {1}


# ---------------------------------------------------------------------------
# In-cluster logging discipline
# ---------------------------------------------------------------------------


def test_checkpoint_plus_wal_rebuilds_every_agent_store():
    """After arbitrary streaming ingest (placement forwards, migrations,
    sketch flushes), each agent's durable slot must reconstruct its edge
    stores exactly: restore = latest checkpoint + WAL suffix replay."""
    from repro.core import ElGA

    elga = ElGA(nodes=2, agents_per_node=2, seed=13)
    rng = np.random.default_rng(8)
    us = rng.integers(0, 50, size=200)
    vs = rng.integers(0, 50, size=200)
    keep = us != vs
    elga.ingest_edges(us[keep], vs[keep])
    for agent_id, agent in elga.cluster.agents.items():
        slot = elga.cluster.recovery.slot(agent_id)
        base = slot.checkpoints.latest
        rebuilt = base.state.copy() if base else empty_shard()
        slot.wal.replay(rebuilt)
        assert rebuilt.out_store == agent.shard.out_store, f"agent {agent_id} out-store diverged"
        assert rebuilt.in_store == agent.shard.in_store, f"agent {agent_id} in-store diverged"


# ---------------------------------------------------------------------------
# Observability counters
# ---------------------------------------------------------------------------


def test_recovery_counters_survive_snapshot_and_combine():
    a = PerfCounters("agent")
    a.add("heartbeats_sent", 3)
    a.add("checkpoints_taken", 2)
    a.add("checkpoints_restored", 1)
    a.add("wal_records_logged", 40)
    a.add("wal_records_replayed", 7)
    a.add("recoveries_participated", 1)
    b = PerfCounters("agent")
    b.add("heartbeats_sent", 5)
    snap = a.snapshot()
    for key in (
        "heartbeats_sent",
        "checkpoints_taken",
        "checkpoints_restored",
        "wal_records_logged",
        "wal_records_replayed",
        "recoveries_participated",
    ):
        assert key in snap
    total = combine_metrics([a.snapshot(), b.snapshot()])
    assert total["heartbeats_sent"] == 8
    assert total["wal_records_logged"] == 40


def test_directory_registry_tracks_failure_detection():
    d = PerfCounters("directory")
    assert d.counts["heartbeats_missed"] == d.counts["lease_expirations"] == 0
    d.add("heartbeats_missed", 2)
    d.add("lease_expirations")
    snap = d.snapshot()
    assert snap["heartbeats_missed"] == 2
    assert snap["lease_expirations"] == 1
