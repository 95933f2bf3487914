"""Durability for crash recovery: checkpoints and a write-ahead log.

ElGA's elasticity machinery (§3.4.3) assumes departures are graceful —
an agent drains its edges before disconnecting.  A *crash* leaves no
time to drain, so whatever must survive has to already be off the
failed process.  This module models that durable side-channel (in a
real deployment: local disk or a replicated log; here: plain objects
owned by the cluster orchestrator, deliberately *outside* any
:class:`~repro.sim.entity.Entity`, so they survive the entity's death).

Two complementary structures per agent:

* :class:`CheckpointStore` — full snapshots of an agent's durable
  state, i.e. copies of its :class:`~repro.cluster.shard.ShardState`.
  During a synchronous run, *value checkpoints* additionally capture
  the in-flight vertex table at coordinated barrier steps (every
  ``checkpoint_every`` supersteps) so that recovery can roll the whole
  cluster back to the last global checkpoint instead of restarting the
  run from scratch.
* :class:`EdgeWAL` — an append-only log of edge-store mutations applied
  since the last checkpoint.  Replaying the WAL suffix onto a copy of
  the restored checkpoint's state reconstructs the exact edge stores
  (and the exact pending sketch delta, and any algorithm state that
  migrated in) the agent held when it died.  The WAL is truncated
  whenever a checkpoint is taken.

A checkpoint holds the shard's O(m/P) graph half by reference: edge-store
columns and dirty-log batches are read-only arrays that every change
replaces, so the snapshot and the live shard share them until the live
one moves on, and a WAL record shares its row arrays with the dirty log.
Only the O(n/P) state — the sketch delta, the watermarks, the program
half — is copied (:meth:`~repro.cluster.shard.ShardState.copy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.shard import ProgramState, ShardState, StateSlice

#: One batch of effective edge mutations: (keys, others, actions).
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class Checkpoint:
    """One durable snapshot of an agent's recoverable state."""

    state: ShardState
    # Which run / barrier step this snapshot belongs to.  ``run_id`` is
    # None for checkpoints taken outside any run (e.g. at agent start).
    run_id: Optional[int] = None
    step: int = 0

    @property
    def n_edges(self) -> int:
        return self.state.out_store.n_edges + self.state.in_store.n_edges


@dataclass
class WALRecord:
    """One applied edge-store mutation batch.

    ``rows`` holds the mutations that were *actually applied*
    (duplicate-suppressed inserts and no-op removes never reach the
    log).  ``sketched`` marks streaming updates that also fed the
    agent's un-flushed sketch delta; migration traffic does not
    (§3.4.1: the sketch counts logical graph changes once).
    ``state`` carries, per program, the persisted vertex state that
    rode along with a migration batch and was merged here, so a restore
    recovers algorithm state that moved in after the last checkpoint
    (delta-message programs must not lose their last-sent baselines
    mid-suspension).
    """

    role: str  # "out" | "in"
    rows: Rows
    sketched: bool
    state: Optional[Dict[str, StateSlice]] = None


class EdgeWAL:
    """Append-only log of edge mutations since the last checkpoint."""

    def __init__(self) -> None:
        self._records: List[WALRecord] = []

    def append(
        self,
        role: str,
        rows: Rows,
        sketched: bool,
        state: Optional[Dict[str, StateSlice]] = None,
    ) -> None:
        if not len(rows[0]) and not state:
            return
        self._records.append(WALRecord(role, rows, sketched, state))

    def truncate(self) -> None:
        """Drop all records (a checkpoint now covers them)."""
        self._records = []

    def __len__(self) -> int:
        return sum(len(r.rows[0]) for r in self._records)

    def replay(self, shard: ShardState) -> int:
        """Re-apply every logged mutation onto ``shard``.

        Returns the number of rows replayed.  Sketched insert/remove
        rows are re-counted into the shard's sketch delta so the
        replacement agent re-reports exactly the degree deltas the
        crashed agent had not yet flushed, and migrated-in vertex state
        logged alongside the rows is merged back in.
        """
        replayed = 0
        for record in self._records:
            keys, others, actions = record.rows
            if len(keys):
                store = shard.out_store if record.role == "out" else shard.in_store
                store.apply(keys, others, actions)
                replayed += len(keys)
                if record.sketched:
                    ins = actions > 0
                    if ins.any():
                        shard.sketch_delta.add(keys[ins])
                    if (~ins).any():
                        shard.sketch_delta.remove(keys[~ins])
            for prog, pairs in (record.state or {}).items():
                shard.programs.setdefault(prog, ProgramState()).absorb(pairs)
        return replayed

    def sketched_rows(self) -> List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
        """The logged streaming mutations, in application order, as
        ``(role, keys, others, actions)`` batches — exactly what a
        replacement agent re-appends to its dirty log (migration records
        are placement moves, not graph changes, and are excluded)."""
        return [(r.role, *r.rows) for r in self._records if r.sketched]


class CheckpointStore:
    """Durable checkpoint slots for one agent.

    ``latest`` is the most recent full snapshot (the restore base for a
    replacement agent).  ``value_checkpoints`` additionally keeps every
    barrier-step snapshot of the *current* run, keyed by ``(run_id,
    step)``: survivors roll back to the crashed agent's checkpoint step,
    which may be older than their own latest (the crash can land between
    an agent checkpointing step ``s`` and a peer doing the same).
    """

    def __init__(self) -> None:
        self.latest: Optional[Checkpoint] = None
        self.value_checkpoints: Dict[Tuple[int, int], Checkpoint] = {}
        # Snapshot from just before the current run's first mid-run
        # checkpoint: the restore base when recovery must *restart* a
        # run instead of rolling back (mid-run checkpoints overwrite
        # ``latest`` with partially-converged values).
        self.pre_run: Optional[Checkpoint] = None

    def save(self, checkpoint: Checkpoint) -> None:
        if checkpoint.run_id is not None and (
            self.latest is None or self.latest.run_id != checkpoint.run_id
        ):
            self.pre_run = self.latest
        self.latest = checkpoint
        if checkpoint.run_id is not None:
            self.value_checkpoints[(checkpoint.run_id, checkpoint.step)] = checkpoint

    def checkpoint_for(self, run_id: int, step: int) -> Optional[Checkpoint]:
        return self.value_checkpoints.get((run_id, step))

    def steps_for(self, run_id: int) -> List[int]:
        return sorted(s for (r, s) in self.value_checkpoints if r == run_id)

    def prune_run(self, run_id: int) -> None:
        """Drop per-step value checkpoints once a run has completed."""
        stale = [key for key in self.value_checkpoints if key[0] == run_id]
        for key in stale:
            del self.value_checkpoints[key]


@dataclass
class AgentRecoverySlot:
    """Everything durably held on behalf of one agent."""

    checkpoints: CheckpointStore = field(default_factory=CheckpointStore)
    wal: EdgeWAL = field(default_factory=EdgeWAL)


class RecoveryStore:
    """Cluster-wide durable storage, one slot per agent id.

    Owned by :class:`~repro.cluster.cluster.ElGACluster` and handed to
    each agent at construction; slots outlive the agent entity, which
    is the whole point.
    """

    def __init__(self) -> None:
        self._slots: Dict[int, AgentRecoverySlot] = {}

    def slot(self, agent_id: int) -> AgentRecoverySlot:
        if agent_id not in self._slots:
            self._slots[agent_id] = AgentRecoverySlot()
        return self._slots[agent_id]

    def release(self, agent_id: int) -> None:
        """Forget a graceful leaver's slot: it drained every edge away,
        and no replacement will ever restore it."""
        self._slots.pop(agent_id, None)

    def prune_run(self, run_id: int) -> None:
        """Drop every agent's per-step checkpoints for a finished run."""
        for slot in self._slots.values():
            slot.checkpoints.prune_run(run_id)

    def snapshot_agent(self, agent) -> Checkpoint:
        """Capture a full checkpoint of ``agent`` and truncate its WAL:
        O(n/P) copied, the edge columns and dirty rows shared."""
        checkpoint = Checkpoint(agent.shard.copy())
        slot = self.slot(agent.agent_id)
        slot.checkpoints.save(checkpoint)
        slot.wal.truncate()
        return checkpoint
