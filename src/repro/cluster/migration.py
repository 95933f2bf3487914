"""The Agent's membership and migration (§3.4.3).

The paper's elasticity is one machine: join and take your arcs of the
ring; on leave drain every edge, wait, then disconnect.  Where an agent
stands in it is one field, ``status``, moved only along the rows of
:data:`MEMBERSHIP`:

* ``joining`` — announced (AGENT_JOIN), but no adopted state lists it
  yet.  It places and migrates nothing: rows that arrive wait in
  ``_pre_state_buffer`` until a state lists it, and a crash replacement
  keeps its restored shard rather than ship it under a ring it is not on.
* ``member`` — listed; each adoption re-homes the resident rows whose
  owner changed.
* ``leaving`` — asked to leave (or dropped from the membership).  Once
  the state it holds no longer lists it, migration ships every row away.
  A leave asked while joining pushes its AGENT_LEAVE only once a state
  lists the agent: sent at once, it can overtake the JOIN on the same
  link and be dropped at the lead as a duplicate.
* ``drained`` — unlisted, no row held, no hop outstanding.  It
  disconnects after a grace period unless something arrives meanwhile
  (back to ``leaving``).
* ``detached`` — gone from the fabric.

Every EDGE_MIGRATE hop — a batch this agent removed from its stores, or
a segment of another agent's batch it forwards — goes out under its own
token in the outbound ``ledger``, and leaves it when the receiving hop
acks or when the fabric hands the packet back undeliverable.  The
ledger is the only record of outstanding hops.

:class:`MigrationMixin` is mixed into the Agent like
:class:`~repro.cluster.rounds.RoundMixin`: every ``kernel.schedule``
target is a bound method of the Agent, so its time is the Agent's.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.cluster.dataplane import segments_by
from repro.cluster.directory import DirectoryState
from repro.cluster.edgestore import EdgeStore
from repro.cluster.shard import StateSlices
from repro.cluster.vertextable import keyed_vertices
from repro.graph.sortedids import distinct
from repro.net.message import PacketType

#: An agent's membership status -> the statuses it may move to.  A move
#: without a row raises.
MEMBERSHIP: Dict[str, FrozenSet[str]] = {
    "joining": frozenset({"member", "leaving"}),
    "member": frozenset({"leaving"}),
    "leaving": frozenset({"drained"}),
    "drained": frozenset({"leaving", "detached"}),
    "detached": frozenset(),
}


class MigrationMixin:
    """Membership, migration and the outbound hop ledger of an Agent."""

    def _to(self, status: str) -> None:
        """Move ``status`` along one row of :data:`MEMBERSHIP`."""
        if status not in MEMBERSHIP[self.status]:
            raise RuntimeError(f"agent {self.agent_id} cannot go from {self.status} to {status}")
        self.status = status

    def _announce(self) -> None:
        """Tell the home Directory where this agent stands: its JOIN
        while no state has listed it and while it is a member, its LEAVE
        once it asked to go.  Both are idempotent at the lead."""
        if self.status == "member" or self._pre_state_buffer is not None:
            self.push.push(
                self.directory_address,
                PacketType.AGENT_JOIN,
                {
                    "agent_id": self.agent_id,
                    "address": self.address,
                    "node": self.node,
                    "weight": self.weight,
                },
            )
        elif self.status == "leaving":
            self.push.push(
                self.directory_address, PacketType.AGENT_LEAVE, {"agent_id": self.agent_id}
            )

    def initiate_leave(self) -> None:
        """Graceful departure (the paper's SIGINT handler, §3.4.3).

        The agent only signals the directory; the next directory update
        excludes it, at which point normal migration drains every edge,
        and the agent disconnects after a grace period.  Between runs it
        first pushes any degree counts it has not flushed: they would
        otherwise leave with it, and the global sketch would
        underestimate every vertex they counted (mid-run, the adoption
        that unlists it pushes them).  While no state lists the agent,
        the signal waits for the first one that does.
        """
        if self.run is None and not self.shard.sketch_delta.is_empty():
            self.flush_sketch()
        self._to("leaving")
        if self._pre_state_buffer is None:
            self._announce()

    # ------------------------------------------------------------------
    # adoption: membership moves, then migration
    # ------------------------------------------------------------------

    def _adopt(self, state: DirectoryState) -> None:
        if self._holds_graph():
            # Placement must stay stable while a superstep's messages are
            # in flight; adopt once the engine suspends or ends the run.
            self._pending_state = state
            return
        self._pending_state = None
        super()._adopt(state)

    def _adopted(self, previous: Optional[DirectoryState]) -> None:
        state = self.dstate
        if previous is not None and state.weights != previous.weights:
            # A re-weight landed (planner adoption or heterogeneous
            # join): the ring shifted arcs, and _migrate_misplaced
            # re-homes whatever this agent no longer owns.
            self.perf.add("rebalance_adoptions")
        listed = self.agent_id in state.agents
        held = self._pre_state_buffer
        if held is not None:
            if not listed:
                return  # not listed yet: nothing here to place by
            self._pre_state_buffer = None
            if self.status == "joining":
                self._to("member")
            else:
                self._announce()  # the leave asked while joining
        elif not listed and self.status == "member":
            self._to("leaving")
        if not listed and self.status == "leaving" and not self.shard.sketch_delta.is_empty():
            # Unlisted, a leaver ships every row away and applies none
            # from now on: degree counts it has not flushed go first, or
            # they leave with it.  No run stands in the way — adoption
            # waits for a suspension or the run's end — and this also
            # covers a leave asked mid-run, which initiate_leave could
            # not flush.
            self.flush_sketch()
        keyed = self._migrate_misplaced(self.placer.last_moved)
        if previous is None or state.epoch != previous.epoch:
            # Degrees may have crossed the split threshold between
            # sketch flushes; every new global sketch warrants a fresh
            # look at the vertices resident here.
            self._check_split_threshold(keyed_vertices(self.shard) if keyed is None else keyed)
        for payload, count_in_sketch in held or ():
            self._on_edge_update(payload, count_in_sketch)

    def _migrate_misplaced(self, moved: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Re-home the resident edges whose owner changed; returns the
        vertices still keyed here afterwards (None when there is no
        ring to place by, and nothing ran).

        The paper's straightforward approach recomputes the correct
        destination for all current edges and forwards any that no
        longer belong here (§3.4.3); the modelled cluster is charged
        for exactly that pass.  This process only resolves what the
        adoption can have moved, once per distinct keyed vertex where
        the key alone decides.

        Every resident row was placed under the previous state (rows
        only enter through a placement check against the adopted state,
        and each adoption re-homes what it moved), so ``moved`` is the
        placement cache's :attr:`~repro.partition.cache.PlacementCache.last_moved`:
        nothing for a batch-clock tick, the split vertices whose
        replication factor changed while the ring stands, and ``None``
        (every row) on a first listing — which follows a restore from
        checkpoint + WAL — or a ring or term change.
        """
        if len(self.placer.ring) == 0:
            return None
        costs = self.config.costs
        total_edges = self.n_out_edges + self.n_in_edges
        self.charge(costs.elga_migrate_check * total_edges)
        stores = (("out", self.shard.out_store), ("in", self.shard.in_store))
        if moved is not None and len(moved) == 0:
            self.perf.add("migrate_rechecks_skipped")
            stores = ()
        for role, store in stores:
            rows, owners = self._resident_owners(store, moved)
            self.perf.add("migrate_rows_rechecked", len(owners))
            wrong = owners != self.agent_id
            if not wrong.any():
                continue
            wrong_rows = np.flatnonzero(wrong) if rows is None else rows[wrong]
            wrong_k = store.keys_of(wrong_rows)
            wrong_o = store.others[wrong_rows]
            self.charge(costs.elga_migrate_op * len(wrong_rows))
            self.perf.add("edges_migrated", len(wrong_rows))
            # Remove locally, one vectorized pass over the store.  The
            # WAL removal is NOT logged here: it enters the ledger per
            # destination batch below and hits the log only when that
            # batch's hop ack arrives (see _resolve_migration).
            store.remove_pairs(wrong_k, wrong_o)
            # Group by destination agent and ship, with vertex state.
            order, segments = segments_by(owners[wrong])
            for target, start, end in segments:
                batch_keys = wrong_k[order[start:end]]
                batch_others = wrong_o[order[start:end]]
                # Ship algorithm state only for the endpoints this agent
                # *owns* (the copy's keyed vertex): it is a replica of
                # those and its persisted values are fresh.  Values for
                # the opposite endpoints may be stale leftovers from an
                # earlier placement epoch and must not travel.
                owned = distinct(batch_keys)
                payload = {
                    "role": role,
                    "actions": np.ones(end - start, dtype=np.int8),
                    "us": batch_keys if role == "out" else batch_others,
                    "vs": batch_others if role == "out" else batch_keys,
                    # Vectorized state join: the owned ids' rows of each
                    # program's columns, shipped as plain arrays.
                    "state": StateSlices(
                        (prog, state.select(owned)) for prog, state in self.shard.programs.items()
                    ),
                }
                self._send_hop(target, payload, (role, batch_keys, batch_others))
        keyed = keyed_vertices(self.shard)
        # Drop algorithm state for vertices that migrated away: keeps
        # per-agent memory at O((n + m)/P) (Goal 2), and stale values are
        # never re-shipped or re-collected.
        for state in self.shard.programs.values():
            state.restrict(keyed)
        self._maybe_finish_leaving()
        return keyed

    def _resident_owners(
        self, store: EdgeStore, moved: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """(row indices, current owner of each) for the rows of
        ``store`` keyed by a vertex in ``moved``; every row (indices
        ``None``) when ``moved`` is ``None``.

        A vertex that is not split keeps all its rows with its ring
        owner, so the full pass resolves owners per distinct key and
        repeats them over each key's segment; only rows of split
        vertices are resolved edge by edge.
        """
        if moved is not None:
            rows = store.rows_keyed_by(moved)
            return rows, self.placer.owner_of_edges(store.keys_of(rows), store.others[rows])
        distinct = store.unique_keys
        owners = np.repeat(self.placer.ring_owners(distinct), store.key_counts)
        split = distinct[self.placer.replication_factor(distinct) > 1]
        if len(split):
            rows = store.rows_keyed_by(split)
            owners[rows] = self.placer.owner_of_edges(store.keys_of(rows), store.others[rows])
        return None, owners

    # ------------------------------------------------------------------
    # the outbound hop ledger
    # ------------------------------------------------------------------

    def _send_hop(
        self, target: int, payload: dict, removed: Optional[Tuple[str, np.ndarray, np.ndarray]]
    ) -> None:
        """Push one EDGE_MIGRATE hop to agent ``target`` under a fresh
        ledger token.  ``removed`` is the (role, keys, others) batch this
        agent took out of its stores, whose WAL removal the hop's ack
        logs; ``None`` for a forwarded segment, which never entered them."""
        self._migration_seq += 1
        # Unique across agents, since hop acks echo it back from any
        # peer; negative, so it is never mistaken for an update token.
        token = -(self.agent_id * 1_048_576 + self._migration_seq + 1)
        self.ledger[token] = removed
        payload["reply_to"] = self.address
        payload["token"] = token
        self.push.push(self._agent_address(target), PacketType.EDGE_MIGRATE, payload)

    def _resolve_migration(self, token) -> None:
        """The hop is durably elsewhere (or re-routed): log the deferred
        removal.  Unknown tokens — one this agent already resolved —
        are no-ops."""
        removed = self.ledger.pop(token, None)
        if removed is not None:
            role, keys, others = removed
            self._wal_log(
                role,
                (keys, others, np.full(len(keys), -1, dtype=np.int64)),
                sketched=False,
            )

    def _on_migrate_ack(self, payload: dict) -> None:
        self._resolve_migration(payload.get("token"))
        self._maybe_finish_leaving()

    def on_reliable_abandoned(self, message) -> None:
        """The fabric gave up on a reliable send of ours: the
        destination detached for good.  For an EDGE_MIGRATE that means
        a departed peer never received the edges — re-process the
        payload under the current directory (which excludes the
        leaver), re-routing the rows; the re-process acks the payload's
        ``reply_to``, this agent.  The ledger entry resolves *now*,
        before the re-process: the original removal must precede any
        local re-insert in the WAL, or a replacement would replay them
        out of order."""
        if self.crashed or message.ptype != PacketType.EDGE_MIGRATE:
            return
        self._resolve_migration(message.payload.get("token"))
        self._on_edge_update(dict(message.payload), count_in_sketch=False)

    # ------------------------------------------------------------------
    # drain and disconnect
    # ------------------------------------------------------------------

    def _check_drain(self) -> bool:
        """Move a leaver between ``leaving`` and ``drained`` by what it
        holds now — drained is unlisted by the state it holds, no row,
        no hop outstanding — and say whether it is drained."""
        if self.status not in ("leaving", "drained"):
            return False
        drained = self.agent_id not in self.dstate.agents and not self.ledger and not self.total_edges
        if drained != (self.status == "drained"):
            self._to("drained" if drained else "leaving")
        return drained

    def _maybe_finish_leaving(self) -> None:
        if self._check_drain():
            # "Only when it has no edges and has waited a period of time
            # will it disconnect."
            self.kernel.schedule(1e-3, self._final_detach)

    def _final_detach(self) -> None:
        if self._check_drain():  # nothing arrived during the wait
            self.push.push(self.directory_address, PacketType.SUBSCRIBE, {"remove": True})
            self.detach()
            self._to("detached")
            # Nothing restores a graceful leaver: its durable slot goes.
            self._recovery_store.release(self.agent_id)
            self._recovery = None
