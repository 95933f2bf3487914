"""One agent's side of the split-vertex replica round (§3.4).

A split (high-degree) vertex is hosted by several replicas, the first
its primary.  Every round the others send the primary their partial
aggregate and local out-degree (REPLICA_SYNC); with all of them in, the
primary applies the vertex and pushes the new value and global
out-degree back (REPLICA_VALUE).  :class:`ReplicaRound` is that
exchange's bookkeeping and the canonical fold of the partials — a plain
object, no entity or clock.  The Agent's round machine
(:mod:`repro.cluster.rounds`) ships what it returns, applies what it
folds, and charges for both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.dataplane import segments_by
from repro.cluster.edgestore import members

#: Replica partials as parallel arrays: (vertices, partial aggregates,
#: got-a-message flags, local out-degrees).
Partials = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class ReplicaRound:
    """The replica round of the split vertices one agent hosts.

    Built with each vertex table: ``my_split`` maps every split vertex
    hosted here to its replica list, primary first.
    """

    def __init__(self, agent_id: int, my_split: Dict[int, List[int]]):
        self.agent_id = agent_id
        self.my_split = my_split
        # Primary side: split vertex -> partials still due this round.
        self.expected_syncs: Dict[int, int] = {}
        # Primary side: the partials received so far (our own snapshot
        # included), one batch per sync, until their vertex is folded.
        self.sync_buf: List[Partials] = []
        # Replica side: split vertices whose new value is still due.
        self.expected_values: Set[int] = set()
        # Primary side: (old, new, active) per vertex applied this round,
        # summed into step stats at READY in vertex order, not arrival's.
        self.split_applied: Dict[int, Tuple[float, float, bool]] = {}

    def begin(self, table, identity: float) -> List[Tuple[int, dict]]:
        """Open this round: snapshot every split row's partial from
        ``table`` *before* the round's scatter refills the accumulators,
        reset those rows to ``identity``, and register what is due.
        Returns one REPLICA_SYNC payload per remote primary, primaries
        ascending and rows vertex-sorted."""
        self.split_applied = {}
        my_split = self.my_split
        if not my_split:
            return []
        verts = np.fromiter(sorted(my_split), dtype=np.int64, count=len(my_split))
        pos = table.pos(verts)
        partials = table.accum[pos].copy()
        got = table.got[pos].copy()
        outdeg = table.out_deg_local[pos].copy()
        table.accum[pos] = identity
        table.got[pos] = False
        primaries = np.fromiter(
            (my_split[int(v)][0] for v in verts), dtype=np.int64, count=len(verts)
        )
        self.expected_syncs = {}
        mine = primaries == self.agent_id
        if mine.any():
            for v in verts[mine]:
                self.expected_syncs[int(v)] = len(my_split[int(v)]) - 1
            self.sync_buf.append((verts[mine], partials[mine], got[mine], outdeg[mine]))
        rest = np.flatnonzero(~mine)
        self.expected_values.update(int(v) for v in verts[rest])
        order, segments = segments_by(primaries[rest])
        syncs = []
        for primary, start, end in segments:
            idx = rest[order[start:end]]
            payload = {
                "verts": verts[idx],
                "partials": partials[idx],
                "got": got[idx],
                "outdeg": outdeg[idx],
            }
            syncs.append((primary, payload))
        return syncs

    def receive(self, payload: dict) -> None:
        """Primary side: buffer one replica's REPLICA_SYNC."""
        verts = np.asarray(payload["verts"], dtype=np.int64)
        self.sync_buf.append(
            (
                verts,
                np.asarray(payload["partials"], dtype=np.float64),
                np.asarray(payload["got"], dtype=bool),
                np.asarray(payload["outdeg"], dtype=np.float64),
            )
        )
        unique, counts = np.unique(verts, return_counts=True)
        for v, c in zip(unique, counts):
            v = int(v)
            self.expected_syncs[v] = self.expected_syncs.get(v, 0) - int(c)

    def fold_ready(self, ufunc: np.ufunc, identity: float) -> Optional[Partials]:
        """Primary side: take every split vertex whose partials are all
        in out of the buffer and fold them, in (vertex, partial, got,
        outdeg)-sorted order — arrival order is fabric timing and must
        not shape the float reduction.  Only snapshots fold: this round's
        incoming messages wait in the run's pending buffer.  Returns
        ``(vertices, aggregate, got, global out-degree)``, vertex-sorted;
        ``None`` if none is ready."""
        ready = sorted(v for v, remaining in self.expected_syncs.items() if remaining <= 0)
        if not ready:
            return None
        for v in ready:
            del self.expected_syncs[v]
        rverts = np.asarray(ready, dtype=np.int64)
        # Rows for still-pending vertices stay buffered.  (A ready
        # vertex always has its own row, so the buffer is never empty
        # here.)
        allv, allp, allg, allo = (
            np.concatenate([batch[i] for batch in self.sync_buf]) for i in range(4)
        )
        take = members(rverts, allv)
        keep = ~take
        self.sync_buf = (
            [(allv[keep], allp[keep], allg[keep], allo[keep])] if keep.any() else []
        )
        sv, sp, sg, so = allv[take], allp[take], allg[take], allo[take]
        order = np.lexsort((so, sg, sp, sv))
        sv, sp, sg, so = sv[order], sp[order], sg[order], so[order]
        group = np.searchsorted(rverts, sv)
        agg = np.full(len(rverts), identity, dtype=np.float64)
        ufunc.at(agg, group, sp)
        got = np.zeros(len(rverts), dtype=bool)
        np.logical_or.at(got, group, sg)
        outdeg = np.zeros(len(rverts))
        np.add.at(outdeg, group, so)
        return rverts, agg, got, outdeg

    def applied(self, verts: np.ndarray, old, new, active) -> None:
        """Primary side: record what applying ``verts`` did."""
        for i, v in enumerate(verts.tolist()):
            self.split_applied[v] = (float(old[i]), float(new[i]), bool(active[i]))

    def value_pushes(
        self, verts: np.ndarray, values, active, outdeg: np.ndarray
    ) -> List[Tuple[int, dict]]:
        """Primary side: one REPLICA_VALUE payload per replica of the
        just-applied ``verts``, replicas ascending."""
        by_replica: Dict[int, List[int]] = {}
        for i, v in enumerate(verts.tolist()):
            for replica in self.my_split[v][1:]:
                by_replica.setdefault(replica, []).append(i)
        pushes = []
        for replica in sorted(by_replica):
            idx = np.asarray(by_replica[replica], dtype=np.int64)
            payload = {
                "verts": verts[idx],
                "values": np.asarray(values)[idx],
                "active": np.asarray(active, dtype=bool)[idx],
                "outdeg": outdeg[idx],
            }
            pushes.append((replica, payload))
        return pushes

    def values_in(self, verts) -> None:
        """Replica side: the primary's values for ``verts`` arrived."""
        self.expected_values.difference_update(int(v) for v in verts)

    def applied_rows(self) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(old, new, active) of this round's applies, vertex-sorted;
        ``None`` when none ran here."""
        if not self.split_applied:
            return None
        rows = [self.split_applied[v] for v in sorted(self.split_applied)]
        return tuple(np.array(column) for column in zip(*rows))
