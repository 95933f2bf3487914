"""The durable state of one Agent, named once.

What elasticity moves and crash recovery restores is a vertex's edges
*together with* its algorithm state (§3.4.3).  :class:`ShardState` is
that unit for a whole shard, in two halves:

* the **graph half** — the out- and in-copy edge stores, the un-flushed
  sketch delta, and the log of dirty mutation rows with each program's
  consumption watermark into it.  A replacement agent rebuilds it from
  the latest checkpoint plus the WAL suffix; survivors of a crash keep
  theirs live (it does not change while a run is in flight).
* the **program half** — per program name, a :class:`ProgramState`:
  the persisted fixpoint values, the activation set, and (delta-message
  programs) the last-sent scatter baselines.  This is what a rollback
  rewinds, and what rides along with migrating edges.

A checkpoint is a :meth:`ShardState.copy`, which holds the graph half
by reference — edge-store columns and dirty-log batches are frozen
arrays that every change replaces, and the sketch delta shares its
table copy-on-write (none is held between a flush and the next count)
— and copies only the O(n/P) state written in place: the watermarks
and each :class:`ProgramState`.  The WAL replays onto a copy; migration ships
:meth:`ProgramState.select` (a hop carries one :class:`StateSlices`)
and the receiver merges it with :meth:`ProgramState.absorb`.  A new
durable field is added here and nowhere else.

Dirty rows are kept only while some program holds a watermark
(:meth:`ShardState.log_dirty`); a delta run reads them through
:meth:`ShardState.unconsumed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cluster.edgestore import DirtyLog, EdgeStore, IdSet, ValueColumn
from repro.graph.sortedids import members
from repro.sketch.countmin import CountMinSketch

#: Wire form of a slice of one program's state, as plain containers
#: (the fabric sizes ndarrays by their buffers): ``{"values": (ids,
#: vals), "active": ids, "scatter": (ids, vals)}``; an absent key is
#: an empty slice.
StateSlice = Dict[str, object]


class StateSlices(Dict[str, StateSlice]):
    """Program name -> :meth:`ProgramState.select` slice: the vertex
    state one EDGE_MIGRATE hop carries, on the wire every array of it."""

    @property
    def nbytes(self) -> int:
        parts = [(*s["values"], s["active"], *s["scatter"]) for s in self.values()]
        return sum(array.nbytes for part in parts for array in part)


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_PAIRS: Tuple[np.ndarray, np.ndarray] = (_NO_IDS, np.empty(0))


@dataclass
class ProgramState:
    """One program's state persisted across runs (locally persistent
    model): id-indexed columns over the vertices this shard keys."""

    values: ValueColumn = field(default_factory=ValueColumn)
    active: IdSet = field(default_factory=IdSet)
    # Delta-message programs additionally persist each vertex's
    # last-sent scatter value: a suspended delta run must resume with
    # the exact baseline, or unsent residuals are lost.
    scatter: ValueColumn = field(default_factory=ValueColumn)

    def copy(self) -> "ProgramState":
        return ProgramState(self.values.copy(), self.active.copy(), self.scatter.copy())

    def select(self, owned: np.ndarray) -> StateSlice:
        """The rows of the (sorted) ``owned`` ids — what ships with
        their migrating edges."""
        return {
            "values": self.values.select(owned),
            "active": owned[self.active.isin(owned)],
            "scatter": self.scatter.select(owned),
        }

    def absorb(self, pairs: StateSlice, kept: Optional[np.ndarray] = None) -> StateSlice:
        """Merge a shipped (or logged) slice, restricted to the sorted,
        distinct ``kept`` ids when given; returns what was merged, empty
        parts dropped — the record the WAL keeps."""
        merged: StateSlice = {}
        for part, column in (("values", self.values), ("scatter", self.scatter)):
            ids, vals = pairs.get(part, _NO_PAIRS)
            if kept is not None and len(ids):
                mask = members(kept, ids)
                ids, vals = ids[mask], vals[mask]
            if len(ids):
                column.set_many(ids, vals)
                merged[part] = (ids, vals)
        ids = pairs.get("active", _NO_IDS)
        if kept is not None and len(ids):
            ids = ids[members(kept, ids)]
        if len(ids):
            self.active.update(ids)
            merged["active"] = ids
        return merged

    def restrict(self, hosted: np.ndarray) -> None:
        """Drop every entry whose id is not in the sorted ``hosted``."""
        self.values.restrict(hosted)
        self.active.restrict(hosted)
        self.scatter.restrict(hosted)


def copy_programs(programs: Dict[str, ProgramState]) -> Dict[str, ProgramState]:
    """An independent copy of a program half."""
    return {name: state.copy() for name, state in programs.items()}


@dataclass
class ShardState:
    """Everything an Agent holds that must survive it."""

    # -- graph half ----------------------------------------------------
    #: Degree deltas applied here but not yet pushed to the directory.
    sketch_delta: CountMinSketch
    # Each edge is stored twice: the out-copy (keyed by source) and the
    # in-copy (keyed by destination), as lexsorted parallel arrays —
    # the paper's "flat hash maps with vectors", but array-native so
    # batch ingest, migration scans, and table builds vectorize.
    out_store: EdgeStore = field(default_factory=EdgeStore)
    in_store: EdgeStore = field(default_factory=EdgeStore)
    # Dirty mutation rows applied since each program last consumed
    # them — the activation seed of a delta run.  Array batches of
    # (role, keys, others, actions) with per-program row watermarks;
    # a finished run advances its program's watermark and the prefix
    # every known program consumed is trimmed.  With no watermark there
    # is no reader, and no row is kept (see log_dirty).
    dirty_log: DirtyLog = field(default_factory=DirtyLog)
    dirty_seen: Dict[str, int] = field(default_factory=dict)
    # -- program half --------------------------------------------------
    programs: Dict[str, ProgramState] = field(default_factory=dict)

    def copy(self) -> "ShardState":
        """An independent shard: the edge stores, the dirty log and the
        sketch delta share their frozen arrays with this one (O(1),
        O(batches) and O(1)); the watermarks and the program half are
        copied."""
        return ShardState(
            sketch_delta=self.sketch_delta.copy(),
            out_store=self.out_store.copy(),
            in_store=self.in_store.copy(),
            dirty_log=self.dirty_log.copy(),
            dirty_seen=dict(self.dirty_seen),
            programs=copy_programs(self.programs),
        )

    def log_dirty(self, batches) -> None:
        """Keep ``(role, keys, others, actions)`` batches of applied
        streaming rows for the delta runs to come — only while some
        program holds a watermark.  Without one no program can read
        them: a program's first run never runs as a delta, and its
        finalize sets its watermark to the end of the log."""
        if self.dirty_seen:
            self.dirty_log.extend(batches)

    def consumed(self, program: str) -> None:
        """``program`` finished: it has folded every dirty row logged so
        far into its fixpoint.  Move its watermark to the end of the log
        and drop the prefix every known program has consumed — safe with
        programs this shard has never seen, whose first run is never a
        delta and whose finalize sets their watermark here."""
        self.dirty_seen[program] = len(self.dirty_log)
        cut = min(self.dirty_seen.values())
        if cut > 0:
            self.dirty_log.trim(cut)
            self.dirty_seen = {name: mark - cut for name, mark in self.dirty_seen.items()}

    def unconsumed(self, program: str) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The dirty rows ``program`` has not folded in yet, by role —
        a delta run's activation seed.

        A delta run happens only under the membership of the program's
        last fixpoint, and every member finalized that run, so every
        member holds its watermark; a shard without one raises rather
        than read rows nobody kept."""
        mark = self.dirty_seen.get(program)
        if mark is None:
            raise RuntimeError(
                f"delta run of {program!r} on a shard that holds no watermark for it"
            )
        return self.dirty_log.suffix(mark)
