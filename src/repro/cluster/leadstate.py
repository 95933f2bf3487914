"""The Directory's control state, named once.

:class:`LeadState` is everything only the *lead* directory owns — the
aggregation state behind membership, sketch merging, barriers and agent
leases.  A Directory holds one optional reference to it: ``None`` on a
peer, assigned as a whole at bootstrap (:meth:`LeadState.fresh`), on
election (:meth:`LeadState.from_mirror`) and on demotion (back to
``None``), so a new lead-only field is a one-place edit — what a
bootstrap lead starts it at — that no reset site can forget.  :class:`ControlTail` is the other half of that pair: what
*every* directory mirrors of the lead's run control, and therefore what
a successor rebuilds its lead state from.  :func:`fold_stats` is how
a barrier round's statistics combine, both where an agent folds its
rows' contributions and where the lead folds its agents'.

The Directory's timer chains (``_lease_chain`` and friends,
:class:`~repro.sim.entity.Periodic`) are not here: whether a tick sits
in the kernel's queue stays true of the process whatever role it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Set, Tuple

from repro.net.message import PacketType

if TYPE_CHECKING:
    from repro.cluster.directory import DirectoryState

#: An agent's lease status at the lead -> the statuses it may move to.
#: A lease starts ``live`` (its ``since`` is the last heartbeat); a lapse
#: makes it ``suspected`` (``since``: when the master was last asked),
#: and the master's verdict makes it ``live`` again or ``evicted``, which
#: ends it.  A move without a row raises.
LEASES: Dict[str, FrozenSet[str]] = {
    "live": frozenset({"suspected"}),
    "suspected": frozenset({"live", "evicted"}),
    "evicted": frozenset(),
}


@dataclass
class ControlTail:
    """The mirrored tail of the lead's run control.

    Fed by every RUN_START / SUPERSTEP_ADVANCE / RECOVER a directory
    re-publishes (the lead mirrors its own too: it may be *elected* lead
    later in life, and succession reads these fields).
    """

    #: The last lead control broadcast, re-sent verbatim under the new
    #: term on election so partially-delivered broadcasts unstick.
    ctrl: Optional[Tuple[PacketType, object]] = None
    #: The highest barrier round ``ctrl`` implies was completed.
    ready_done: int = -1
    #: Whether a synchronous run is live; scopes the lease, election
    #: and registration timer chains so the kernel can go quiescent
    #: between runs (``settle`` would otherwise never drain).
    run_live: bool = False
    #: Whose results the barrier rounds are changing.
    active_program: Optional[str] = None
    #: Peer side: when it last heard *anything* from the lead.
    lead_seen: float = 0.0

    def mirror(self, ptype: PacketType, payload) -> None:
        self.ctrl = (ptype, payload)
        if ptype == PacketType.RUN_START:
            self.ready_done = -1
            # An async run has no barrier, no halt broadcast and no
            # heartbeats: nothing would ever end a chain armed for it.
            self.run_live = payload.mode == "sync"
            self.active_program = payload.program.name
        elif ptype == PacketType.SUPERSTEP_ADVANCE:
            if payload["phase"] == "halt":
                self.run_live = False
            else:
                # The lead broadcast round N only after completing
                # barrier round N-1.
                self.ready_done = max(self.ready_done, int(payload["round"]) - 1)


@dataclass
class LeadState:
    """Everything only the lead directory owns.  No field has a default:
    :meth:`fresh` must name every one, and :meth:`from_mirror` overrides
    exactly those a mirror can supply."""

    #: Capacity weights (agent id -> ring weight, 1.0 omitted).
    weights: Dict[int, float]
    # Placement-epoch components (peers mirror the lead's epoch via
    # DIRECTORY_SYNC).  Membership bumps on join / leave / eviction /
    # re-weight, sketch on every delta merge; the split component is
    # the (monotone) registry size at broadcast time.
    membership_version: int
    sketch_version: int
    #: Reported split vertices not yet in a broadcast state.
    pending_split: Set[int]
    # Sketch-broadcast throttle: deltas and split reports batch into at
    # most one broadcast per ``sketch_broadcast_interval``.
    sketch_dirty: bool
    last_sketch_broadcast: float
    broadcast_scheduled: bool
    #: READY buckets: barrier round -> agent id -> stats.
    ready: Dict[int, Dict[int, dict]]
    #: Highest barrier round already completed this run.  Rounds are
    #: monotone within a run, so a READY for a completed round is a
    #: stale duplicate and must not re-trigger the controller.
    ready_done: int
    #: Failure detection: agent id -> (status, since), a row of
    #: :data:`LEASES`.  A suspected agent's ``since`` is when the
    #: AGENT_SUSPECT was last sent: if the master's verdict never lands
    #: (it crashed, or the confirm was addressed to a dead lead), the
    #: probe is re-sent after a lease-timeout so arbitration survives
    #: master loss.
    leases: Dict[int, Tuple[str, float]]
    #: While set the barrier is held shut: no READY bucket may complete
    #: until the run controller finishes reshaping the run.
    recovering: bool

    @classmethod
    def fresh(cls) -> "LeadState":
        """The bootstrap lead: nothing joined, nothing merged."""
        return cls(
            weights={},
            membership_version=0,
            sketch_version=0,
            pending_split=set(),
            sketch_dirty=False,
            last_sketch_broadcast=-1e30,
            broadcast_scheduled=False,
            ready={},
            ready_done=-1,
            leases={},
            recovering=False,
        )

    @classmethod
    def from_mirror(cls, state: "DirectoryState", tail: ControlTail) -> "LeadState":
        """An elected successor's state, rebuilt from what it mirrored.

        Weights and the epoch counters come from the last synced
        :class:`DirectoryState`, the completed-round watermark from the
        control tail.  What no mirror can see starts as a bootstrap
        lead's and is re-driven: agents re-report READY on the term
        bump and the caller reseeds the leases.
        """
        _, membership_version, sketch_version, _ = state.epoch
        return replace(
            cls.fresh(),
            weights=dict(state.weights),
            membership_version=int(membership_version),
            sketch_version=int(sketch_version),
            ready_done=tail.ready_done,
            # If the old lead died mid-recovery the barrier stays shut
            # until the run controller's resume reopens it; the control-tail
            # re-broadcast lets agents that missed the RECOVER catch up.
            recovering=tail.ctrl is not None and tail.ctrl[0] == PacketType.RECOVER,
        )

    def begin_run(self) -> None:
        """Barrier rounds and leases restart with each run."""
        self.ready.clear()
        self.ready_done = -1
        self.recovering = False
        self.leases.clear()

    def is_live(self, agent_id: int) -> bool:
        """Whether ``agent_id``'s lease is live (no lease yet counts)."""
        return self.leases.get(agent_id, ("live", 0.0))[0] == "live"

    def move_lease(self, agent_id: int, status: str, now: float) -> None:
        """Set ``agent_id``'s lease to ``status`` as of ``now``: a move
        along a row of :data:`LEASES`, or a renewal of the status it
        already has.  ``evicted`` ends the lease."""
        current = self.leases.get(agent_id, ("live", now))[0]
        if status != current and status not in LEASES[current]:
            raise RuntimeError(f"agent {agent_id}'s lease cannot go from {current} to {status}")
        if status == "evicted":
            del self.leases[agent_id]
        else:
            self.leases[agent_id] = (status, now)

    def hold_barrier(self) -> None:
        """Shut the barrier: membership is about to shrink, and a stale
        READY bucket must not auto-complete against the smaller set."""
        self.recovering = True
        self.ready.clear()


def fold_stats(into: Dict[str, float], stats: Mapping[str, float]) -> None:
    """Fold one contribution of round statistics into ``into``:
    ``max_``-prefixed keys reduce by maximum (e.g. the worst per-vertex
    residual of a delta run), every other key sums.  Float sums depend
    on the order they are taken in, so callers fold in a fixed one (the
    lead: by agent id)."""
    for key, value in stats.items():
        if key.startswith("max_"):
            into[key] = max(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0.0) + value
