"""Deterministic fault injection for the simulated fabric.

ElGA's §3 robustness claims — tolerance of out-of-order, duplicated,
and lost messages, and of agents joining/leaving mid-computation — are
only claims until the fabric actually misbehaves.  A :class:`FaultPlan`
is a seeded, policy-driven description of that misbehavior: the
:class:`~repro.net.network.Network` consults it on every transmission
and the plan decides, per message, whether to drop it, duplicate it,
reorder it (an extra delay past later traffic), or spike its latency.

Every decision is drawn from one private
:func:`~repro.sim.random.entity_rng` stream, and the simulator visits
messages in a deterministic order, so a chaos run is exactly replayable
from ``(experiment seed, plan seed)`` — a failing fault matrix entry in
CI reproduces locally from the logged seeds alone.

Three policy axes compose:

* :class:`FaultRule` — probabilistic drop/duplicate/reorder/delay for
  messages matching a ``PacketType`` set and/or a (src, dst) link,
  active inside a simulated-time window;
* :class:`PartitionWindow` — a clean network partition: traffic crossing
  the group boundary is dropped for the window's duration;
* :class:`CrashEvent` — scheduled agent departures, interpreted by the
  harness as a mid-run ``scale_plan`` (the paper's SIGINT leave).

Examples
--------
>>> from repro.net.message import Message, PacketType
>>> plan = FaultPlan(seed=1, rules=[FaultRule(drop_p=1.0)])
>>> ack = Message(PacketType.VERTEX_MSG_ACK, {"inc": 0, "count": 1}, src=0, dst=1)
>>> plan.decide(ack, now=0.0)
[]
>>> plan.injected["drops"]
1
>>> keep = FaultPlan(seed=1)  # no rules: every message passes untouched
>>> keep.decide(ack, now=0.0)
[0.0]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.net.message import Message, PacketType
from repro.sim.random import entity_rng

#: Data-plane packet types (algorithm values, edge changes, migration).
DATA_PTYPES: FrozenSet[PacketType] = frozenset(
    {
        PacketType.VERTEX_MSG,
        PacketType.VERTEX_MSG_ACK,
        PacketType.EDGE_UPDATE,
        PacketType.EDGE_UPDATE_ACK,
        PacketType.EDGE_MIGRATE,
        PacketType.EDGE_MIGRATE_ACK,
        PacketType.REPLICA_SYNC,
        PacketType.REPLICA_VALUE,
    }
)

#: Control-plane packet types (membership, sketch, barrier protocol).
CONTROL_PTYPES: FrozenSet[PacketType] = frozenset(
    {
        PacketType.DIRECTORY_UPDATE,
        PacketType.DIRECTORY_SYNC,
        PacketType.AGENT_JOIN,
        PacketType.AGENT_LEAVE,
        PacketType.SKETCH_DELTA,
        PacketType.SUBSCRIBE,
        PacketType.SPLIT_REPORT,
        PacketType.AGENT_READY,
        PacketType.READY_REBROADCAST,
        PacketType.SUPERSTEP_ADVANCE,
        PacketType.RUN_START,
        PacketType.DIR_LEASE,
        PacketType.DIRECTORY_REGISTER,
    }
)


def _validate_probability(name: str, p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {p!r}")


@dataclass(frozen=True)
class FaultRule:
    """One probabilistic misbehavior policy.

    A rule matches a message when *all* its filters accept it: the
    packet type is in ``ptypes`` (``None`` = every type), the link
    endpoints match ``src``/``dst`` (``None`` = any), and the current
    simulated time lies in ``[start_s, end_s)``.

    Attributes
    ----------
    drop_p, dup_p, reorder_p, delay_p:
        Per-message probabilities of dropping, duplicating (one extra
        copy), reordering, and latency-spiking.
    reorder_window_s:
        A reordered copy is held back by a uniform extra delay in
        ``(0, reorder_window_s]`` — enough to land behind messages sent
        after it, violating the fabric's usual per-pair FIFO order.
    delay_spike_s:
        Extra latency added on a delay spike (tail-latency events).
    """

    name: str = "rule"
    ptypes: Optional[FrozenSet[PacketType]] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    drop_p: float = 0.0
    dup_p: float = 0.0
    reorder_p: float = 0.0
    delay_p: float = 0.0
    reorder_window_s: float = 1e-3
    delay_spike_s: float = 5e-3
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        for attr in ("drop_p", "dup_p", "reorder_p", "delay_p"):
            _validate_probability(f"{self.name}.{attr}", getattr(self, attr))
        if self.reorder_window_s < 0 or self.delay_spike_s < 0:
            raise ValueError(f"{self.name}: delays must be non-negative")
        if self.end_s < self.start_s:
            raise ValueError(f"{self.name}: end_s precedes start_s")

    def matches(self, message: Message, now: float) -> bool:
        if not (self.start_s <= now < self.end_s):
            return False
        if self.ptypes is not None and message.ptype not in self.ptypes:
            return False
        if self.src is not None and message.src != self.src:
            return False
        if self.dst is not None and message.dst != self.dst:
            return False
        return True


@dataclass(frozen=True)
class PartitionWindow:
    """A clean partition: for ``[start_s, end_s)`` every message that
    crosses the boundary between ``group`` and the rest of the fabric is
    dropped (in both directions).  Addresses inside the group still talk
    to each other, as do addresses outside it."""

    group: FrozenSet[int]
    start_s: float
    end_s: float

    def separates(self, src: int, dst: int, now: float) -> bool:
        if not (self.start_s <= now < self.end_s):
            return False
        return (src in self.group) != (dst in self.group)


@dataclass(frozen=True)
class CrashEvent:
    """A scheduled participant departure, keyed by superstep.

    Two flavors:

    * **graceful** (default): the paper's SIGINT leave (§3.4.3).  The
      chaos harness translates these into the engine's mid-run
      ``scale_plan``, so ``agents_removed`` agents drain and leave
      after superstep ``after_step`` completes.
    * **abrupt** (``abrupt=True``): a process death.  The harness turns
      these into a ``crash_plan`` — shortly after superstep
      ``after_step`` completes, the victim is detached from the fabric
      mid-superstep with no drain; the directory's lease-based failure
      detector must notice, evict it, and drive checkpoint/WAL
      recovery (see ``cluster/recovery.py``).

    ``target`` extends the blast radius beyond the data plane:

    * ``"agent"`` (default) — kill ``agents_removed`` Agents;
    * ``"directory"`` — kill the *lead* Directory (the peers' term
      election replaces it; requires ``dir_lease_interval > 0``);
    * ``"master"`` — kill the DirectoryMaster (the engine restarts it
      after ``MASTER_RESTART_DELAY``).

    Control-plane entities have no graceful drain, so non-agent
    targets must be ``abrupt``.
    """

    after_step: int
    agents_removed: int = 1
    abrupt: bool = False
    target: str = "agent"

    def __post_init__(self) -> None:
        if self.after_step < 1:
            raise ValueError(
                f"CrashEvent.after_step must be >= 1 (steps are 1-based), "
                f"got {self.after_step}"
            )
        if self.agents_removed < 1:
            raise ValueError(
                f"CrashEvent.agents_removed must be >= 1, got {self.agents_removed}"
            )
        if self.target not in ("agent", "directory", "master"):
            raise ValueError(
                f"CrashEvent.target must be 'agent', 'directory', or "
                f"'master', got {self.target!r}"
            )
        if self.target != "agent" and not self.abrupt:
            raise ValueError(
                f"a {self.target} crash has no graceful drain; set abrupt=True"
            )


class FaultPlan:
    """A seeded, replayable misbehavior policy for one chaos run.

    Parameters
    ----------
    seed:
        Chaos seed; decisions come from an independent
        :func:`~repro.sim.random.entity_rng` substream, so the plan
        never perturbs the randomness of the entities under test.
    rules:
        :class:`FaultRule` policies; the **first** matching rule decides
        each message (order the specific before the general).
    partitions:
        :class:`PartitionWindow` list, checked before any rule.
    crashes:
        :class:`CrashEvent` list for the harness's ``scale_plan``.
    """

    def __init__(
        self,
        seed: int = 0,
        rules: Sequence[FaultRule] = (),
        partitions: Sequence[PartitionWindow] = (),
        crashes: Sequence[CrashEvent] = (),
    ):
        self.seed = int(seed)
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.partitions: Tuple[PartitionWindow, ...] = tuple(partitions)
        self.crashes: Tuple[CrashEvent, ...] = tuple(sorted(crashes, key=lambda c: c.after_step))
        self.rng = entity_rng(self.seed, "fault-plan")
        self.injected: Dict[str, int] = {
            "drops": 0,
            "partition_drops": 0,
            "dups": 0,
            "reorders": 0,
            "delay_spikes": 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"partitions={len(self.partitions)}, crashes={len(self.crashes)})"
        )

    # -- the Network-facing decision API -----------------------------------

    def decide(self, message: Message, now: float) -> List[float]:
        """Decide one transmission's fate.

        Returns the extra transport delay for each copy to deliver:
        ``[]`` means the message is dropped, ``[0.0]`` is a normal
        delivery, two entries mean a duplicate.  RNG draws happen only
        for matched messages, so adding a narrow rule never shifts the
        stream consumed by an unrelated one... as long as rule *order*
        is stable, which frozen tuples guarantee.
        """
        for window in self.partitions:
            if window.separates(message.src, message.dst, now):
                self.injected["partition_drops"] += 1
                return []
        rule = self._match(message, now)
        if rule is None:
            return [0.0]
        if rule.drop_p and self.rng.random() < rule.drop_p:
            self.injected["drops"] += 1
            return []
        copies = 1
        if rule.dup_p and self.rng.random() < rule.dup_p:
            self.injected["dups"] += 1
            copies = 2
        delays: List[float] = []
        for _ in range(copies):
            extra = 0.0
            if rule.reorder_p and self.rng.random() < rule.reorder_p:
                self.injected["reorders"] += 1
                extra += float(self.rng.random()) * rule.reorder_window_s
            if rule.delay_p and self.rng.random() < rule.delay_p:
                self.injected["delay_spikes"] += 1
                extra += rule.delay_spike_s
            delays.append(extra)
        return delays

    def _match(self, message: Message, now: float) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.matches(message, now):
                return rule
        return None

    # -- harness integration -----------------------------------------------

    def scale_plan(self, current_agents: int) -> Dict[int, int]:
        """Translate *graceful* crash events into the engine's mid-run
        scale plan.

        Returns ``{superstep: target agent count}``, compounding
        removals across events (two crashes of one agent each leave
        ``current_agents - 2`` at the second event's step).  Abrupt
        crashes are not drains and are excluded; they come from
        :meth:`crash_plan` instead.
        """
        plan: Dict[int, int] = {}
        target = int(current_agents)
        for crash in self.crashes:
            if crash.abrupt:
                continue
            target -= crash.agents_removed
            if target < 1:
                raise ValueError("crash schedule removes every agent")
            plan[crash.after_step] = target
        return plan

    def crash_plan(self) -> Dict[int, dict]:
        """Translate *abrupt* crash events into the engine's crash plan.

        Shortly after each listed superstep's barrier completes, the
        victims are killed mid-superstep (detached from the fabric, no
        drain): ``{step: {"agents": n, "lead": bool, "master": bool}}``.
        """
        plan: Dict[int, dict] = {}
        for crash in self.crashes:
            if not crash.abrupt:
                continue
            entry = plan.setdefault(
                crash.after_step, {"agents": 0, "lead": False, "master": False}
            )
            if crash.target == "agent":
                entry["agents"] += crash.agents_removed
            elif crash.target == "directory":
                entry["lead"] = True
            else:
                entry["master"] = True
        return plan

    # -- convenience constructors ------------------------------------------

    @classmethod
    def data_plane_chaos(
        cls,
        seed: int = 0,
        drop_p: float = 0.05,
        dup_p: float = 0.05,
        reorder_p: float = 0.10,
        delay_p: float = 0.02,
        crashes: Sequence[CrashEvent] = (),
        ptypes: Iterable[PacketType] = DATA_PTYPES,
    ) -> "FaultPlan":
        """The acceptance scenario: lossy, duplicating, reordering data
        plane (vertex messages, edge updates, migration, replica sync)
        with a perfect control plane."""
        rule = FaultRule(
            name="data-plane",
            ptypes=frozenset(ptypes),
            drop_p=drop_p,
            dup_p=dup_p,
            reorder_p=reorder_p,
            delay_p=delay_p,
        )
        return cls(seed=seed, rules=[rule], crashes=crashes)

    @classmethod
    def control_plane_chaos(
        cls,
        seed: int = 0,
        drop_p: float = 0.05,
        dup_p: float = 0.05,
        reorder_p: float = 0.10,
        delay_p: float = 0.02,
        crashes: Sequence[CrashEvent] = (),
    ) -> "FaultPlan":
        """Chaos on the directory/barrier protocol only (JOIN/LEAVE,
        sketch deltas, READY, ADVANCE, RUN_START, broadcasts)."""
        rule = FaultRule(
            name="control-plane",
            ptypes=CONTROL_PTYPES,
            drop_p=drop_p,
            dup_p=dup_p,
            reorder_p=reorder_p,
            delay_p=delay_p,
        )
        return cls(seed=seed, rules=[rule], crashes=crashes)

    @classmethod
    def full_chaos(
        cls,
        seed: int = 0,
        drop_p: float = 0.05,
        dup_p: float = 0.05,
        reorder_p: float = 0.10,
        delay_p: float = 0.02,
        crashes: Sequence[CrashEvent] = (),
        partitions: Sequence[PartitionWindow] = (),
    ) -> "FaultPlan":
        """Chaos on every message, transport acks included."""
        rule = FaultRule(
            name="everything",
            drop_p=drop_p,
            dup_p=dup_p,
            reorder_p=reorder_p,
            delay_p=delay_p,
        )
        return cls(seed=seed, rules=[rule], partitions=partitions, crashes=crashes)
