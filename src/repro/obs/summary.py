"""Per-superstep timelines aggregated from a trace.

:class:`TraceSummary` folds the raw spans/events into one row per
barrier round: how long the round took, how much of it was agent
compute vs. barrier wait, which agent was the straggler, and how much
data-plane traffic (packets/bytes) the round pushed.  This is the
paper's Figure 8–11 per-iteration view, derived from the trace instead
of bespoke counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.obs.trace import Trace, Tracer


@dataclass
class StepRow:
    """Aggregates for one barrier round."""

    round: int
    step: int
    phase: str
    duration: float                 # barrier-to-barrier simulated seconds
    compute: float = 0.0            # summed agent compute-span seconds
    wait: float = 0.0               # summed agent barrier-wait seconds
    comms_packets: int = 0          # data-plane packets sent this round
    comms_bytes: int = 0
    frontier: int = 0               # vertices activated this round (all agents)
    straggler: Optional[str] = None   # agent with the largest compute share
    straggler_compute: float = 0.0
    per_agent_compute: Dict[str, float] = field(default_factory=dict)
    per_agent_wait: Dict[str, float] = field(default_factory=dict)


class TraceSummary:
    """Per-superstep compute/wait/comms breakdown of one trace.

    Round boundaries come from the run controller's ``round:*`` spans;
    agent compute comes from ``cat == "compute"`` spans and wait from
    ``cat == "barrier"`` spans (both carry their round in ``args``);
    traffic comes from data-plane ``send`` events whose payloads carry
    the round.
    """

    def __init__(
        self, rows: List[StepRow], serving_events: Optional[Dict[str, int]] = None
    ):
        self.rows = rows
        #: Serving-plane instants (query_shed, snapshot_retry,
        #: result_notice, ...) counted by name — tail-latency incidents
        #: deserve a line next to the compute timeline.
        self.serving_events: Dict[str, int] = serving_events or {}

    @classmethod
    def from_trace(cls, trace: Union[Trace, Tracer]) -> "TraceSummary":
        if isinstance(trace, Tracer):
            trace = trace.trace()
        rows: Dict[int, StepRow] = {}
        # Round skeleton from the controller; agents fill the breakdown.
        for span in trace.spans:
            if span.cat != "round":
                continue
            round_id = int(span.args.get("round", -1))
            rows[round_id] = StepRow(
                round=round_id,
                step=int(span.args.get("step", -1)),
                phase=str(span.args.get("phase", span.name)),
                duration=span.duration,
            )

        def row_for(round_id: int) -> StepRow:
            if round_id not in rows:
                # Trace without controller spans (e.g. agent-only
                # capture): synthesize the row from what we have.
                rows[round_id] = StepRow(round=round_id, step=-1, phase="?", duration=0.0)
            return rows[round_id]

        for span in trace.spans:
            round_id = span.args.get("round")
            if round_id is None:
                continue
            round_id = int(round_id)
            if span.cat == "compute":
                row = row_for(round_id)
                row.compute += span.duration
                row.frontier += int(span.args.get("frontier", 0))
                row.per_agent_compute[span.entity] = (
                    row.per_agent_compute.get(span.entity, 0.0) + span.duration
                )
                if span.args.get("step") is not None and row.step < 0:
                    row.step = int(span.args["step"])
            elif span.cat == "barrier":
                row = row_for(round_id)
                row.wait += span.duration
                row.per_agent_wait[span.entity] = (
                    row.per_agent_wait.get(span.entity, 0.0) + span.duration
                )
                # A synthesized row (no controller span — e.g. the wait
                # closed by the halt broadcast) can still be labeled
                # from the wait span's own args.
                if row.phase == "?" and span.args.get("phase"):
                    row.phase = str(span.args["phase"])
                if span.args.get("step") is not None and row.step < 0:
                    row.step = int(span.args["step"])
        serving_events: Dict[str, int] = {}
        for event in trace.events:
            if event.cat == "serving":
                serving_events[event.name] = serving_events.get(event.name, 0) + 1
                continue
            if event.cat != "message" or event.name != "send":
                continue
            round_id = event.args.get("round")
            if round_id is None:
                continue
            row = row_for(int(round_id))
            row.comms_packets += 1
            row.comms_bytes += int(event.args.get("bytes", 0))
        for row in rows.values():
            if row.per_agent_compute:
                straggler = max(
                    sorted(row.per_agent_compute), key=row.per_agent_compute.get
                )
                row.straggler = straggler
                row.straggler_compute = row.per_agent_compute[straggler]
        return cls([rows[k] for k in sorted(rows)], serving_events)

    # -- views -------------------------------------------------------------

    def steps(self) -> List[StepRow]:
        """Rows for plain compute supersteps only."""
        return [r for r in self.rows if r.phase in ("init", "step", "delta_init", "delta_step")]

    def total_compute(self) -> float:
        return sum(r.compute for r in self.rows)

    def per_agent_compute_totals(self) -> Dict[str, float]:
        """Summed compute seconds per agent over plain supersteps.

        The rebalance planner's load signal: who actually burned the
        cycles, not who holds the edges.  Keys are trace entity names
        (``agent-3``).
        """
        totals: Dict[str, float] = {}
        for row in self.steps():
            for agent, seconds in row.per_agent_compute.items():
                totals[agent] = totals.get(agent, 0.0) + seconds
        return totals

    def straggler_excess(self) -> float:
        """Summed straggler excess over plain supersteps, seconds.

        Per round: max per-agent compute minus the mean — the time
        every other agent idles at the barrier waiting for the
        straggler.  Zero is perfect balance; the rebalance benchmark
        gates on reducing this.
        """
        total = 0.0
        for row in self.steps():
            if not row.per_agent_compute:
                continue
            values = list(row.per_agent_compute.values())
            total += max(values) - sum(values) / len(values)
        return total

    def total_wait(self) -> float:
        return sum(r.wait for r in self.rows)

    def format(self) -> str:
        """A fixed-width text table of the per-round timeline."""
        header = (
            f"{'round':>5} {'step':>4} {'phase':<10} {'dur_ms':>9} "
            f"{'compute_ms':>11} {'wait_ms':>9} {'front':>7} {'pkts':>6} "
            f"{'bytes':>10} straggler"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            straggler = (
                f"{r.straggler} ({r.straggler_compute * 1e3:.3f} ms)"
                if r.straggler
                else "-"
            )
            lines.append(
                f"{r.round:>5} {r.step:>4} {r.phase:<10} {r.duration * 1e3:>9.3f} "
                f"{r.compute * 1e3:>11.3f} {r.wait * 1e3:>9.3f} "
                f"{r.frontier:>7} {r.comms_packets:>6} {r.comms_bytes:>10} {straggler}"
            )
        if self.serving_events:
            counts = ", ".join(
                f"{name}={self.serving_events[name]}"
                for name in sorted(self.serving_events)
            )
            lines.append(f"serving: {counts}")
        return "\n".join(lines)
