"""The lead's agent failure detector: leases, suspicion, eviction.

Agents heartbeat their Directory while a synchronous run is live; the
lead keeps a lease per member, suspects one whose lease lapsed, and
evicts it only on the DirectoryMaster's verdict (the master probes the
endpoint, protecting slow-but-alive agents).  Eviction holds the barrier
shut and hands the recovery to the run's controller
(``run_controller.on_evicted``).

Mixed into :class:`~repro.cluster.directory.Directory` only: the lease
tick is a bound method of the directory that scheduled it.
"""

from __future__ import annotations

from typing import Dict

from repro.net.message import Message, PacketType


class LeaseMixin:
    """Lease bookkeeping over ``lead_state.leases``, one status per
    agent moved along :data:`~repro.cluster.leadstate.LEASES`."""

    def _reseed_leases(self) -> None:
        """Every member's live lease runs from now; a suspected one keeps
        waiting for its verdict."""
        if self.config.heartbeat_interval <= 0:
            return
        lead, now = self.lead_state, self.now
        lead.leases = {
            agent_id: ("live", now) if lead.is_live(agent_id) else lead.leases[agent_id]
            for agent_id in self.state.agents
        }
        if not self._lease_pending:
            self._lease_pending = True
            self.kernel.schedule(self.config.lease_timeout / 2.0, self._lease_tick)

    def _lead_heartbeat(self, message: Message) -> None:
        agent_id = int(message.payload["agent_id"])
        if self.lead_state.is_live(agent_id):
            self.lead_state.move_lease(agent_id, "live", self.now)

    def _lease_tick(self) -> None:
        self._lease_pending = False
        lead, controller = self.lead_state, self.run_controller
        if (
            self.crashed
            or lead is None
            or controller is None
            or controller.done
            or self.config.heartbeat_interval <= 0
        ):
            return  # chain ends with the run; the next run re-arms it
        now = self.now
        # While recovery reshapes the cluster — or an apply-only drain /
        # suspension holds the barrier — agents legitimately go quiet;
        # refresh instead of suspecting.  But only for endpoints that
        # still answer: blanket refreshes during a suspension meant an
        # agent crashing with EDGE_MIGRATE traffic in flight was never
        # suspected, and the migration-quiescence poll deadlocked on an
        # ack the victim could no longer send.  A detached endpoint is a
        # dead process (the connection refuses), quiet phase or not.
        quiet = lead.recovering or controller.phase == "apply_only"
        for agent_id in sorted(self.state.agents):
            entry = lead.leases.get(agent_id)
            alive = self.network.is_attached(self.state.agents[agent_id])
            if entry is None or (quiet and alive):
                if lead.is_live(agent_id):
                    lead.move_lease(agent_id, "live", now)
                continue
            status, since = entry
            if now - since <= self.config.lease_timeout:
                continue
            # A lapsed lease is suspected; a verdict pending at the
            # master for a full lease (master crash/restart window) is
            # asked for again.
            self._suspect(agent_id, now - since, resend=status == "suspected")
        self._lease_pending = True
        self.kernel.schedule(self.config.lease_timeout / 2.0, self._lease_tick)

    def _suspect(self, agent_id: int, overdue: float, resend: bool = False) -> None:
        if self.master_address is None:
            return  # nobody to arbitrate; keep waiting
        self.lead_state.move_lease(agent_id, "suspected", self.now)
        self._trace("suspect", "failure", agent_id=agent_id, overdue=overdue, resend=resend)
        if not resend:
            self.perf.add("lease_expirations")
            interval = self.config.heartbeat_interval
            self.perf.add(
                "heartbeats_missed", max(1, int(overdue / interval)) if interval > 0 else 1
            )
        self.push.push(
            self.master_address,
            PacketType.AGENT_SUSPECT,
            {"agent_id": agent_id, "address": self.state.agents.get(agent_id, -1)},
        )

    def suspected_agents(self) -> Dict[int, float]:
        """The lead's record of members under arbitration: agent id ->
        when the master was last asked for a verdict."""
        leases = self._lead("agent suspicion").leases
        return {a: since for a, (status, since) in leases.items() if status == "suspected"}

    def _lead_evict_confirm(self, message: Message) -> None:
        self.confirm_eviction(message.payload)

    def confirm_eviction(self, payload: dict) -> None:
        """The master's verdict on a suspected agent (lead only)."""
        lead = self._lead("eviction")
        agent_id = int(payload["agent_id"])
        if not payload.get("evict"):
            # False suspicion (slow but alive): the lease runs again.
            lead.move_lease(agent_id, "live", self.now)
            return
        if agent_id not in self.state.agents:
            lead.leases.pop(agent_id, None)
            return  # duplicate confirmation; already evicted
        self._trace("evict", "failure", agent_id=agent_id)
        agents = dict(self.state.agents)
        agents.pop(agent_id)
        lead.weights.pop(agent_id, None)
        if agent_id in lead.leases:  # leases exist only while a run is live
            lead.move_lease(agent_id, "evicted", self.now)
        self.metric_store.pop(agent_id, None)
        # Hold the barrier shut *before* anything else: the eviction
        # shrinks membership, and a stale READY bucket must not
        # auto-complete against the smaller set.
        lead.hold_barrier()
        self._publish(agents, membership=True)
        if self.run_controller is not None:
            self.run_controller.on_evicted(agent_id)

    def broadcast_recover(self, payload: dict) -> None:
        """Broadcast a RECOVER directive to every agent (lead only)."""
        self._lead("recovery")
        self._trace(
            "recover_broadcast",
            "recovery",
            mode=payload.get("mode"),
            step=payload.get("step"),
            incarnation=payload.get("incarnation"),
        )
        # Rollback rewinds every agent's serving tag to the checkpoint
        # step; restart drops views entirely.  Either way, cached
        # replies from the pre-recovery snapshot must stop serving.
        self.note_results_changed(self.tail.active_program)
        self._control_broadcast(PacketType.RECOVER, payload)
