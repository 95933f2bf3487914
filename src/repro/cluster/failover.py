"""Control-plane failover: terms, the lead lease, elections, succession.

The lead renews a ``DIR_LEASE`` to its peers while a run is live; peers
watchdog it and, when it lapses over a detached endpoint, the
lowest-index live directory takes the next **term** — the monotone
election counter that fences all directory-originated traffic (the
control-plane analogue of the data plane's incarnation numbers).
Between runs no chain is armed; the first operation that needs the dead
lead elects its successor instead (:meth:`FailoverMixin.succeed_lost_lead`).

Mixed into :class:`~repro.cluster.directory.Directory` only: every timer
here is a bound method of the directory that scheduled it.
"""

from __future__ import annotations

from repro.cluster.leadstate import LeadState
from repro.net.message import Message, PacketType


class FailoverMixin:
    """Term admission, demotion, the mirrored control tail, and the three
    run-scoped timer chains (lease renewal, election watch, master
    re-registration) of a Directory."""

    def _admit_term(self, message: Message) -> bool:
        """Fence directory-origin traffic by term; adopt newer terms.

        Returns ``False`` for stale-term messages (dropped and counted).
        A higher term on any message means a successor was elected; an
        old lead that somehow survived steps down immediately
        (split-brain safety — in the simulation a replaced lead is
        always detached, but the rule costs nothing and is load-bearing
        the moment partitions can heal).
        """
        term = message.term
        if term is None:
            return True
        if term < self.term:
            self.perf.add("stale_term_drops")
            return False
        if term > self.term:
            self.term = term
            if self.is_lead:
                self._step_down(message.src)
            elif self.peers and self.peers[0] != message.src:
                self.peers = [message.src]
        return True

    def _step_down(self, new_lead: int) -> None:
        """Demote this directory: a higher-term lead exists.  Its lead
        state goes as a whole, so an armed sketch or lease timer and any
        late lead-bound message find a peer, not stale buckets."""
        self.lead_state = None
        self.run_controller = None
        self.peers = [new_lead]
        self._trace("step_down", "control", term=self.term)

    # -- the mirrored control tail ------------------------------------------

    def _mirror_control(self, ptype: PacketType, payload) -> None:
        self.tail.mirror(ptype, payload)
        if ptype == PacketType.RUN_START:
            self._ensure_election_watch()
            self._ensure_master_register()

    def _on_lead_control(self, message: Message) -> None:
        """Lead-originated RUN_START / SUPERSTEP_ADVANCE / RECOVER,
        re-published to local subscribers.  Mirror the control tail: on
        election the successor re-sends this broadcast verbatim under
        the new term, so agents a partial delivery left behind can
        proceed."""
        self._mirror_control(message.ptype, message.payload)
        self.pubsub.publish(message.ptype, message.payload, term=message.term)

    @property
    def _failover_on(self) -> bool:
        """Directory failover requires a lease cadence and a peer."""
        return self.config.dir_lease_interval > 0 and len(self.directory_addresses) > 1

    def _run_live(self) -> bool:
        """Whether a synchronous run is live from this directory's view:
        the lead reads its controller, peers the mirrored tail."""
        if self.is_lead:
            controller = self.run_controller
            return controller is not None and not controller.done
        return self.tail.run_live

    # -- lead side: DIR_LEASE renewal -----------------------------------------

    def _ensure_dir_lease(self) -> None:
        """Arm the lead's DIR_LEASE renewal chain (idempotent)."""
        if not self.is_lead or not self._failover_on or self._dir_lease_pending:
            return
        self._dir_lease_pending = True
        self.kernel.schedule(self.config.dir_lease_interval, self._dir_lease_tick)

    def _dir_lease_tick(self) -> None:
        self._dir_lease_pending = False
        if self.crashed or not self.is_lead or not self._failover_on or not self._run_live():
            return  # chain ends with the run; send_run_start re-arms it
        # Prune peers whose endpoint is gone: broadcasts to them would
        # only churn the reliable transport's abandonment path.
        self.peers = [p for p in self.peers if self.network.is_attached(p)]
        for peer in self.peers:
            self.push.push(
                peer,
                PacketType.DIR_LEASE,
                {"term": self.term, "version": self.state.version},
                term=self.term,
            )
        self._dir_lease_pending = True
        self.kernel.schedule(self.config.dir_lease_interval, self._dir_lease_tick)

    def _on_dir_lease(self, message: Message) -> None:
        """The lead's lease renewal.  Hearing it is the renewal
        (``handle_message`` noted when); it is not acknowledged — the
        lead prunes dead peers by the attachment probe, not by ack age."""

    # -- peer side: election watch and succession -------------------------------

    def _ensure_election_watch(self) -> None:
        """Arm a peer's lead-liveness watchdog (idempotent)."""
        if self.is_lead or not self._failover_on or self._election_pending:
            return
        self._election_pending = True
        self.kernel.schedule(self.config.dir_lease_timeout / 2.0, self._election_tick)

    def _election_tick(self) -> None:
        self._election_pending = False
        if self.crashed or self.is_lead or not self._failover_on or not self.tail.run_live:
            return
        lead_addr = self.peers[0] if self.peers else None
        if lead_addr is None:
            return
        if self.now - self.tail.lead_seen > self.config.dir_lease_timeout:
            if self.network.is_attached(lead_addr):
                # Lease lapsed but the endpoint still answers the
                # liveness probe (slow lead, lossy control path): renew
                # locally rather than electing over a live lead — the
                # same arbitration idiom the master applies to agents.
                self.tail.lead_seen = self.now
            elif self._successor_address() == self.address:
                self._become_lead()
                return
            # else: a lower-index live peer will take the term; keep
            # watching in case it dies before it does.
        self._ensure_election_watch()

    def _successor_address(self) -> int:
        """Deterministic succession: lowest-index live directory wins.

        Liveness is the fabric's attachment probe, so every candidate
        evaluates the same predicate on the same state — no votes, no
        randomness, and therefore per-seed reproducible term sequences.
        """
        return next(
            address
            for idx, address in sorted(self.directory_addresses.items())
            if idx == self.index or self.network.is_attached(address)
        )

    def succeed_lost_lead(self) -> None:
        """Event-driven succession for a lead that died between runs.

        The chains above are run-scoped, so nobody watches an idle lead.
        The first operation that needs it pays instead — lead-bound
        traffic reaching a peer, or the orchestrator asking for the lead:
        if the lead's endpoint is gone, no run is live (mid-run detection
        stays with the timers) and failover is on, the same succession
        rule applies.  The successor takes the term; any other peer
        re-points at it, and the successor elects itself when the
        forwarded traffic arrives.
        """
        if (
            self.is_lead
            or not self._failover_on
            or self.tail.run_live
            or self.network.is_attached(self.peers[0])
        ):
            return
        successor = self._successor_address()
        if successor == self.address:
            self._become_lead()
        else:
            self.peers = [successor]

    def _become_lead(self) -> None:
        """Take over as lead under a bumped term.

        Mirrored state (DirectoryState, result versions, the control
        tail) carries over; the lead state is rebuilt from it
        (:meth:`LeadState.from_mirror`), and whatever the mirror could
        not see is re-driven: agents re-report READY on the term bump,
        and the re-broadcast control tail unsticks agents a
        partially-delivered broadcast left behind.
        """
        self.term += 1
        self.lead_state = LeadState.from_mirror(self.state, self.tail)
        self.perf.add("lead_elections")
        self._trace("lead_elected", "control", term=self.term, index=self.index)
        self.peers = [
            addr
            for idx, addr in sorted(self.directory_addresses.items())
            if idx != self.index and self.network.is_attached(addr)
        ]
        if self.on_lead_change is not None:
            # The cluster re-installs the run controller and repoints
            # ``cluster.lead`` before any barrier can complete.
            self.on_lead_change(self)
        self._reseed_leases()
        # Re-announce result versions past the mirror.  The dead lead
        # may have bumped further than it synced; proxies *assign* (not
        # max-merge) versions on a term bump and clear their caches, so
        # the non-monotone adoption is safe.
        if self.result_versions:
            versions = {prog: v + 1 for prog, v in self.result_versions.items()}
            self.result_versions = versions
            self._control_broadcast(PacketType.RESULT_NOTICE, {"versions": dict(versions)})
        # New-term state broadcast: re-fences every subscriber and rolls
        # the placement epoch (its leading component is the term).
        self._publish()
        # Re-drive the last control broadcast verbatim under the new
        # term: agents already past it drop the duplicate (round/run_id
        # guards), stuck agents proceed.
        if self.tail.ctrl is not None and self.tail.run_live:
            self._control_broadcast(*self.tail.ctrl)
        self._ensure_dir_lease()

    # -- master re-registration ---------------------------------------------------

    def _ensure_master_register(self) -> None:
        """Arm the periodic DIRECTORY_REGISTER heartbeat (idempotent).

        Every directory re-registers on a cadence so a restarted master
        rebuilds its registry as soft state; needs only the lease knob,
        not a peer (single-directory clusters still re-register).
        """
        if self.config.dir_lease_interval <= 0 or self._register_pending:
            return
        self._register_pending = True
        self.kernel.schedule(self.config.dir_lease_interval, self._master_register_tick)

    def _master_register_tick(self) -> None:
        self._register_pending = False
        if self.crashed or self.config.dir_lease_interval <= 0 or not self._run_live():
            return
        master = self.master_address
        if master is not None and self.network.is_attached(master):
            self.push.push(
                master,
                PacketType.DIRECTORY_REGISTER,
                {"index": self.index, "address": self.address},
            )
        self._register_pending = True
        self.kernel.schedule(self.config.dir_lease_interval, self._master_register_tick)
