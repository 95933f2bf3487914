"""Cluster orchestration: wiring, ingest, and elastic scaling.

:class:`ElGACluster` plays the role of the paper's launch scripts
(pdsh + numactl in the artifact appendix): it builds the simulator,
starts the directory system, brings up Agents across nodes, and offers
the operator-level actions — add/remove Agents, ingest streams, settle
the system.  Algorithm execution lives one level up, in
:class:`repro.core.engine.ElGA`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.counters import PerfCounters, aggregate_counters
from repro.cluster.agent import Agent
from repro.cluster.client import ClientProxy
from repro.cluster.config import ClusterConfig
from repro.cluster.directory import Directory, DirectoryMaster
from repro.cluster.recovery import RecoveryStore
from repro.cluster.streamer import Streamer
from repro.graph.stream import EdgeBatch
from repro.net.network import Network
from repro.obs.trace import Tracer
from repro.sim.kernel import SimKernel
from repro.sim.random import entity_rng


class ElGACluster:
    """A running (simulated) ElGA deployment.

    Parameters
    ----------
    config:
        Shared cluster configuration; ``config.total_agents`` Agents
        come up across ``config.nodes`` nodes.

    Examples
    --------
    >>> cluster = ElGACluster(ClusterConfig(nodes=2, agents_per_node=2))
    >>> len(cluster.agents)
    4
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.kernel = SimKernel()
        self.network = Network(
            self.kernel,
            transport=config.transport,
            reliable=config.reliable_transport,
            max_retries=config.max_retries,
        )
        if config.tracing:
            self.network.tracer = Tracer(self.kernel)
        # The counter registry of every entity this cluster ever
        # created, kept past the entity's departure or crash: a total
        # is a plain sum over it (:meth:`totals`).
        self.registries: List[PerfCounters] = []
        self.master = self._keep(DirectoryMaster(self.network, seed=config.seed))
        self.directories: List[Directory] = []
        for i in range(config.n_directories):
            directory = self._keep(Directory(self.network, config, i))
            self.directories.append(directory)
            self.master.register_directory(directory.address)
        lead = self.directories[0]
        lead.peers = [d.address for d in self.directories[1:]]
        for d in self.directories[1:]:
            d.peers = [lead.address]
        addresses = {d.index: d.address for d in self.directories}
        for d in self.directories:
            d.master_address = self.master.address
            d.directory_addresses = dict(addresses)
            d.on_lead_change = self._on_lead_change
        # Control-plane failover: which directory currently holds the
        # lead term, plus the run controller to re-install on a successor.
        self._lead_index = 0
        self._run_controller_ref = None

        self.agents: Dict[int, Agent] = {}
        self._departing: List[Agent] = []
        self._next_agent_id = 0
        self._next_streamer_id = 0
        self._next_client_id = 0
        self.streamers: List[Streamer] = []
        self.clients: List[ClientProxy] = []
        self._scale_rng = entity_rng(config.seed, "cluster-scaler")
        # Crash tolerance: the durable side-channel every agent
        # checkpoints into, the crashed-agent parking lot, the recovery
        # incarnation counter (fences pre-crash data traffic), and a
        # deterministic trace of crash/recovery decisions.
        self.recovery = RecoveryStore()
        self._crashed: Dict[int, Agent] = {}
        self._incarnation = 0
        self._crash_rng = entity_rng(config.seed, "cluster-crasher")
        self.recovery_log: List[dict] = []

        for i in range(config.total_agents):
            self.add_agent(node=i // config.agents_per_node, settle=False)
        self.settle()

    def _keep(self, entity):
        self.registries.append(entity.perf)
        return entity

    def totals(self) -> Dict[str, int]:
        """Every counter summed over every entity this cluster ever
        created: monotone across departures and crashes."""
        return aggregate_counters(self.registries).snapshot()

    # ------------------------------------------------------------------
    # membership / elasticity
    # ------------------------------------------------------------------

    @property
    def lead(self) -> Directory:
        """The directory currently holding the lead term.

        Index 0 at bootstrap; repointed by :meth:`_on_lead_change` when
        an election promotes a successor.  Engine code must read this
        property at each use rather than capturing it — the lead can
        change between any two kernel events.

        Never a dead process: the lease timers only watch a lead while
        a run is live, so when the lead died between runs this read is
        the operation that pays for the succession (the lowest-index
        live directory takes the term, and the election callback
        repoints the index).  With failover off there is no successor,
        and mid-run the election belongs to the timers (the run
        controller's waits hold on :meth:`consistent` until it lands):
        both raise.
        """
        lead = self.directories[self._lead_index]
        if not self.network.is_attached(lead.address):
            successor = self.directory_for(0)
            successor.succeed_lost_lead()
            if not successor.is_lead:
                raise RuntimeError(
                    f"{lead.name} is dead and {successor.name} cannot take over "
                    "(failover is off, or a mid-run election is pending)"
                )
            lead = self.directories[self._lead_index]
        return lead

    def directory_for(self, index: int) -> Directory:
        """Deterministic home-directory assignment, skipping dead ones
        (a participant created mid-failover must not be homed on a
        detached endpoint it has no lease machinery to escape)."""
        live = [d for d in self.directories if self.network.is_attached(d.address)]
        if not live:
            raise RuntimeError("no live directories")
        return live[index % len(live)]

    def _on_lead_change(self, directory: Directory) -> None:
        """Election callback: repoint ``lead`` and re-install the run
        controller."""
        self._lead_index = directory.index
        directory.run_controller = self._run_controller_ref
        self.recovery_log.append(
            {
                "event": "lead_elected",
                "index": directory.index,
                "term": directory.term,
                "time": round(self.kernel.now, 9),
            }
        )

    def install_run_controller(self, controller) -> None:
        """Install a sync run's controller on the current lead, which
        hands it every completed barrier and every eviction.

        The cluster keeps the reference so an elected successor gets it
        re-installed before any barrier can complete under its term."""
        self._run_controller_ref = controller
        self.lead.run_controller = controller

    def uninstall_run_controller(self) -> None:
        self.install_run_controller(None)

    def crash_directory(self, index: Optional[int] = None) -> int:
        """Abruptly kill one Directory (default: the current lead).

        The endpoint vanishes mid-flight exactly like a crashed agent's.
        Recovery is protocol-driven: peers detect the lease lapse, the
        lowest-index live directory succeeds under a bumped term, and
        participants re-home via the master.
        """
        live = [d for d in self.directories if self.network.is_attached(d.address)]
        if len(live) <= 1:
            raise RuntimeError("refusing to crash the last live directory")
        if index is None:
            index = self._lead_index
        directory = self.directories[index]
        if not self.network.is_attached(directory.address):
            raise RuntimeError(f"directory {index} is already dead")
        directory.crashed = True
        self.network.detach_abrupt(directory.address)
        self.recovery_log.append(
            {
                "event": "directory_crash",
                "index": index,
                "term": directory.term,
                "lead": index == self._lead_index,
                "time": round(self.kernel.now, 9),
            }
        )
        return index

    def rehome_orphans(self, settle: bool = False) -> bool:
        """Send every agent whose home directory died to the master for
        a live one; returns whether any had to go, and with ``settle``
        waits until they have.

        An agent notices a dead home by itself only from a heartbeat
        tick or a sketch flush.  Between runs, and while a run is
        suspended, it has neither — and a broadcast it cannot hear
        (RUN_START, the resume) would wait on it forever, a membership
        or weight change would leave it routing by the old ring (a
        leaver's migration ping-pongs with it for good).  The operations
        that need every agent listening — a run start, each of those
        changes — pay the re-home, as :meth:`ingest` does for streamers
        and ``ClientProxy.query`` for proxies.
        """
        # A list, not a generator: every orphan is sent, not just the first.
        orphans = any([agent.home_lost() for agent in sorted_agents(self.agents)])
        if orphans and settle:
            self.settle()
        return orphans

    def crash_master(self) -> None:
        """Abruptly kill the DirectoryMaster (bootstrap + eviction
        arbiter).  Directories keep running; suspicion verdicts and
        re-homing queries stall until :meth:`restart_master`."""
        self.network.detach_abrupt(self.master.address)
        self.recovery_log.append(
            {"event": "master_crash", "time": round(self.kernel.now, 9)}
        )

    def restart_master(self) -> None:
        """Bring up a fresh DirectoryMaster at a new endpoint.

        Its registry starts *empty* and rebuilds purely from the
        directories' periodic DIRECTORY_REGISTER heartbeats — the
        well-known endpoint is rewired into every participant (the
        operator updating a service address), but no registry state is
        handed over.
        """
        self.master = self._keep(DirectoryMaster(self.network, seed=self.config.seed))
        for d in self.directories:
            d.master_address = self.master.address
        for participant in [*self.agents.values(), *self.streamers, *self.clients]:
            participant.master_address = self.master.address
        self.recovery_log.append(
            {"event": "master_restart", "time": round(self.kernel.now, 9)}
        )

    def add_agent(
        self,
        node: Optional[int] = None,
        settle: bool = True,
        weight: float = 1.0,
        recover_from: Optional[int] = None,
        restore_checkpoint: Optional[tuple] = None,
        agent_id: Optional[int] = None,
    ) -> Agent:
        """Bring up one new Agent (elastic scale-up).

        ``weight`` is the heterogeneous-capacity extension (§3.4.2
        future work): a weight-w agent contributes w× the virtual ring
        positions and therefore claims roughly w× the edges.
        ``recover_from`` makes the new agent a *replacement*: it
        restores the named crashed agent's durable checkpoint (rolled
        back to ``restore_checkpoint`` when given) and replays its WAL
        suffix before joining.  ``agent_id`` pins the identity instead
        of allocating a fresh one — a replacement reuses its victim's
        id so it inherits the same ring positions (fabric addresses are
        never reused; the id is a placement identity, not an endpoint).
        """
        if agent_id is None:
            agent_id = self._next_agent_id
            self._next_agent_id += 1
        elif agent_id in self.agents:
            raise ValueError(f"agent id {agent_id} is already a live member")
        else:
            self._next_agent_id = max(self._next_agent_id, agent_id + 1)
        if node is None:
            node = agent_id // self.config.agents_per_node
        self.rehome_orphans(settle)
        directory = self.directory_for(agent_id)
        agent = self._keep(Agent(
            self.network,
            self.config,
            agent_id,
            node,
            directory.address,
            weight=weight,
            recovery=self.recovery,
            recover_from=recover_from,
            restore_checkpoint=restore_checkpoint,
            incarnation=self._incarnation,
            master_address=self.master.address,
        ))
        self.agents[agent_id] = agent
        if settle:
            self.settle()
        return agent

    def remove_agent(self, agent_id: int, settle: bool = True) -> None:
        """Gracefully remove one Agent (elastic scale-down).

        The agent stays on the departing list until its status is
        ``detached`` — :meth:`consistent` must keep counting its
        in-flight migration traffic even though it is no longer a
        member (a chaos-delayed migrate batch from a departing agent
        must not race a mid-run resume)."""
        self.rehome_orphans(settle)
        agent = self.agents.pop(agent_id)
        self._departing.append(agent)
        agent.initiate_leave()
        if settle:
            self.settle()

    def departing_agents(self) -> List[Agent]:
        """Graceful leavers not yet detached (waiting to be unlisted,
        draining, or in their grace period)."""
        self._departing = [agent for agent in self._departing if agent.status != "detached"]
        return self._departing

    def crash_agent(self, agent_id: Optional[int] = None) -> int:
        """Abruptly kill one Agent (no drain, no goodbye — §fault model).

        The victim's endpoint vanishes from the fabric mid-flight:
        pending retransmissions from it are cancelled, messages to it
        are abandoned by the reliable transport, and nothing it held
        in memory survives.  Recovery is driven by the failure detector
        (heartbeat leases) and the durable checkpoint/WAL side-channel.

        Picks a seeded-random victim when ``agent_id`` is None; returns
        the crashed agent's id.
        """
        if not self.agents:
            raise RuntimeError("no live agents to crash")
        if agent_id is None:
            agent_id = int(self._crash_rng.choice(sorted(self.agents)))
        agent = self.agents.pop(agent_id)
        agent.crashed = True
        self.network.detach_abrupt(agent.address)
        self._crashed[agent_id] = agent
        self.recovery_log.append(
            {"event": "crash", "agent_id": agent_id, "time": round(self.kernel.now, 9)}
        )
        return agent_id

    def replace_crashed_agent(
        self,
        crashed_id: int,
        run_id: Optional[int] = None,
        step: Optional[int] = None,
    ) -> Agent:
        """Bring up a replacement for a crashed Agent.

        The replacement restores the victim's durable state (latest
        checkpoint + WAL replay; rolled back to the ``(run_id, step)``
        value checkpoint when given) and rejoins the directory under
        the *victim's own agent id* (with a fresh fabric address).
        Reusing the id keeps the consistent-hash ring — and therefore
        the edge partition — bit-identical to the pre-crash placement:
        the restored edges are exactly the edges it owns, no
        re-homing migration runs, and the data plane's canonical
        reductions regroup identically to a never-crashed cluster.
        The durable slot carries over with the id (the replacement
        re-snapshots into it after the restore), so it is *not*
        forgotten here.
        """
        crashed = self._crashed.pop(crashed_id, None)
        node = crashed.node if crashed is not None else None
        weight = crashed.weight if crashed is not None else 1.0
        restore = (run_id, step) if run_id is not None and step is not None else None
        agent = self.add_agent(
            node=node,
            settle=False,
            weight=weight,
            recover_from=crashed_id,
            restore_checkpoint=restore,
            agent_id=crashed_id,
        )
        self.recovery_log.append(
            {
                "event": "replace",
                "crashed": crashed_id,
                "replacement": agent.agent_id,
                "restored_step": step,
                "wal_replayed": agent.perf.counts["wal_records_replayed"],
                "edges_restored": agent.total_edges,
            }
        )
        return agent

    def bump_incarnation(self) -> int:
        """Advance the recovery incarnation (fences stale data traffic)."""
        self._incarnation += 1
        return self._incarnation

    def scale_to(self, n_agents: int, settle: bool = True) -> None:
        """Scale the cluster up or down to ``n_agents`` total Agents.

        Scale-down removes uniformly random Agents (Figure 16 removes
        "a random one"); scale-up packs new Agents onto nodes at the
        configured per-node density.
        """
        if n_agents < 1:
            raise ValueError(f"cannot scale below one agent, got {n_agents}")
        self.rehome_orphans(settle)
        while len(self.agents) < n_agents:
            self.add_agent(settle=False)
        while len(self.agents) > n_agents:
            victim = int(self._scale_rng.choice(sorted(self.agents)))
            self.remove_agent(victim, settle=False)
        if settle:
            self.settle()

    def rebalance(self, weights: Dict[int, float], settle: bool = True) -> None:
        """Adopt a ring re-weight plan (load-adaptive repartitioning).

        The lead directory adopts the plan exactly like a membership
        change — term-fenced, epoch-bumping, broadcast at once — and
        every agent that observes the new weights re-homes its
        misplaced edges over the existing EDGE_MIGRATE path.  With
        ``settle`` the call returns only once migration traffic has
        drained; pass ``settle=False`` mid-run and poll
        :meth:`consistent` instead (the run controller's reshape does).
        """
        self.rehome_orphans(settle)
        self.lead.adopt_rebalance(weights)
        if settle:
            self.settle()

    def current_weights(self) -> Dict[int, float]:
        """Ring weight per live agent (1.0 unless re-weighted)."""
        weights = self.lead.state.weights
        return {aid: float(weights.get(aid, 1.0)) for aid in sorted(self.agents)}

    def settle(self, max_events: int = 50_000_000) -> None:
        """Run the simulator until the system is quiescent."""
        self.kernel.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------------
    # streaming ingest
    # ------------------------------------------------------------------

    def new_streamer(self, node: int = 0) -> Streamer:
        streamer = self._keep(Streamer(
            self.network,
            self.config,
            self._next_streamer_id,
            node,
            self.directory_for(self._next_streamer_id).address,
            master_address=self.master.address,
        ))
        self._next_streamer_id += 1
        self.streamers.append(streamer)
        self.settle()  # pick up the current directory state
        return streamer

    def new_client(self, node: int = 0) -> ClientProxy:
        client = self._keep(ClientProxy(
            self.network,
            self.config,
            self._next_client_id,
            node,
            self.directory_for(self._next_client_id).address,
            master_address=self.master.address,
        ))
        self._next_client_id += 1
        self.clients.append(client)
        self.settle()
        return client

    def ingest(self, batch: EdgeBatch, n_streamers: int = 1) -> Dict[str, float]:
        """Stream a change batch into the cluster and wait for full
        acknowledgement.

        Returns timing/throughput figures in *simulated* time — the
        quantities Figure 14 reports.
        """
        # A streamer has no timer to notice a dead home directory from,
        # and one that never hears another broadcast routes by a view
        # that only gets staler: ingest is its re-home trigger.
        if any([streamer.home_lost() for streamer in self.streamers]):
            self.settle()
        while len(self.streamers) < n_streamers:
            self.new_streamer(node=len(self.streamers) % max(self.config.nodes, 1))
        parts = batch.split(n_streamers)
        start = self.kernel.now
        done_at: List[float] = []
        for streamer, part in zip(self.streamers[:n_streamers], parts):
            streamer.stream_batch(part, on_complete=done_at.append)
        self.settle()
        if len(done_at) != n_streamers:
            raise RuntimeError(
                f"ingest incomplete: {len(done_at)}/{n_streamers} streamers finished"
            )
        elapsed = max(done_at) - start if done_at else 0.0
        tracer = self.network.tracer
        if tracer is not None:
            tracer.complete(
                "cluster",
                "ingest",
                "run",
                start,
                self.kernel.now,
                {"edges": len(batch), "streamers": n_streamers},
            )
        return {
            "edges": float(len(batch)),
            "sim_seconds": elapsed,
            "edges_per_second": len(batch) / elapsed if elapsed > 0 else float("inf"),
        }

    def flush_sketches(self) -> None:
        """Force all agents' degree deltas into the global sketch and
        broadcast (done before runs so placement sees fresh degrees)."""
        for agent in sorted_agents(self.agents):
            agent.flush_sketch()
        self.settle()
        # The lead batches sketch broadcasts; force one out if dirty.
        self.lead.flush_sketch_broadcast()
        self.settle()

    def collect_metrics(self) -> Dict[int, dict]:
        """Have every agent report metrics; return the directory view.

        This is the in-protocol path (§3.4.3) — metric snapshots travel
        as METRIC_REPORT messages to each agent's Directory, and the
        union of the directories' stores is returned.
        """
        for agent in sorted_agents(self.agents):
            agent.report_metrics()
        self.settle()
        merged: Dict[int, dict] = {}
        for directory in self.directories:
            merged.update(directory.metric_store)
        # Autoscaling must never size the cluster off ghosts: drop
        # snapshots from agents that are suspected, evicted, or crashed
        # (a dead agent's last report would otherwise linger in a
        # non-lead directory's store forever).
        live = set(self.agents)
        suspected = self.lead.suspected_agents()
        return {
            agent_id: snap
            for agent_id, snap in merged.items()
            if agent_id in live and agent_id not in suspected
        }

    def collect_client_metrics(self) -> Dict[str, float]:
        """Sum the serving-plane counters over every client proxy.

        Proxies are purely local entities (no METRIC_REPORT protocol
        leg), so this is a direct aggregation rather than a directory
        round-trip like :meth:`collect_metrics`.
        """
        merged: Dict[str, float] = {}
        for client in self.clients:
            for key, value in client.serving_metrics().items():
                merged[key] = merged.get(key, 0) + value
        return merged

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def edge_loads(self) -> Dict[int, int]:
        """Resident edge copies per live agent (load-balance views)."""
        return {aid: agent.total_edges for aid, agent in sorted(self.agents.items())}

    def total_resident_edges(self) -> int:
        return sum(a.total_edges for a in self.agents.values())

    def directory_version(self) -> int:
        return self.lead.state.version

    def consistent(self) -> bool:
        """Whether every live agent is a listed member, has adopted the
        latest directory state and has no migration hop outstanding.

        Departing agents count until they detach: a graceful leaver
        only disconnects once its edges have drained *and* every
        migrate hop is acknowledged, so a leaver not yet detached means
        migration traffic may still be in flight."""
        if self.departing_agents():
            return False
        lead = self.directories[self._lead_index]
        if not self.network.is_attached(lead.address):
            return False  # nothing to have adopted until a successor holds the term
        fence = lead.state.fence
        for agent in self.agents.values():
            if agent.status != "member" or agent.dstate.fence != fence or agent.ledger:
                return False
        return True


def sorted_agents(agents: Dict[int, Agent]) -> List[Agent]:
    """Agents in id order (deterministic iteration)."""
    return [agents[k] for k in sorted(agents)]
