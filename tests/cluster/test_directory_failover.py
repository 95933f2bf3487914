"""Control-plane fault tolerance units: master softness, elections, fencing.

The chaos suite (``tests/chaos/test_ctrlplane_chaos.py``) holds the
end-to-end bit-identical claims; this file pins the mechanisms one at a
time — the DirectoryMaster's retry-after and cursor discipline, registry
reconstruction after a master restart, the deterministic lowest-index
election, and the term fence every participant applies to control
traffic.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.cluster.directory import DirectoryState
from repro.cluster.participant import MASTER_QUERY_RETRIES, MASTER_QUERY_TIMEOUT, Participant
from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph
from repro.net.message import Message, PacketType
from repro.net.sockets import ReqRepSocket
from repro.sim.entity import Entity
from repro.sketch import CountMinSketch

pytestmark = [pytest.mark.ctrlplane]

FAILOVER = dict(n_directories=3, dir_lease_interval=2e-3, dir_lease_timeout=6e-3)

# Engine runs additionally need the agent failure detector: agents homed
# to the dead lead discover the succession through the heartbeat-tick
# liveness probe, so elections without heartbeats strand them.
ENGINE_FAILOVER = dict(
    FAILOVER, heartbeat_interval=0.005, lease_timeout=0.025, checkpoint_every=2
)


def make_cluster(**kw):
    defaults = dict(nodes=2, agents_per_node=2, seed=1)
    defaults.update(kw)
    return ElGACluster(ClusterConfig(**defaults))


class Probe(Entity):
    """Bare REQ endpoint for talking to the master from a test."""

    def __init__(self, network):
        super().__init__(network, "probe", 0)
        self.req = ReqRepSocket(self)
        self.replies = []

    def handle_message(self, message: Message) -> None:
        self.req.handle_reply(message)

    def query(self, master_address: int):
        self.req.request(
            master_address,
            PacketType.DIRECTORY_QUERY,
            on_reply=lambda m: self.replies.append(m.payload),
        )


# ---------------------------------------------------------------------------
# DirectoryMaster: soft registry, retry-after, cursor clamp
# ---------------------------------------------------------------------------


def test_master_empty_registry_replies_retry_after():
    """DIRECTORY_QUERY against an empty registry must not raise — it
    answers with a retry hint so the requester backs off and re-asks."""
    c = make_cluster()
    c.master._directories = []
    probe = Probe(c.network)
    probe.query(c.master.address)
    c.settle()
    assert probe.replies == [{"retry_after": c.master.retry_after}]


def test_master_skips_dead_directories():
    """A registered-but-detached directory is never handed out."""
    c = make_cluster(**FAILOVER)
    c.crash_directory(2)
    probe = Probe(c.network)
    live = {c.directories[0].address, c.directories[1].address}
    for _ in range(4):
        probe.query(c.master.address)
        c.settle()
    assert set(probe.replies) <= live
    assert set(probe.replies) == live  # still round-robins the survivors


def test_master_restart_rewires_and_rebuilds_from_registration():
    """A restarted master starts with an *empty* registry at a new
    endpoint; the cluster rewires the well-known address everywhere and
    the registry rebuilds purely from DIRECTORY_REGISTER traffic."""
    c = make_cluster(**FAILOVER)
    old_address = c.master.address
    c.crash_master()
    c.restart_master()
    assert c.master.address != old_address
    assert c.master._directories == []
    for d in c.directories:
        assert d.master_address == c.master.address
    for agent in c.agents.values():
        assert agent.master_address == c.master.address
    # One heartbeat per directory rebuilds the full registry.
    for d in c.directories:
        register = Message(
            ptype=PacketType.DIRECTORY_REGISTER,
            payload={"index": d.index, "address": d.address},
        )
        register.src = d.address
        register.dst = c.master.address
        c.network.send(register)
    c.settle()
    assert set(c.master._directories) == {d.address for d in c.directories}
    log = [e["event"] for e in c.recovery_log]
    assert log == ["master_crash", "master_restart"]


def test_register_is_idempotent():
    c = make_cluster(**FAILOVER)
    before = list(c.master._directories)
    c.master.register_directory(before[0])
    assert c.master._directories == before


class SilentMaster(Entity):
    """Swallows every DIRECTORY_QUERY, noting when it arrived."""

    def __init__(self, network):
        super().__init__(network, "silent-master", 0)
        self.asked_at = []

    def handle_message(self, message: Message) -> None:
        self.asked_at.append(self.now)


def test_rehome_backs_off_request_timeout_and_retry_delay_alike():
    """Against a master that never answers, attempt k waits
    timeout·2^k for the reply and then timeout·2^(k+1) before asking
    again (agents and proxies share this one machine), gives up after
    the retry budget, and a later trigger starts a fresh cycle."""
    c = make_cluster()
    master = SilentMaster(c.network)
    homeless = Participant(
        c.network, "homeless", c.config, 0, c.directories[0].address, master.address
    )
    homeless._maybe_rehome()
    c.settle()
    assert len(master.asked_at) == MASTER_QUERY_RETRIES + 1
    assert not homeless._rehome_pending
    gaps = [b - a for a, b in zip(master.asked_at, master.asked_at[1:])]
    assert gaps[:4] == pytest.approx([3 * MASTER_QUERY_TIMEOUT * 2**k for k in range(4)])
    assert max(gaps) == pytest.approx(0.2)  # both waits capped at 0.1 s
    homeless._maybe_rehome()
    assert homeless._rehome_pending


# ---------------------------------------------------------------------------
# Election: deterministic lowest-index succession under a bumped term
# ---------------------------------------------------------------------------


def test_lead_crash_mid_run_elects_lowest_index_survivor():
    elga = ElGA(nodes=2, agents_per_node=2, seed=3, **ENGINE_FAILOVER)
    us, vs, _ = powerlaw_graph(60, 240, alpha=2.2, seed=7)
    elga.ingest_edges(us, vs)
    result = elga.run(PageRank(max_iters=10), crash_plan={3: {"lead": True}})
    assert result.steps == 10
    cluster = elga.cluster
    assert cluster.lead.index == 1
    assert cluster.lead.term == 1
    assert cluster.lead.is_lead
    assert cluster.directories[0].crashed
    assert not cluster.network.is_attached(cluster.directories[0].address)
    elected = [e for e in cluster.recovery_log if e["event"] == "lead_elected"]
    assert [(e["index"], e["term"]) for e in elected] == [(1, 1)]
    # The successor answers further control-plane duty: a second run
    # completes under its term without another election.
    second = elga.run(PageRank(max_iters=5))
    assert second.steps == 5
    assert cluster.lead.term == 1


def _gap_engine(us, vs, crash):
    """Ingest, run, (lose the lead between runs,) ingest the rest."""
    elga = ElGA(nodes=2, agents_per_node=2, seed=1, **ENGINE_FAILOVER)
    elga.ingest_edges(us[:1200], vs[:1200])
    elga.run(WCC())
    if crash:
        elga.cluster.crash_directory()
        elga.cluster.settle()
    elga.ingest_edges(us[1200:], vs[1200:])
    return elga


def test_lead_lost_between_runs_is_succeeded_by_the_next_operation():
    """No timer watches an idle lead.  The first operation that needs it
    — here the ingest's batch-clock tick and sketch flush — elects the
    successor, orphaned agents re-home before they flush, and nothing
    ingested in the gap is lost: the sketch, and everything the next
    run computes from it, equals a cluster that never crashed."""
    us, vs, _ = powerlaw_graph(300, 1500, seed=3)
    twin, elga = _gap_engine(us, vs, crash=False), _gap_engine(us, vs, crash=True)
    cluster = elga.cluster
    lead = cluster.lead
    assert cluster.network.is_attached(lead.address) and not lead.crashed
    assert (lead.index, lead.term) == (1, 1)
    assert np.array_equal(lead.state.sketch.table, twin.cluster.lead.state.sketch.table)
    assert cluster.network.stats.drops_detached == 0
    assert all(
        cluster.network.is_attached(agent.directory_address)
        for agent in cluster.agents.values()
    )
    assert elga.run(WCC()).values == twin.run(WCC()).values
    assert cluster.lead.term == 1  # no second election


def test_an_elected_lead_merges_into_its_own_sketch():
    """A successor's state is the one the dead lead broadcast, adopted
    by every agent and mirrored by the other replica.  The deltas it
    merges after the election must go into a sketch of its own: a
    published state never changes under the fence it was adopted at."""
    us, vs, _ = powerlaw_graph(300, 1500, seed=3)
    elga = ElGA(nodes=2, agents_per_node=2, seed=1, **ENGINE_FAILOVER)
    cluster = elga.cluster
    elga.ingest_edges(us[:1200], vs[:1200])
    cluster.crash_directory()
    cluster.settle()
    held = [agent.dstate for agent in cluster.agents.values()]
    held += [d.state for d in cluster.directories if not d.crashed]
    pictures = [(state.fence, state.sketch.table.copy(), state.sketch.total) for state in held]
    elga.ingest_edges(us[1200:], vs[1200:])
    lead = cluster.lead
    assert (lead.index, lead.term) == (1, 1)
    assert lead.state.sketch.total > max(total for _, _, total in pictures)
    for state, (fence, table, total) in zip(held, pictures):
        assert state.fence == fence
        assert state.sketch.total == total
        assert np.array_equal(state.sketch.table, table)


def test_run_right_after_a_lead_crash_reaches_every_agent():
    """No ingest in the gap, so nothing flushed: the run start itself
    re-homes the agents the dead directory orphaned — a RUN_START they
    cannot hear would hold the barrier forever."""
    elga = ElGA(nodes=2, agents_per_node=2, seed=3, **ENGINE_FAILOVER)
    us, vs, _ = powerlaw_graph(60, 240, alpha=2.2, seed=7)
    elga.ingest_edges(us, vs)
    expected = elga.run(PageRank(max_iters=6)).values
    elga.cluster.crash_directory()
    assert elga.run(PageRank(max_iters=6)).values == expected
    assert elga.cluster.lead.term == 1
    # Async runs arm no lease or election chain they could never end.
    elga.cluster.crash_directory()
    assert elga.run(WCC(), mode="async").steps is None
    assert elga.cluster.lead.term == 2


def test_dead_lead_fails_loudly_instead_of_acting():
    """A crashed directory the caller still holds refuses every
    lead-only entry point, and with failover off — no successor can
    exist — the orchestrator is told so rather than handed the corpse."""
    c = make_cluster(n_directories=2)
    dead = c.lead
    c.crash_directory()
    for call in (
        dead.advance_batch_clock,
        lambda: dead.send_run_start(None),
        lambda: dead.send_advance({"phase": "step"}),
        lambda: dead.adopt_rebalance({0: 2.0}),
        lambda: dead.broadcast_recover({}),
        lambda: dead.note_results_changed("pagerank"),
    ):
        with pytest.raises(RuntimeError):
            call()
    assert not c.consistent()
    with pytest.raises(RuntimeError, match="failover is off"):
        c.lead


def test_ingest_survives_streamer_homed_on_dead_directory():
    """A streamer subscribed to the crashed lead never hears another
    broadcast; after the membership moves on, its view routes to
    departed agents.  Ingest sends it to the master for a live
    directory instead of streaming through the stale view."""
    elga = ElGA(nodes=2, agents_per_node=2, seed=3, **dict(ENGINE_FAILOVER, n_directories=2))
    us, vs, _ = powerlaw_graph(60, 240, alpha=2.2, seed=7)
    elga.ingest_edges(us[:120], vs[:120])
    cluster = elga.cluster
    stale = cluster.streamers[0]
    assert stale.directory_address == cluster.directories[0].address
    elga.run(PageRank(max_iters=10), crash_plan={1: {"lead": True}})
    assert not cluster.network.is_attached(stale.directory_address)
    elga.scale_to(6)
    elga.scale_to(3)
    misses = stale.perf.counts["placement_cache_misses"]
    assert misses > 0
    report = elga.ingest_edges(us[120:], vs[120:])
    assert report["edges"] == len(us) - 120
    assert elga.validate_against_reference()
    # The same streamer, re-homed: its id, counters and endpoint stand.
    assert cluster.streamers == [stale]
    assert cluster.network.is_attached(stale.address)
    assert stale.directory_address == cluster.lead.address
    assert stale.dstate.fence == cluster.lead.state.fence
    assert stale.perf.counts["placement_cache_misses"] > misses


def test_lead_crash_requires_failover_config():
    """Scheduling a lead crash without a lease cadence (or a peer to
    succeed) is a configuration error, not a hang."""
    elga = ElGA(nodes=2, agents_per_node=2, seed=3)
    us, vs, _ = powerlaw_graph(40, 120, alpha=2.2, seed=7)
    elga.ingest_edges(us, vs)
    with pytest.raises(ValueError):
        elga.run(PageRank(max_iters=5), crash_plan={2: {"lead": True}})


def test_crash_refuses_last_live_directory():
    c = make_cluster()
    with pytest.raises(RuntimeError):
        c.crash_directory()


# ---------------------------------------------------------------------------
# Term fencing
# ---------------------------------------------------------------------------


def _stale_update(state: DirectoryState, term: int) -> Message:
    payload = DirectoryState(
        version=state.version + 100,
        batch_id=state.batch_id,
        agents=dict(state.agents),
        sketch=state.sketch,
        split_vertices=state.split_vertices,
        weights=dict(state.weights),
        epoch=state.epoch,
        term=term,
    )
    return Message(ptype=PacketType.DIRECTORY_UPDATE, payload=payload, term=term)


def test_agent_drops_stale_term_control_traffic():
    c = make_cluster(**FAILOVER)
    agent = c.agents[0]
    agent.term = 2
    before_version = agent.dstate.version
    drops = c.totals()["stale_term_drops"]
    agent.handle_message(_stale_update(agent.dstate, term=1))
    assert c.totals()["stale_term_drops"] == drops + 1
    assert agent.dstate.version == before_version
    assert agent.term == 2


def test_client_drops_stale_term_control_traffic():
    c = make_cluster(**FAILOVER)
    client = c.new_client()
    client.term = 2
    drops = c.totals()["stale_term_drops"]
    client.handle_message(_stale_update(c.lead.state, term=1))
    assert c.totals()["stale_term_drops"] == drops + 1
    assert client.term == 2


def test_fence_orders_term_before_version():
    """A fresh lead's first broadcast may carry a *lower* raw version
    than the dead lead's last one; the higher term must still win."""
    sketch = CountMinSketch(16, 2, seed=0)
    old = DirectoryState(
        version=99, batch_id=0, agents={}, sketch=sketch,
        split_vertices=frozenset(), epoch=(0, 3, 0, 0), term=0,
    )
    new = DirectoryState(
        version=2, batch_id=0, agents={}, sketch=sketch,
        split_vertices=frozenset(), epoch=(1, 3, 0, 0), term=1,
    )
    assert new.fence > old.fence
    assert old.fence < new.fence


def test_agent_adopts_higher_term_update():
    c = make_cluster(**FAILOVER)
    agent = c.agents[0]
    assert agent.term == 0
    bumped = _stale_update(agent.dstate, term=3)
    agent.handle_message(bumped)
    assert agent.term == 3
    assert agent.dstate.version == bumped.payload.version
