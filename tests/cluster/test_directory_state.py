"""The Directory's state, named once — checked without a cluster where
that is possible.

* ``LeadState`` has exactly two constructors and no field default, so a
  field added without deciding what a bootstrap lead starts it at cannot
  construct, and one added without saying whether a successor reads it
  from a mirror fails here (the guard ``test_shard.py`` gives
  ``ShardState``).
* What ``from_mirror`` rebuilds from a synced peer equals what the live
  lead holds.
* A demoted lead has no lead state: its armed timers find a peer.
* An agent's lease moves only along the rows of ``LEASES``.
* The dispatch table is the directory's whole wire surface.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.cluster.directory import Directory, DirectoryState
from repro.cluster.leadstate import LEASES, ControlTail, LeadState
from repro.cluster.shard import StateSlices
from repro.core import ElGA, PageRank
from repro.core.program import RunSpec
from repro.core.superstep import SyncRunController
from repro.gen import powerlaw_graph
from repro.net.message import Message, PacketType
from repro.sketch import CountMinSketch
from tests.net.test_wire_sizes import CASES, UPDATE

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: What an elected successor starts each lead-only field at: the name of
#: the mirror it is read from, or None for "as a bootstrap lead would".
FROM_MIRROR = {
    "weights": "state",
    "membership_version": "state",
    "sketch_version": "state",
    "ready_done": "tail",
    "recovering": "tail",
    "pending_split": None,
    "sketch_dirty": None,
    "last_sketch_broadcast": None,
    "broadcast_scheduled": None,
    "ready": None,
    "leases": None,
}


def mirrored_state(**kw) -> DirectoryState:
    fields = dict(
        version=9,
        batch_id=2,
        agents={0: 10, 1: 11},
        sketch=CountMinSketch(16, 2, seed=0),
        split_vertices=frozenset({5}),
        weights={1: 2.0},
        epoch=(3, 7, 4, 1),
        term=3,
    )
    fields.update(kw)
    return DirectoryState(**fields)


def test_every_lead_field_is_decided_by_both_constructors():
    names = {f.name for f in dataclasses.fields(LeadState)}
    assert set(FROM_MIRROR) == names
    for f in dataclasses.fields(LeadState):
        # No default: a constructor that forgets the field cannot run.
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    fresh = LeadState.fresh()
    tail = ControlTail()
    tail.mirror(PacketType.SUPERSTEP_ADVANCE, {"phase": "step", "round": 6})
    tail.mirror(PacketType.RECOVER, {"mode": "rollback"})
    rebuilt = LeadState.from_mirror(mirrored_state(), tail)
    assert rebuilt.weights == {1: 2.0}
    assert (rebuilt.membership_version, rebuilt.sketch_version) == (7, 4)
    assert rebuilt.ready_done == 5
    assert rebuilt.recovering is True
    for name, source in FROM_MIRROR.items():
        if source is None:
            assert getattr(rebuilt, name) == getattr(fresh, name), name
    # Containers are the successor's own, not the mirror's or another lead's.
    assert rebuilt.weights is not mirrored_state().weights
    assert LeadState.fresh().ready is not fresh.ready


def test_from_mirror_of_a_never_synced_peer_is_a_fresh_lead():
    bootstrap = mirrored_state(weights=None, epoch=(0, 0, 0, 0))
    assert LeadState.from_mirror(bootstrap, ControlTail()) == LeadState.fresh()


def test_control_tail_tracks_run_liveness_and_completed_rounds():
    tail = ControlTail()
    sync = RunSpec(run_id=1, program=PageRank(), mode="sync")
    tail.mirror(PacketType.RUN_START, sync)
    assert (tail.run_live, tail.active_program, tail.ready_done) == (True, "pagerank", -1)
    tail.mirror(PacketType.SUPERSTEP_ADVANCE, {"phase": "step", "round": 3})
    tail.mirror(PacketType.SUPERSTEP_ADVANCE, {"phase": "step", "round": 2})  # late duplicate
    assert tail.ready_done == 2
    tail.mirror(PacketType.SUPERSTEP_ADVANCE, {"phase": "halt", "round": -1})
    assert not tail.run_live and tail.ready_done == 2
    # An async run has no halt broadcast: it must never arm the chains.
    tail.mirror(PacketType.RUN_START, RunSpec(run_id=2, program=PageRank(), mode="async"))
    assert not tail.run_live


def test_from_mirror_of_a_synced_peer_equals_the_live_lead():
    elga = ElGA(nodes=2, agents_per_node=2, seed=5, n_directories=3)
    us, vs, _ = powerlaw_graph(80, 400, alpha=2.1, seed=9)
    elga.ingest_edges(us, vs)
    elga.rebalance({0: 2.0, 3: 0.5})
    cluster, kernel = elga.cluster, elga.cluster.kernel
    spec = RunSpec(run_id=1, program=PageRank(max_iters=30), global_n=elga.global_n)
    cluster.install_run_controller(SyncRunController(spec, cluster))
    lead = cluster.lead
    lead.send_run_start(spec)
    peers = [d for d in cluster.directories if d is not lead]

    def peers_caught_up():
        done = lead.lead_state.ready_done
        return done >= 3 and all(p.tail.ready_done == done for p in peers)

    while not peers_caught_up():
        assert kernel.step(), "run ended before the barrier reached round 3"
    live = lead.lead_state
    for peer in peers:
        rebuilt = LeadState.from_mirror(peer.state, peer.tail)
        assert rebuilt.weights == live.weights == {0: 2.0, 3: 0.5}
        assert rebuilt.membership_version == live.membership_version
        assert rebuilt.sketch_version == live.sketch_version
        assert rebuilt.ready_done == live.ready_done
        assert rebuilt.recovering == live.recovering
    cluster.settle()
    cluster.uninstall_run_controller()


def make_cluster(**kw):
    defaults = dict(nodes=2, agents_per_node=2, seed=44)
    defaults.update(kw)
    return ElGACluster(ClusterConfig(**defaults))


def test_stepped_down_lead_ignores_its_armed_timers():
    c = make_cluster(n_directories=2, sketch_broadcast_interval=10.0,
                     heartbeat_interval=0.005, lease_timeout=0.025)
    old, agent = c.lead, c.agents[0]
    for _ in range(2):  # the first delta broadcasts at once, the second waits out the throttle
        agent.shard.sketch_delta.add(np.array([1]))
        agent.flush_sketch()
        c.kernel.run(until=c.kernel.now + 1.0)
    assert old.lead_state.broadcast_scheduled and old.lead_state.sketch_dirty
    old.run_controller = lambda *a: None
    old._reseed_leases()
    assert old._lease_chain.armed

    old._step_down(c.directories[1].address)
    assert old.lead_state is None and not old.is_lead
    version = old.state.version
    sent = []
    c.network.add_tap(lambda m: sent.append(m.ptype) if m.src == old.address else None)
    c.settle()  # both timers fire on a peer
    assert old.state.version == version
    assert sent == []
    assert not old._lease_chain.armed
    with pytest.raises(RuntimeError):
        old.flush_sketch_broadcast()


def _directory_bound_types():
    """Packet types ``src/`` addresses to a Directory: what participants
    push at ``directory_address``, what the lead pushes at each peer,
    what it control-broadcasts, and what the table forwards."""
    text = "\n".join(p.read_text() for p in sorted(SRC.rglob("*.py")))
    found = set()
    for pattern in (
        r"push\(\s*self\.directory_address,\s*PacketType\.(\w+)",
        r"push\(\s*peer,\s*PacketType\.(\w+)",
        r"_control_broadcast\(\s*PacketType\.(\w+)",
        r"PacketType\.(EVICT_CONFIRM),",  # the master's verdict, pushed back at the asker
    ):
        found |= {PacketType[name] for name in re.findall(pattern, text)}
    found |= {fwd for _, fwd in Directory._DISPATCH.values() if fwd is not None}
    return found


def test_dispatch_table_covers_the_wire_surface():
    bound = _directory_bound_types()
    assert len(bound) >= 15, "the scan stopped finding the directory's senders"
    assert bound <= set(Directory._DISPATCH)
    # ...and carries nothing the scan cannot account for.
    assert set(Directory._DISPATCH) == bound
    for handler, _ in Directory._DISPATCH.values():
        assert callable(handler)


def test_a_crash_walks_the_lease_table_and_an_unknown_move_raises(monkeypatch):
    """A crash recovery moves the victim's lease live -> suspected ->
    evicted; the master's "alive" verdict moves a suspected lease back to
    live; any other move is refused."""
    walked = []
    move = LeadState.move_lease

    def recording(self, agent_id, status, now):
        walked.append((self.leases.get(agent_id, ("live", now))[0], status))
        move(self, agent_id, status, now)

    monkeypatch.setattr(LeadState, "move_lease", recording)
    elga = ElGA(nodes=2, agents_per_node=2, seed=5, heartbeat_interval=0.005,
                lease_timeout=0.025, checkpoint_every=2)
    us, vs, _ = powerlaw_graph(80, 400, alpha=2.1, seed=9)
    elga.ingest_edges(us, vs)
    elga.run(PageRank(max_iters=8), crash_plan={3: {"agents": 1}})
    moves = {(a, b) for a, b in walked if a != b}
    assert moves == {("live", "suspected"), ("suspected", "evicted")}
    assert all(b in LEASES[a] for a, b in moves)

    lead = elga.cluster.lead
    member = sorted(elga.cluster.agents)[0]
    lead.lead_state.move_lease(member, "suspected", 0.0)
    assert lead.suspected_agents() == {member: 0.0}
    lead.confirm_eviction({"agent_id": member, "evict": False})
    assert lead.lead_state.leases[member][0] == "live" and not lead.suspected_agents()
    with pytest.raises(RuntimeError, match="from live to evicted"):
        lead.lead_state.move_lease(member, "evicted", 0.0)


def test_unknown_packet_type_still_raises():
    c = make_cluster()
    payloads = {PacketType[name]: payload for name, payload, _ in CASES}
    payloads[PacketType.EDGE_MIGRATE] = dict(UPDATE, state=StateSlices(), reply_to=7, token=-1)
    for ptype in set(PacketType) - set(Directory._DISPATCH):
        message = Message(ptype=ptype, payload=payloads[ptype])
        message.src, message.dst = 0, c.lead.address
        with pytest.raises(ValueError):
            c.lead.handle_message(message)
