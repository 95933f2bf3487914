"""Every timer chain is a declared ``Periodic`` that ends with its run.

One synchronous PageRank with all five chains on — the agents'
heartbeats, the lead's agent leases and DIR_LEASE renewal, the peer's
election watch and every directory's master registration.  Each chain
ticks while the run is live, and once the run is over none is left
armed: the simulator goes idle by itself.
"""

from collections import Counter

from repro.core import ElGA, PageRank
from repro.gen import powerlaw_graph
from repro.net.message import PacketType
from repro.sim.entity import Periodic

#: Each entity kind's chains, by attribute.
CHAINS = {
    "Agent": {"_heartbeat"},
    "Directory": {"_lease_chain", "_dir_lease", "_election", "_register"},
}


def chains_of(entity):
    return {name: v for name, v in vars(entity).items() if isinstance(v, Periodic)}


def counted(tick, ticks, name):
    def wrapper():
        ticks[name] += 1
        tick()

    return wrapper


def test_every_chain_ticks_in_a_run_and_none_outlives_it():
    us, vs, _ = powerlaw_graph(400, 4000, alpha=2.0, seed=5)
    keep = us != vs
    elga = ElGA(
        nodes=2,
        agents_per_node=2,
        seed=8,
        n_directories=2,
        heartbeat_interval=1e-4,
        lease_timeout=1e-3,
        dir_lease_interval=1e-4,
        dir_lease_timeout=4e-4,
    )
    elga.ingest_edges(us[keep], vs[keep])
    cluster = elga.cluster
    entities = [*cluster.agents.values(), *cluster.directories, cluster.master]
    ticks = Counter()
    for entity in entities:
        chains = chains_of(entity)
        assert set(chains) == CHAINS.get(type(entity).__name__, set())
        for name, chain in chains.items():
            assert not chain.armed  # ingest runs no chain
            chain.tick = counted(chain.tick, ticks, name)
    sent = Counter()
    cluster.network.add_tap(lambda m: sent.update([m.ptype]))

    result = elga.run(PageRank(max_iters=10))
    cluster.settle()

    assert result.steps > 0
    assert not cluster.kernel._has_live_events()
    for entity in entities:
        assert not any(chain.armed for chain in chains_of(entity).values())
    # Two ticks of a chain mean at least one live tick that re-armed it.
    assert all(ticks[name] >= 2 for names in CHAINS.values() for name in names), ticks
    assert cluster.totals()["heartbeats_sent"] > 0
    assert sent[PacketType.HEARTBEAT] > 0
    assert sent[PacketType.DIR_LEASE] > 0
    assert sent[PacketType.DIRECTORY_REGISTER] > 0
