"""Stateful equivalence: the delta-aware migration re-check against the
full re-check it replaced.

Agents used to re-resolve every resident row, through a placer built
for the occasion, on every directory adoption.  They now re-examine
only what an adoption can have moved (nothing on a batch-clock tick,
the split vertices whose replication factor changed on a sketch or
registry change, everything — once per distinct key — on a ring or term
change).  The old loop lives on here, as the oracle: a *twin* cluster
whose agents take the full, uncached, per-row pass on every adoption is
driven through the same interleaving of ingest chunks, sketch flushes,
split registrations, batch-clock ticks, scale events, re-weights and
lead failovers, and after every settle

* every resident row's owner under a fresh uncached ``EdgePlacer`` built
  from the state its host adopted equals that host;
* each agent's shard equals its twin's, row for row;
* the cluster holds exactly the reference graph, once per direction.
"""

import types
from dataclasses import dataclass

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.costmodel import CostModel
from repro.core import ElGA
from repro.graph.stream import EdgeBatch
from repro.hashing import ConsistentHashRing
from repro.partition import EdgePlacer

N_VERTICES = 48


@dataclass(frozen=True)
class FlatLookupCosts(CostModel):
    """Hits cost what misses cost, so the twin (whose oracle pass never
    warms a cache) runs on the same simulated clock, message for
    message, as the cluster under test."""

    def placement_lookup_cost(self, width, depth, ring_positions, cached=False):
        return super().placement_lookup_cost(width, depth, ring_positions)


def fresh_placer(agent) -> EdgePlacer:
    """Placement as a pure function of the state ``agent`` adopted —
    new ring, no cache, nothing shared with the agent's own placer."""
    state, config = agent.dstate, agent.config
    ring = ConsistentHashRing(
        state.agent_ids(),
        virtual_factor=config.virtual_factor,
        hash_fn=config.hash_fn,
        seed=config.seed,
        weights=state.weights,
    )
    return EdgePlacer(
        ring,
        state.sketch,
        replication_threshold=config.replication_threshold,
        hash_fn=config.hash_fn,
        split_gate=state.split_vertices,
    )


def _full_recheck(agent, store, moved):
    keys, others = store.arrays()
    return None, fresh_placer(agent).owner_of_edges(keys, others)


def take_full_pass(agent):
    """Make ``agent`` re-resolve every resident row on every adoption,
    whatever its placement cache says the adoption moved."""
    migrate = agent._migrate_misplaced
    agent._migrate_misplaced = lambda moved: migrate(None)
    agent._resident_owners = types.MethodType(_full_recheck, agent)


def build(oracle: bool) -> ElGA:
    elga = ElGA(
        nodes=2,
        agents_per_node=2,
        seed=7,
        n_directories=3,
        dir_lease_interval=2e-3,
        dir_lease_timeout=6e-3,
        heartbeat_interval=0.005,
        lease_timeout=0.025,
        checkpoint_every=2,
        replication_threshold=12,
        sketch_width=64,
        sketch_depth=4,
        sketch_flush_every=24,
        virtual_factor=16,
        costs=FlatLookupCosts(),
    )
    if oracle:
        cluster = elga.cluster
        for agent in cluster.agents.values():
            take_full_pass(agent)  # nothing resident yet
        add_agent = cluster.add_agent

        def add_oracle_agent(*args, settle=True, **kwargs):
            agent = add_agent(*args, settle=False, **kwargs)
            take_full_pass(agent)  # before its first broadcast lands
            if settle:
                cluster.settle()
            return agent

        cluster.add_agent = add_oracle_agent
    return elga


vertex = st.integers(min_value=0, max_value=N_VERTICES - 1)


class RecheckEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engines = [build(oracle=False), build(oracle=True)]
        self.edges = set()
        self.failovers = 0

    def both(self, action):
        for engine in self.engines:
            action(engine)

    def apply(self, inserts, removes, flush):
        inserts = [(u, v) for u, v in inserts if u != v]
        rows = [(1, u, v) for u, v in inserts] + [(-1, u, v) for u, v in removes]
        if not rows:
            return
        actions, us, vs = (np.asarray(col, dtype=np.int64) for col in zip(*rows))
        self.both(lambda e: e.apply_batch(EdgeBatch(actions.astype(np.int8), us, vs), flush=flush))
        self.edges |= set(inserts)
        self.edges -= set(removes)

    @rule(
        inserts=st.lists(st.tuples(vertex, vertex), min_size=1, max_size=40),
        n_removes=st.integers(min_value=0, max_value=6),
        flush=st.booleans(),
    )
    def ingest_chunk(self, inserts, n_removes, flush):
        removes = sorted(self.edges - set(inserts))[:n_removes]
        self.apply(inserts, removes, flush)

    @rule(hub=vertex, spokes=st.integers(min_value=14, max_value=30), flush=st.booleans())
    def ingest_hub(self, hub, spokes, flush):
        """Enough edges on one vertex to cross the split threshold."""
        self.apply([((hub + i) % N_VERTICES, hub) for i in range(1, spokes)], [], flush)

    @rule()
    def flush_sketches(self):
        self.both(lambda e: e.cluster.flush_sketches())

    @rule()
    def batch_clock_tick(self):
        def tick(engine):
            engine.cluster.lead.advance_batch_clock()
            engine.cluster.settle()

        self.both(tick)

    @rule(n_agents=st.integers(min_value=2, max_value=7))
    def scale(self, n_agents):
        self.both(lambda e: e.scale_to(n_agents))

    @rule(pick=st.integers(min_value=0, max_value=6), weight=st.sampled_from([0.5, 1.0, 2.0]))
    def reweight(self, pick, weight):
        live = sorted(self.engines[0].cluster.agents)
        self.both(lambda e: e.rebalance({live[pick % len(live)]: weight}))

    @precondition(lambda self: self.failovers < 2)
    @rule()
    def lead_failover(self):
        """The lead dies between operations; the sketch flush after it
        is the first to need the dead party, and pays: orphaned agents
        re-home, and the directory they reach elects the successor."""
        self.failovers += 1

        def crash_then_flush(engine):
            engine.cluster.crash_directory()
            engine.cluster.flush_sketches()

        self.both(crash_then_flush)
        for engine in self.engines:
            assert engine.cluster.lead.term == self.failovers

    @invariant()
    def rows_live_where_placement_says(self):
        for engine in self.engines:
            cluster = engine.cluster
            assert cluster.consistent()
            for agent in cluster.agents.values():
                assert agent.dstate.fence == cluster.lead.state.fence
                placer = fresh_placer(agent)
                for store in (agent.shard.out_store, agent.shard.in_store):
                    keys, others = store.arrays()
                    owners = placer.owner_of_edges(keys, others)
                    assert (owners == agent.agent_id).all()

    @invariant()
    def shards_equal_the_full_recheck_twin(self):
        cluster, twin = (engine.cluster for engine in self.engines)
        assert sorted(cluster.agents) == sorted(twin.agents)
        assert cluster.lead.state.split_vertices == twin.lead.state.split_vertices
        for agent_id, agent in cluster.agents.items():
            assert agent.shard.out_store == twin.agents[agent_id].shard.out_store
            assert agent.shard.in_store == twin.agents[agent_id].shard.in_store

    @invariant()
    def nothing_lost_or_duplicated(self):
        for engine in self.engines:
            assert engine.cluster.total_resident_edges() == 2 * len(self.edges)
            assert engine.validate_against_reference()

    def teardown(self):
        twin = self.engines[1].cluster
        assert not any(
            agent.metrics.migrate_rechecks_skipped for agent in twin.agents.values()
        ), "the oracle twin must take the full pass on every adoption"


RecheckEquivalence.TestCase.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
TestRecheckEquivalence = RecheckEquivalence.TestCase
