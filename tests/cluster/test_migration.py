"""The Agent's membership machine (``cluster/migration.py``).

``Agent.status`` moves only along the rows of ``MEMBERSHIP``.  Pinned
here: the table is closed, a move without a row raises, and the rows the
elasticity, chaos and recovery suites walk — every row of the table, and
nothing else.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ElGACluster
from repro.cluster.migration import MEMBERSHIP, MigrationMixin
from repro.core import ElGA, PageRank
from repro.gen import powerlaw_graph
from repro.graph import EdgeBatch
from repro.net import CrashEvent, FaultPlan

from tests.chaos.harness import assert_chaos_survives, chaos_graph

ROWS = {(status, to) for status, moves in MEMBERSHIP.items() for to in moves}


def test_membership_table_is_closed():
    assert set().union(*MEMBERSHIP.values()) <= set(MEMBERSHIP)
    assert MEMBERSHIP["detached"] == frozenset()
    reachable, frontier = {"joining"}, ["joining"]
    while frontier:
        for nxt in MEMBERSHIP[frontier.pop()] - reachable:
            reachable.add(nxt)
            frontier.append(nxt)
    assert reachable == set(MEMBERSHIP)


def test_a_move_without_a_row_raises():
    cluster = ElGACluster(ClusterConfig(nodes=1, agents_per_node=2, seed=1))
    agent = cluster.agents[0]
    assert agent.status == "member"
    with pytest.raises(RuntimeError, match="from member to joining"):
        agent._to("joining")
    cluster.remove_agent(0)
    assert agent.status == "detached"
    with pytest.raises(RuntimeError, match="from detached to leaving"):
        agent.initiate_leave()


def _elasticity():
    cluster = ElGACluster(ClusterConfig(nodes=2, agents_per_node=2, seed=4))
    rng = np.random.default_rng(0)
    us, vs = rng.integers(0, 200, 1500), rng.integers(0, 200, 1500)
    keep = us != vs
    cluster.ingest(EdgeBatch.insertions(us[keep], vs[keep]))
    cluster.add_agent()
    cluster.remove_agent(sorted(cluster.agents)[0])
    # A leave asked before the join landed.
    joiner = cluster.add_agent(settle=False)
    cluster.remove_agent(joiner.agent_id)


def _chaos():
    # A mid-run leave under drops and duplicates: a drained leaver is
    # handed one more migrate batch during its grace period, forwards it
    # and waits for that hop's ack before it detaches.
    us, vs = chaos_graph()
    plan = FaultPlan.data_plane_chaos(seed=7, crashes=[CrashEvent(after_step=2)])
    assert_chaos_survives(plan, us, vs)


def _recovery():
    us, vs, _ = powerlaw_graph(200, 1500, seed=5)
    keep = us != vs
    engine = ElGA(nodes=2, agents_per_node=2, seed=5, heartbeat_interval=0.005,
                  lease_timeout=0.025, checkpoint_every=2)
    engine.ingest_edges(us[keep], vs[keep])
    engine.run(PageRank(max_iters=8), crash_plan={3: {"agents": 1}})


def test_the_suites_walk_every_row(monkeypatch):
    seen = []
    move = MigrationMixin._to

    def recording(self, status):
        seen.append((self.status, status))
        move(self, status)

    monkeypatch.setattr(MigrationMixin, "_to", recording)
    walked = {}
    for name, scenario in (("elasticity", _elasticity), ("chaos", _chaos), ("recovery", _recovery)):
        seen.clear()
        scenario()
        walked[name] = set(seen)
    drain = {("member", "leaving"), ("leaving", "drained"), ("drained", "detached")}
    assert walked == {
        "elasticity": {("joining", "member"), ("joining", "leaving")} | drain,
        "chaos": {("joining", "member"), ("drained", "leaving")} | drain,
        # The replacement waits as ``joining`` and becomes a member.
        "recovery": {("joining", "member")},
    }
    assert set().union(*walked.values()) == ROWS
