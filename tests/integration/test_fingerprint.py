"""Pinned fingerprint of the paths the end-to-end benchmark never runs.

``BENCHMARK.json``'s four workloads use the default config: no failure
detection, no checkpoints, one directory, sync mode only.  Crash
restore (rollback and restart), async mode, a mid-run scale, the
multi-directory READY relay and the delta engine beside a split
registry are guarded by tier-1 alone,
so a refactor of the Agent needs one scenario that walks all of them
and pins every deterministic quantity the simulator produces: event
and message counts, bytes on the wire, each run's strategy / step
count / phase sequence, and the migration and recovery counters.

A third scenario does the same for the control plane: lease renewal,
election and succession after a lead crash, a master restart, and a
re-weight adopted under the successor's term — what a refactor of the
Directory has to leave alone.

The constants below were recorded from the code as it stood before the
Agent (first two scenarios) and the Directory (third) were split into
modules; they change only when the *program*
changes (a different message, a different charge, a different round),
never for a move or a rename.  Values themselves are compared ``==`` to
a fault-free twin by the chaos and recovery suites and are not pinned
here.

The kernel backend is not part of the program: every scenario is pinned
on the C library (where it builds) and again on the numpy reference,
against the same constants.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph
from repro.graph import EdgeBatch


@pytest.fixture(autouse=True)
def _on_the_c_backend():
    was = kernels.enabled()
    kernels.set_enabled(True)
    yield
    kernels.set_enabled(was)


def _rounds(*counted):
    """['init', ('step', 3)] -> ['init', 'step', 'step', 'step']."""
    out = []
    for item in counted:
        phase, n = item if isinstance(item, tuple) else (item, 1)
        out.extend([phase] * n)
    return out


EXPECTED = {
    "events_processed": 18912,
    "messages_sent": 17600,
    "bytes_sent": 70785793,
    "now": 0.3144470495291519,
    "runs": [
        ("scratch", 8, _rounds("init", ("step", 8))),
        ("scratch", 5, _rounds("init", ("step", 2), "apply_only", "resume", ("step", 2))),
        ("scratch", None, []),
        ("dense", 8, _rounds("init", ("step", 8))),
        ("scratch", 4, _rounds("init", ("step", 4))),
        ("delta", 8, _rounds("delta_init", ("delta_step", 8))),
        ("delta", 1, _rounds("delta_init", "delta_step")),
        ("scratch", 8, _rounds("init", ("step", 5), "resume", ("step", 4))),
    ],
    "edges_migrated": 5619,
    "replica_syncs": 2131,
    "wal_records_replayed": 0,
    "checkpoints_restored": 1,
}

EXPECTED_RESTART = {
    "events_processed": 1451,
    "messages_sent": 1234,
    "bytes_sent": 18235598,
    "now": 0.16294521010291302,
    "runs": [
        ("scratch", 4, _rounds("init", ("step", 4))),
        ("scratch", 6, _rounds("init", ("step", 5), "init", ("step", 6))),
        ("dense", 1, _rounds("init", "step")),
    ],
    "edges_migrated": 296,
    "replica_syncs": 104,
    "wal_records_replayed": 20,
    "checkpoints_restored": 1,
}


# Control-plane failover: three directories under a lease cadence, a lead
# crash mid-run (election, succession, control-tail re-drive), a master
# crash + restart (registry rebuilt from DIRECTORY_REGISTER), and a
# mid-run re-weight adopted by the elected lead.
EXPECTED_FAILOVER = {
    "events_processed": 3985,
    "messages_sent": 3098,
    "bytes_sent": 28110489,
    "now": 0.15228246796403389,
    "runs": [
        ("scratch", 12, _rounds("init", ("step", 12))),
        ("scratch", 5, _rounds("init", ("step", 5))),
        ("scratch", 12, _rounds("init", ("step", 2), "apply_only", "resume", ("step", 9))),
    ],
    "terms": [0, 1, 1, 1],
    "lead_elections": 1,
    "stale_term_drops": 0,
    "rebalance_adoptions": 1,
}


def _phases(result):
    return [phase for phase, _, _ in result.round_durations]


def _scenario():
    us, vs, _ = powerlaw_graph(260, 2200, alpha=2.0, seed=41)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    elga = ElGA(
        nodes=2,
        agents_per_node=3,
        seed=17,
        n_directories=2,
        replication_threshold=40,
        heartbeat_interval=0.005,
        lease_timeout=0.025,
        checkpoint_every=2,
    )
    elga.ingest_edges(us, vs, n_streamers=2)
    runs = [
        elga.run(PageRank(max_iters=8)),
        # Mid-run scale-up: apply_only drain, suspension, a joiner
        # bootstrapping from the resume broadcast.
        elga.run(WCC(), scale_plan={2: 8}),
        elga.run(WCC(), mode="async"),
    ]
    rng = np.random.default_rng(5)
    # One batch that inserts fresh edges and deletes resident ones:
    # WCC must fall back to scratch, PageRank warm-starts.
    gone = rng.choice(len(us), size=12, replace=False)
    new_u = rng.integers(0, 260, size=30)
    new_v = (new_u + rng.integers(1, 259, size=30)) % 260
    elga.apply_batch(
        EdgeBatch(
            np.concatenate([np.ones(30, dtype=np.int8), -np.ones(12, dtype=np.int8)]),
            np.concatenate([new_u, us[gone]]),
            np.concatenate([new_v, vs[gone]]),
        )
    )
    elga.quiesce()
    runs.append(elga.run(PageRank(max_iters=8), incremental=True))
    runs.append(elga.run(WCC(), incremental=True))
    # An insert-only batch between resident, non-split vertices keeps
    # |V| and the split registry out of the way: both programs run the
    # delta engine (dirty-row seeding, residual baselines).
    split = elga.cluster.lead.state.split_vertices
    plain = np.array(sorted(set(us.tolist()) - set(split)))
    add_u = rng.choice(plain, size=20)
    add_v = rng.choice(plain, size=20)
    keep = add_u != add_v
    elga.apply_batch(EdgeBatch.insertions(add_u[keep], add_v[keep]))
    elga.quiesce()
    runs.append(elga.run(PageRank(max_iters=8), incremental=True))
    runs.append(elga.run(WCC(), incremental=True))
    elga.scale_to(9)
    elga.scale_to(5)
    # Crash after a checkpoint exists: cluster-wide rollback and resume.
    runs.append(elga.run(PageRank(max_iters=8), crash_plan={3: {"agents": 1}}))
    return elga, runs


def _restart_scenario():
    """Checkpointing off: a crash degrades to restart-mode recovery,
    and the replacement rebuilds its shard from the flush-time base
    plus the WAL rows logged since (here: an unflushed batch)."""
    us, vs, _ = powerlaw_graph(120, 700, alpha=2.1, seed=43)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    elga = ElGA(
        nodes=2,
        agents_per_node=2,
        seed=19,
        n_directories=2,
        replication_threshold=40,
        heartbeat_interval=0.005,
        lease_timeout=0.025,
        checkpoint_every=0,
    )
    elga.ingest_edges(us, vs)
    runs = [elga.run(WCC())]
    rng = np.random.default_rng(6)
    resident = np.unique(us)
    add_u = rng.choice(resident, size=40)
    add_v = rng.choice(resident, size=40)
    keep = add_u != add_v
    elga.apply_batch(EdgeBatch.insertions(add_u[keep], add_v[keep]), flush=False)
    runs.append(elga.run(PageRank(max_iters=6), crash_plan={2: {"agents": 1}}))
    runs.append(elga.run(WCC(), incremental=True))
    return elga, runs


def _failover_scenario():
    us, vs, _ = powerlaw_graph(1500, 20000, alpha=2.0, seed=47)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    elga = ElGA(
        nodes=2,
        agents_per_node=2,
        seed=23,
        n_directories=3,
        dir_lease_interval=2e-3,
        dir_lease_timeout=6e-3,
        replication_threshold=40,
        heartbeat_interval=0.005,
        lease_timeout=0.025,
        checkpoint_every=2,
    )
    elga.ingest_edges(us, vs, n_streamers=2)
    cluster = elga.cluster
    terms = [cluster.lead.term]
    runs = []
    agents = sorted(cluster.agents)
    for program, plans in (
        (PageRank(max_iters=12), {"crash_plan": {2: {"lead": True}}}),
        (WCC(), {"crash_plan": {1: {"master": True}}}),
        (PageRank(max_iters=12), {"rebalance_plan": {2: {agents[0]: 2.0, agents[-1]: 0.5}}}),
    ):
        runs.append(elga.run(program, **plans))
        terms.append(cluster.lead.term)
    return elga, runs, terms


def _observe(scenario):
    elga, runs = scenario()
    cluster = elga.cluster
    metrics = cluster.totals()  # every entity that ever lived
    stats = cluster.network.stats
    return {
        "events_processed": cluster.kernel.events_processed,
        "messages_sent": stats.messages_sent,
        "bytes_sent": stats.bytes_sent,
        "now": cluster.kernel.now,
        "runs": [(r.strategy, r.steps, _phases(r)) for r in runs],
        "edges_migrated": metrics["edges_migrated"],
        "replica_syncs": metrics["replica_syncs"],
        "wal_records_replayed": metrics["wal_records_replayed"],
        "checkpoints_restored": metrics["checkpoints_restored"],
    }, elga


def _assert_pinned(seen, expected):
    seen, expected = dict(seen), dict(expected)
    # The clock passes through math.log2 (placement lookup cost).
    assert seen.pop("now") == pytest.approx(expected.pop("now"), rel=1e-9)
    assert seen == expected


def test_fingerprint_of_unbenchmarked_paths():
    seen, elga = _observe(_scenario)
    # The scenario really walks what it claims to.
    assert elga.cluster.lead.state.split_vertices, "no hub split: threshold too high"
    log = elga.cluster.recovery_log
    assert [entry["event"] for entry in log] == ["crash", "recover", "replace"]
    assert log[1]["mode"] == "rollback"
    assert elga.validate_against_reference()
    _assert_pinned(seen, EXPECTED)


def test_fingerprint_of_restart_recovery():
    seen, elga = _observe(_restart_scenario)
    log = elga.cluster.recovery_log
    assert [entry["event"] for entry in log] == ["crash", "recover", "replace"]
    assert log[1]["mode"] == "restart"
    assert elga.validate_against_reference()
    _assert_pinned(seen, EXPECTED_RESTART)


def test_fingerprint_of_control_plane_failover():
    elga, runs, terms = _failover_scenario()
    cluster = elga.cluster
    stats = cluster.network.stats
    totals = cluster.totals()
    assert [entry["event"] for entry in cluster.recovery_log] == [
        "directory_crash", "lead_elected", "master_crash", "master_restart",
    ]
    assert cluster.lead.index == 1
    assert elga.validate_against_reference()
    seen = {
        "events_processed": cluster.kernel.events_processed,
        "messages_sent": stats.messages_sent,
        "bytes_sent": stats.bytes_sent,
        "now": cluster.kernel.now,
        "runs": [(r.strategy, r.steps, _phases(r)) for r in runs],
        "terms": terms,
        "lead_elections": totals["lead_elections"],
        "stale_term_drops": totals["stale_term_drops"],
        "rebalance_adoptions": totals["rebalance_plans_adopted"],
    }
    _assert_pinned(seen, EXPECTED_FAILOVER)


@pytest.mark.parametrize(
    "pinned",
    [
        test_fingerprint_of_unbenchmarked_paths,
        test_fingerprint_of_restart_recovery,
        test_fingerprint_of_control_plane_failover,
    ],
    ids=["unbenchmarked_paths", "restart_recovery", "control_plane_failover"],
)
def test_fingerprints_hold_on_the_numpy_reference(pinned):
    kernels.set_enabled(False)
    pinned()
    assert kernels.backend() == "numpy"
