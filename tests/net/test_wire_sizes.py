"""Pinned wire size of every packet shape the cluster sends.

One message per production packet type and payload shape (both shapes
of SUBSCRIBE and of DIRECTORY_ASSIGN, SUPERSTEP_ADVANCE with and
without the resume spec, EDGE_MIGRATE with and without program state).
``size_bytes`` is what the latency model charges and what ``net.bytes``
sums, so every simulated time in the repository rests on these numbers:
a change to how payloads are sized must leave each one equal.
"""

import numpy as np
import pytest

from repro.cluster.directory import DirectoryState
from repro.core import ElGA, PageRank, RunSpec
from repro.gen import powerlaw_graph
from repro.net import Message, PacketType
from repro.sketch.countmin import CountMinSketch

IDS = np.arange(6, dtype=np.int64)
VALS = np.linspace(0.0, 1.0, 6)
FLAGS = np.array([True, False, True, True, False, True])
ACTIONS = np.ones(6, dtype=np.int8)
SKETCH = CountMinSketch(64, depth=4)
STATE = DirectoryState(
    version=3,
    batch_id=2,
    agents={0: 100, 1: 101, 2: 102},
    sketch=SKETCH,
    split_vertices=frozenset({5, 9}),
    weights={0: 1.0, 1: 2.0},
    epoch=(0, 1, 2, 3),
    term=1,
)
SPEC = RunSpec(run_id=4, program=PageRank(max_iters=3), incremental=True, global_n=100, activate=IDS)
READY = {"agent_id": 2, "round": 1, "step": 3, "stats": {"active": 4.0, "messages": 10.0}}
ADVANCE = {"phase": "step", "round": 1, "run_id": 4, "step": 3}
UPDATE = {"role": "out", "actions": ACTIONS, "us": IDS, "vs": IDS[::-1].copy()}
REPLY = {"agent_id": 2, "inc": 0, "run_id": 4, "step": 3, "token": 11, "vertex": 5}

CASES = [
    ("AGENT_JOIN", {"address": 7, "agent_id": 2, "node": 1, "weight": 1.0}, 33),
    ("AGENT_LEAVE", {"agent_id": 2}, 9),
    ("AGENT_READY", READY, 41),
    ("AGENT_READY", dict(READY, stats={}), 25),
    ("AGENT_SUSPECT", {"address": 7, "agent_id": 2}, 17),
    ("CLIENT_QUERY", {"program": "pagerank", "token": 11, "vertex": 5}, 25),
    ("CLIENT_REPLY", dict(REPLY, value=0.25), 57),
    ("CLIENT_REPLY", dict(REPLY, value=None), 49),
    ("DELIVERY_ACK", 17, 9),
    ("DIRECTORY_ASSIGN", 101, 9),
    ("DIRECTORY_ASSIGN", {"retry_after": 0.001}, 9),
    ("DIRECTORY_QUERY", None, 1),
    ("DIRECTORY_REGISTER", {"address": 100, "index": 0}, 17),
    ("DIRECTORY_SYNC", STATE, 2145),
    ("DIRECTORY_UPDATE", STATE, 2145),
    ("DIR_LEASE", {"term": 1, "version": 3}, 17),
    ("EDGE_MIGRATE_ACK", {"token": -5}, 9),
    ("EDGE_UPDATE", dict(UPDATE, reply_to=7, token=12), 122),
    ("EDGE_UPDATE_ACK", {"count": 6, "token": 12}, 17),
    ("EVICT_CONFIRM", {"agent_id": 2, "evict": True}, 17),
    ("HEARTBEAT", {"agent_id": 2}, 9),
    ("METRIC_REPORT", {"agent_id": 2, "metrics": {"edges": 10, "vertices": 4, "queue": 0}}, 33),
    ("READY_REBROADCAST", READY, 41),
    ("REBALANCE_PLAN", {"weights": {0: 2.0, 1: 1.0}}, 17),
    ("RECOVER", {"incarnation": 1, "mode": "rollback", "run_id": 4, "step": 3}, 33),
    (
        "REPLICA_SYNC",
        {"step": 3, "round": 1, "inc": 0, "verts": IDS, "partials": VALS, "got": FLAGS,
         "outdeg": VALS},
        175,
    ),
    (
        "REPLICA_VALUE",
        {"step": 3, "round": 1, "inc": 0, "verts": IDS, "values": VALS, "active": FLAGS,
         "outdeg": VALS},
        175,
    ),
    ("RESULT_NOTICE", {"versions": {"pagerank": 2, "wcc": 1}}, 17),
    ("RUN_START", SPEC, 113),
    ("SKETCH_DELTA", SKETCH, 2049),
    ("SPLIT_REPORT", IDS, 49),
    ("SUBSCRIBE", (PacketType.DIRECTORY_UPDATE, PacketType.RESULT_NOTICE), 17),
    ("SUBSCRIBE", {"remove": True}, 9),
    ("SUPERSTEP_ADVANCE", ADVANCE, 29),
    ("SUPERSTEP_ADVANCE", dict(ADVANCE, spec=SPEC), 141),
    ("VERTEX_MSG", {"step": 3, "round": 1, "inc": 0, "dst": IDS, "val": VALS}, 121),
    ("VERTEX_MSG_ACK", {"count": 2, "inc": 0}, 17),
]


@pytest.mark.parametrize(
    "name,payload,size", CASES, ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(CASES)]
)
def test_packet_size_is_pinned(name, payload, size):
    assert Message(ptype=PacketType[name], payload=payload).size_bytes == size


def test_edge_migrate_sizes_are_pinned():
    """EDGE_MIGRATE as the cluster builds it: a hop sent before any
    program ran carries no program state, one sent after a PageRank run
    carries each program's slice of the moving vertices."""
    us, vs, _ = powerlaw_graph(120, 600, alpha=2.1, seed=3)
    keep = us != vs
    elga = ElGA(nodes=1, agents_per_node=2, seed=5)
    hops = []
    elga.cluster.network.add_tap(
        lambda m: hops.append(m) if m.ptype == PacketType.EDGE_MIGRATE else None
    )
    elga.ingest_edges(us[keep], vs[keep])
    elga.scale_to(3)
    assert hops and not any(m.payload["state"] for m in hops)
    stateless = [m.size_bytes for m in hops]
    del hops[:]
    elga.run(PageRank(max_iters=3))
    elga.scale_to(4)
    stateful = [m.size_bytes for m in hops if m.payload["state"]]
    assert (stateless[:3], len(stateless), sum(stateless)) == ([1431, 1549, 1652], 4, 6368)
    assert (stateful[:3], len(stateful), sum(stateful)) == ([1706, 1273, 286], 6, 6501)

