"""Shared fixtures and reference helpers for the test suite."""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.cluster.dataplane import combine_pairs
from repro.cluster.rounds import RoundMixin
from repro.core import ElGA
from repro.gen import powerlaw_graph
from repro.graph import compact_ids, pagerank_csr, wcc_labels
from repro.net.message import PacketType


@pytest.fixture(scope="session")
def small_graph():
    """A tiny deterministic directed graph (cycle + chords)."""
    us = np.array([0, 1, 2, 3, 4, 0, 2, 4], dtype=np.int64)
    vs = np.array([1, 2, 3, 4, 0, 2, 0, 1], dtype=np.int64)
    return us, vs, 5


@pytest.fixture(scope="session")
def skewed_graph():
    """A power-law graph large enough to produce split vertices."""
    us, vs, n = powerlaw_graph(1500, 15000, alpha=2.1, seed=11)
    return us, vs, n


@pytest.fixture()
def engine(small_graph):
    """A 4-agent engine pre-loaded with the small graph."""
    us, vs, _ = small_graph
    elga = ElGA(nodes=2, agents_per_node=2, seed=3)
    elga.ingest_edges(us, vs)
    return elga


@pytest.fixture(scope="module")
def skewed_engine(skewed_graph):
    """A 12-agent engine with split vertices (module-scoped: building it
    ingests 15k edges)."""
    us, vs, _ = skewed_graph
    elga = ElGA(nodes=3, agents_per_node=4, seed=5, replication_threshold=300)
    elga.ingest_edges(us, vs, n_streamers=3)
    return elga


def reference_pagerank(us, vs, **kwargs):
    """PageRank reference on the compacted id space, as a vertex map."""
    cu, cv, ids = compact_ids(us, vs)
    ranks, iters = pagerank_csr(cu, cv, len(ids), **kwargs)
    return {int(ids[i]): float(ranks[i]) for i in range(len(ids))}, iters


def reference_wcc(us, vs):
    """WCC reference: vertex -> minimum original id in its component."""
    cu, cv, ids = compact_ids(us, vs)
    labels, iters = wcc_labels(cu, cv, len(ids))
    return {int(ids[i]): int(ids[labels[i]]) for i in range(len(ids))}, iters


def ship_uncombined(elga):
    """Make ``elga``'s agents (the ones it has now) ship their VERTEX_MSG
    packets raw and run the identical level-1 fold on receipt: the
    receiver-side reference of the data plane's sender-side combining,
    which must reproduce its results bit for bit."""

    def fold_on_receipt(agent, payload):
        program = agent.run.program
        dst = np.asarray(payload["dst"], dtype=np.int64)
        val = np.asarray(payload["val"], dtype=np.float64)
        if len(dst):
            dst, val = combine_pairs(dst, val, program.ufunc, program.identity)
        RoundMixin._aggregate(agent, {"dst": dst, "val": val})

    for agent in elga.cluster.agents.values():
        agent._combine = lambda program, payload: None
        agent._aggregate = types.MethodType(fold_on_receipt, agent)
        agent._ROUND_INGEST = {**agent._ROUND_INGEST, PacketType.VERTEX_MSG: fold_on_receipt}
    return elga
