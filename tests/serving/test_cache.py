"""Serving result cache: TTL, epoch fencing, version fencing.

The cache's correctness claim is that a stale read is *structurally*
impossible: an entry is served only if its result version matches the
proxy's latest known version, its epoch token matches the current
directory epoch, and its TTL has not lapsed on the simulated clock.
The unit tests pin each fence in isolation; the integration tests
check the fences fire through the real protocol (a delta run bumps the
version and the next read misses); the Hypothesis property checks the
cached answer always equals the ground-truth fixpoint at the same
version.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ElGA, WCC
from repro.graph.stream import EdgeBatch
from repro.serving import ResultCache

pytestmark = pytest.mark.serving

EPOCH = ("e", 1)


def test_ttl_expiry_on_sim_clock():
    cache = ResultCache(ttl=1e-3, capacity=8)
    cache.put("pr", 7, 0.5, now=0.0, epoch=EPOCH, version=1, snapshot=(1, 3))
    hit = cache.get("pr", 7, now=5e-4, epoch=EPOCH, version=1)
    assert hit is not None and hit.value == 0.5 and hit.snapshot == (1, 3)
    assert cache.get("pr", 7, now=2e-3, epoch=EPOCH, version=1) is None
    assert cache.counters()["serving_cache_expirations"] == 1
    # The expired entry was dropped, not resurrected.
    assert cache.get("pr", 7, now=6e-4, epoch=EPOCH, version=1) is None


def test_epoch_token_invalidation():
    cache = ResultCache(ttl=10.0, capacity=8)
    cache.put("pr", 7, 0.5, now=0.0, epoch=EPOCH, version=1, snapshot=(1, 3))
    assert cache.get("pr", 7, now=0.1, epoch=("e", 2), version=1) is None
    assert cache.counters()["serving_cache_epoch_invalidations"] == 1


def test_result_version_invalidation():
    cache = ResultCache(ttl=10.0, capacity=8)
    cache.put("pr", 7, 0.5, now=0.0, epoch=EPOCH, version=1, snapshot=(1, 3))
    assert cache.get("pr", 7, now=0.1, epoch=EPOCH, version=2) is None
    assert cache.counters()["serving_cache_version_invalidations"] == 1


def test_capacity_bound_evicts_oldest():
    cache = ResultCache(ttl=10.0, capacity=2)
    for v in range(3):
        cache.put("pr", v, float(v), now=0.0, epoch=EPOCH, version=1, snapshot=(1, 1))
    assert cache.counters()["serving_cache_evictions"] == 1
    assert cache.get("pr", 0, now=0.1, epoch=EPOCH, version=1) is None  # oldest out
    assert cache.get("pr", 2, now=0.1, epoch=EPOCH, version=1) is not None


def test_invalidate_program_only_hits_that_program():
    cache = ResultCache(ttl=10.0, capacity=8)
    cache.put("pr", 1, 0.1, now=0.0, epoch=EPOCH, version=1, snapshot=(1, 1))
    cache.put("wcc", 1, 0.2, now=0.0, epoch=EPOCH, version=1, snapshot=(1, 1))
    cache.invalidate_program("pr")
    assert cache.get("pr", 1, now=0.1, epoch=EPOCH, version=1) is None
    assert cache.get("wcc", 1, now=0.1, epoch=EPOCH, version=1) is not None


def test_invalidate_negative_drops_only_negative_entries():
    cache = ResultCache(ttl=10.0, capacity=8)
    cache.put("pr", 1, 0.1, now=0.0, epoch=EPOCH, version=1, snapshot=(1, 1))
    cache.put("pr", 2, None, now=0.0, epoch=EPOCH, version=1, snapshot=(1, 1))
    cache.put("wcc", 3, None, now=0.0, epoch=EPOCH, version=1, snapshot=(1, 1))
    assert cache.invalidate_negative("pr") == 1
    assert cache.counters()["serving_cache_negative_invalidations"] == 1
    # The positive entry and the other program's negative both survive.
    assert cache.get("pr", 1, now=0.1, epoch=EPOCH, version=1) is not None
    assert cache.get("pr", 2, now=0.1, epoch=EPOCH, version=1) is None
    assert cache.get("wcc", 3, now=0.1, epoch=EPOCH, version=1) is not None
    # No program filter sweeps every remaining negative.
    assert cache.invalidate_negative() == 1
    assert cache.counters()["serving_cache_negative_invalidations"] == 2


def test_zero_ttl_is_rejected():
    with pytest.raises(ValueError):
        ResultCache(ttl=0.0, capacity=8)


# -- integration: fences fire through the real protocol ---------------------


def _ring_engine(serving_cache_ttl: float = 60.0) -> ElGA:
    elga = ElGA(
        nodes=2, agents_per_node=2, seed=10, serving_cache_ttl=serving_cache_ttl
    )
    us = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    vs = np.array([1, 2, 3, 4, 5, 6, 7, 0])
    elga.ingest_edges(us, vs)
    return elga


def test_version_notice_invalidates_after_incremental_run():
    """A delta run bumps the result version; the next read through the
    proxy must miss the cache and return the *new* fixpoint even though
    the TTL has decades left."""
    from repro.core import PageRank

    elga = _ring_engine(serving_cache_ttl=60.0)
    program = PageRank(max_iters=8)
    elga.run(program)
    client = elga.cluster.new_client()
    first = elga.query(3, "pagerank")
    assert len(client.cache) == 1
    version_before = client.known_versions["pagerank"]

    # Grow the graph and re-converge incrementally: same program name,
    # new fixpoint, new result version.
    elga.apply_batch(EdgeBatch.insertions(np.array([0, 3]), np.array([4, 7])))
    elga.quiesce()
    result = elga.run(program, incremental=True)
    assert client.known_versions["pagerank"] > version_before
    assert len(client.cache) == 0  # the notice eagerly dropped the entry

    second = elga.query(3, "pagerank")
    assert second == result.values[3]
    assert second != first  # the degree changes moved vertex 3's rank
    assert client.perf.counts["serving_cache_hits"] == 0  # nothing was served across the bump


def test_flushless_ingest_invalidates_negative_entries():
    """A cached "vertex does not exist" must not outlive the ingest that
    creates the vertex.  A flush-less batch bumps only the batch clock —
    no epoch bump, no RESULT_NOTICE — so before this fix the negative
    entry was replayed from cache until the TTL lapsed."""
    elga = _ring_engine(serving_cache_ttl=60.0)
    elga.run(WCC())
    client = elga.cluster.new_client()
    assert elga.query(42, "wcc") is None  # vertex not ingested yet
    fanouts = client.perf.counts["client_fanouts_dispatched"]
    assert elga.query(42, "wcc") is None  # replayed from cache
    assert client.perf.counts["client_fanouts_dispatched"] == fanouts
    assert client.perf.counts["serving_cache_hits"] >= 1
    # Flush-less insert of vertex 42: the batch clock moves, the
    # placement epoch does not.
    epoch_before = client.dstate.epoch_token
    elga.ingest_edges(np.array([42]), np.array([0]), flush=False)
    assert client.dstate.epoch_token == epoch_before
    assert client.perf.counts["serving_cache_negative_invalidations"] == 1
    # The re-query goes back to the agents instead of the stale negative.
    elga.query(42, "wcc")
    assert client.perf.counts["client_fanouts_dispatched"] == fanouts + 1


def test_ttl_expiry_through_proxy_sim_clock():
    """With a tiny TTL, an identical repeat query re-fans-out."""
    elga = _ring_engine(serving_cache_ttl=1e-6)
    elga.run(WCC())
    client = elga.cluster.new_client()
    assert elga.query(2, "wcc") == 0.0
    fanouts = client.perf.counts["client_fanouts_dispatched"]
    # Idle settling does not advance the sim clock; push it past the TTL.
    elga.cluster.kernel.schedule(1e-3, lambda: None)
    elga.cluster.settle()
    assert elga.query(2, "wcc") == 0.0
    assert client.perf.counts["client_fanouts_dispatched"] == fanouts + 1
    assert client.perf.counts["serving_cache_expirations"] >= 1


@functools.lru_cache(maxsize=1)
def _property_engine():
    elga = _ring_engine(serving_cache_ttl=60.0)
    result = elga.run(WCC())
    client = elga.cluster.new_client()
    return elga, client, result.values


@given(vertices=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_cached_reply_equals_bypassed_query_at_same_version(vertices):
    """For any query sequence at a fixed result version, the cached
    answer equals the ground-truth fixpoint — hits and misses are
    indistinguishable to the caller."""
    elga, client, truth = _property_engine()
    for vertex in vertices:
        out = []
        client.query(vertex, "wcc", out.append)
        elga.cluster.settle()
        assert out == [truth[vertex]]
