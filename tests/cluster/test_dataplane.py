"""Data-plane fast path: canonical combining, coalescing, ack batching.

The fast path's contract is *bit-equality*: sender-side combining and
packet coalescing may change what crosses the wire, but never the
floats that come out.  These tests pin the algebra at the unit level
(``combine_pairs``) and the contract at the engine level (sender-side
combining vs the receiver-side reference, ``ship_uncombined``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.dataplane import RoundBuffers, combine_pairs, segments_by
from repro.core import ElGA, PageRank
from repro.core.algorithms import WCC
from repro.gen import powerlaw_graph
from repro.net.message import PacketType
from tests.conftest import ship_uncombined

pytestmark = pytest.mark.dataplane


# ----------------------------------------------------------------------
# segments_by: the one group-rows-by-owner
# ----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=-3, max_value=12), max_size=60))
def test_segments_by_is_a_stable_partition_by_ascending_owner(owners):
    owners = np.asarray(owners, dtype=np.int64)
    order, segments = segments_by(owners)
    # The segments tile ``order`` and ``order`` is a permutation: every
    # row lands in exactly one segment.
    assert sorted(order.tolist()) == list(range(len(owners)))
    edges = [0, *[end for _, _, end in segments]]
    assert [start for _, start, _ in segments] == edges[:-1] and edges[-1] == len(owners)
    # One segment per distinct owner, ascending, never empty.
    assert [owner for owner, _, _ in segments] == sorted(set(owners.tolist()))
    for owner, start, end in segments:
        rows = order[start:end]
        assert isinstance(owner, int) and end > start
        assert (owners[rows] == owner).all()
        # Input order inside a segment: what the stable argsort gave.
        assert rows.tolist() == sorted(rows.tolist())


# ----------------------------------------------------------------------
# combine_pairs: the canonical per-batch reduction
# ----------------------------------------------------------------------


def _flush(batches, ids, ufunc, identity):
    """Reference re-implementation of Agent._flush_pending_msgs."""
    accum = np.full(len(ids), identity)
    got = np.zeros(len(ids), dtype=bool)
    if batches:
        dst = np.concatenate([b[0] for b in batches])
        val = np.concatenate([b[1] for b in batches])
        order = np.lexsort((val, dst))
        pos = np.searchsorted(ids, dst[order])
        ufunc.at(accum, pos, val[order])
        got[pos] = True
    return accum, got


def _random_batch(rng, ids, n):
    dst = rng.choice(ids, size=n)
    # Adversarial magnitudes: pair-order sensitivity shows up instantly
    # if the fold order is not canonical.
    val = rng.choice([1e-17, 0.1, 1.0, 1e16, 3.7e-5], size=n) * rng.random(n)
    return dst, val


def test_combine_pairs_sorts_and_folds():
    dst = np.array([5, 3, 5, 3, 9], dtype=np.int64)
    val = np.array([2.0, 1.0, 0.5, 4.0, 7.0])
    udst, uval = combine_pairs(dst, val, np.add, 0.0)
    assert udst.tolist() == [3, 5, 9]
    assert uval.tolist() == [0.0 + 1.0 + 4.0, 0.0 + 0.5 + 2.0, 7.0]


def test_combine_pairs_empty():
    dst = np.empty(0, dtype=np.int64)
    val = np.empty(0)
    udst, uval = combine_pairs(dst, val, np.add, 0.0)
    assert len(udst) == 0 and len(uval) == 0


def test_combine_pairs_is_permutation_invariant():
    rng = np.random.default_rng(7)
    ids = np.arange(0, 40, dtype=np.int64)
    dst, val = _random_batch(rng, ids, 300)
    base = combine_pairs(dst, val, np.add, 0.0)
    for _ in range(5):
        perm = rng.permutation(len(dst))
        shuffled = combine_pairs(dst[perm], val[perm], np.add, 0.0)
        assert np.array_equal(base[0], shuffled[0])
        assert np.array_equal(base[1], shuffled[1])  # bitwise


@pytest.mark.parametrize(
    "ufunc,identity", [(np.add, 0.0), (np.minimum, np.inf), (np.maximum, -np.inf)]
)
def test_sender_combine_bit_equals_receiver_fold(ufunc, identity):
    """Level 1 at the sender == level 1 at the receiver, bit for bit:
    flushing the combined batch must equal flushing the raw batch."""
    rng = np.random.default_rng(11)
    ids = np.arange(0, 64, dtype=np.int64)
    dst, val = _random_batch(rng, ids, 500)
    raw_acc, raw_got = _flush([(dst, val)], ids, ufunc, identity)
    combined_acc, combined_got = _flush(
        [combine_pairs(dst, val, ufunc, identity)], ids, ufunc, identity
    )
    assert np.array_equal(raw_acc, combined_acc)  # bitwise, incl. sums
    assert np.array_equal(raw_got, combined_got)


def test_incremental_partials_match_whole_round_reduction():
    """Eagerly pre-reducing each batch on arrival (O(unique dst) peak
    memory) is bit-identical to holding every batch and reducing the
    whole round at flush time."""
    rng = np.random.default_rng(23)
    ids = np.arange(0, 50, dtype=np.int64)
    batches = [_random_batch(rng, ids, n) for n in (120, 1, 75, 300)]
    # Incremental: level 1 per batch on arrival, level 2 at flush.
    eager = [combine_pairs(d, v, np.add, 0.0) for d, v in batches]
    eager_acc, eager_got = _flush(eager, ids, np.add, 0.0)
    # Whole-round: batches held raw, identical two-level reduction at
    # flush time.
    late = _flush(
        [combine_pairs(d, v, np.add, 0.0) for d, v in batches], ids, np.add, 0.0
    )
    assert np.array_equal(eager_acc, late[0])
    assert np.array_equal(eager_got, late[1])
    # Batch arrival order must not matter either (level 2 is canonical).
    reordered_acc, _ = _flush(eager[::-1], ids, np.add, 0.0)
    assert np.array_equal(eager_acc, reordered_acc)


def test_two_level_vs_legacy_single_level():
    """The coalesced two-level reduction is exactly the legacy fold for
    monotone aggregators, and equivalent to rounding for sums."""
    rng = np.random.default_rng(29)
    ids = np.arange(0, 50, dtype=np.int64)
    batches = [_random_batch(rng, ids, n) for n in (200, 80, 33)]
    for ufunc, identity in ((np.minimum, np.inf), (np.maximum, -np.inf)):
        legacy, _ = _flush(batches, ids, ufunc, identity)
        two_level, _ = _flush(
            [combine_pairs(d, v, ufunc, identity) for d, v in batches],
            ids,
            ufunc,
            identity,
        )
        assert np.array_equal(legacy, two_level)  # min/max: bitwise
    legacy, _ = _flush(batches, ids, np.add, 0.0)
    two_level, _ = _flush(
        [combine_pairs(d, v, np.add, 0.0) for d, v in batches], ids, np.add, 0.0
    )
    np.testing.assert_allclose(legacy, two_level, rtol=1e-12)


# ----------------------------------------------------------------------
# RoundBuffers: struct-of-arrays packet merging
# ----------------------------------------------------------------------


def test_round_buffers_merge_vertex_msgs():
    buffers = RoundBuffers()
    buffers.add(2, PacketType.VERTEX_MSG, {"dst": np.array([4, 1]), "val": np.array([0.5, 0.25])})
    buffers.add(2, PacketType.VERTEX_MSG, {"dst": np.array([9]), "val": np.array([1.5])})
    buffers.add(7, PacketType.VERTEX_MSG, {"dst": np.array([3]), "val": np.array([2.0])})
    assert buffers.emissions == 3
    packets = list(buffers.drain_vertex_msgs(step=4, round_=5))
    assert [(a, n) for a, n, _ in packets] == [(2, 2), (7, 1)]
    merged = packets[0][2]
    assert merged["step"] == 4 and merged["round"] == 5
    assert merged["dst"].tolist() == [4, 1, 9]
    assert merged["val"].tolist() == [0.5, 0.25, 1.5]
    assert buffers.empty


def test_round_buffers_merge_replica_rows_in_vertex_order():
    buffers = RoundBuffers()
    buffers.add(
        3,
        PacketType.REPLICA_SYNC,
        {
            "verts": np.array([9, 2]),
            "partials": np.array([0.9, 0.2]),
            "got": np.array([True, False]),
            "outdeg": np.array([3.0, 1.0]),
        },
    )
    buffers.add(
        3,
        PacketType.REPLICA_SYNC,
        {
            "verts": np.array([5]),
            "partials": np.array([0.5]),
            "got": np.array([True]),
            "outdeg": np.array([2.0]),
        },
    )
    ((agent_id, n, payload),) = buffers.drain_replica(PacketType.REPLICA_SYNC, 0, 0)
    assert agent_id == 3 and n == 2
    assert payload["verts"].tolist() == [2, 5, 9]
    assert payload["partials"].tolist() == [0.2, 0.5, 0.9]
    assert payload["got"].tolist() == [False, True, True]
    assert payload["outdeg"].tolist() == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# engine-level bit-equality and counters
# ----------------------------------------------------------------------


def _engine(seed=9, **overrides):
    overrides.setdefault("replication_threshold", 40)
    return ElGA(nodes=2, agents_per_node=2, seed=seed, **overrides)


def _graph():
    us, vs, _ = powerlaw_graph(70, 260, alpha=2.1, seed=5)
    return us, vs


@pytest.mark.parametrize("program_cls", [PageRank, WCC])
def test_combining_on_off_bit_equal(program_cls):
    """Sender-side combining must not change a single output bit, for
    the sum (PageRank) and min (WCC) aggregators, splits included."""
    us, vs = _graph()
    fast = _engine()
    plain = ship_uncombined(_engine())
    fast.ingest_edges(us, vs)
    plain.ingest_edges(us, vs)
    program = program_cls() if program_cls is WCC else program_cls(max_iters=12)
    r_fast = fast.run(program)
    reference = plain.run(program_cls() if program_cls is WCC else program_cls(max_iters=12))
    assert r_fast.values == reference.values  # bitwise on floats
    combined = sum(a.metrics.pairs_combined for a in fast.cluster.agents.values())
    assert combined > 0, "combining never fired — the test exercised nothing"
    assert sum(a.metrics.pairs_combined for a in plain.cluster.agents.values()) == 0
    assert sum(a.metrics.replica_syncs for a in fast.cluster.agents.values()) > 0, (
        "no split vertices — lower replication_threshold"
    )


def test_ack_batching_counters_and_accounting():
    us, vs = _graph()
    fast = _engine()
    fast.ingest_edges(us, vs)
    fast.run(PageRank(max_iters=8))
    stats = fast.cluster.network.stats
    acks = stats.by_type_count[PacketType.VERTEX_MSG_ACK]
    counted = fast.cluster.totals()
    # Every data packet is credited exactly once, in fewer ack packets.
    assert counted["data_ack_credits"] == (
        stats.by_type_count[PacketType.VERTEX_MSG]
        + stats.by_type_count[PacketType.REPLICA_SYNC]
        + stats.by_type_count[PacketType.REPLICA_VALUE]
    )
    assert acks < counted["data_ack_credits"]
    assert counted["acks_batched"] == counted["data_ack_credits"] - acks > 0
    # Emissions of a round toward one agent ship as one packet.
    assert sum(a.metrics.packets_coalesced for a in fast.cluster.agents.values()) > 0


def test_combining_requires_coalescing():
    """Round coalescing is the data plane, not an option of it: there is
    no per-emission mode for combining to be incompatible with."""
    with pytest.raises(TypeError):
        ElGA(nodes=1, agents_per_node=2, coalescing=False)


def test_combining_is_not_an_option():
    """Senders always combine; the uncombined reference lives in the
    tests (``ship_uncombined``)."""
    with pytest.raises(TypeError):
        ElGA(nodes=1, agents_per_node=2, combining=False)
