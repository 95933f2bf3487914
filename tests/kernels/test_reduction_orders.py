"""The counting-sort reduction and the CSR scatter vs the numpy oracle.

``combine_pairs`` and ``fold_pairs`` group pairs by a counting sort
when the id range is narrow, by a radix sort when it is wide or
negative, and sort each group with a run-adaptive sort.  None of that
may show in the bits: on every batch shape — random, presorted,
reversed, permuted, narrow or wide ids, long groups, repeated values —
the C kernels equal ``kernels.reference``, and any permutation of a
batch gives the C kernels the same output.  ``scatter_rows`` must give
exactly what its reference gives, through the CSR routing a table
builds for either scatter direction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cluster.shard import ShardState
from repro.cluster.vertextable import _RunState, build_table, scatter_segments
from repro.core import PageRank, WCC
from repro.core.program import RunSpec
from repro.kernels import reference
from repro.sketch import CountMinSketch

pytestmark = [
    pytest.mark.kernels,
    pytest.mark.skipif(
        not kernels.available(), reason="C kernel backend unavailable (no compiler)"
    ),
]

UFUNCS = [(np.add, 0.0), (np.minimum, np.inf), (np.maximum, -np.inf)]

#: Id ranges: counted (narrow, from zero or below it) and radix-sorted
#: (wide, negative, or both ends of int64).
ID_RANGES = [(0, 40), (-30, 30), (0, 1_000), (0, 1 << 40), (-(1 << 62), 1 << 62)]

#: Batch orders the emission side can produce, and some it cannot.
ORDERS = ["random", "sorted", "reversed", "by_value", "by_dst"]


def bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def _batch(seed: int, n: int, lo: int, hi: int, order: str, repeats: bool):
    rng = np.random.default_rng(seed)
    dst = rng.integers(lo, hi, size=n, dtype=np.int64)
    val = rng.standard_normal(n) * 1e3
    if repeats:
        val = np.round(val) + 0.0  # ties everywhere; +0.0 folds away -0.0
    if order == "sorted":
        idx = np.lexsort((val, dst))
    elif order == "reversed":
        idx = np.lexsort((val, dst))[::-1]
    elif order == "by_value":
        idx = np.argsort(val, kind="stable")
    elif order == "by_dst":
        idx = np.argsort(dst, kind="stable")
    else:
        idx = np.arange(n)
    return dst[idx], val[idx]


def _assert_combine_equal(dst, val, ufunc, identity):
    ref_d, ref_v = reference.combine_pairs(dst, val, ufunc, identity)
    acc_d, acc_v = kernels.c_combine_pairs(dst, val, ufunc, identity)
    assert np.array_equal(ref_d, acc_d)
    assert np.array_equal(bits(ref_v), bits(acc_v))


def _folds(dst, val, ufunc, ids, start=1.5):
    out = []
    for impl in (reference.fold_pairs, kernels.c_fold_pairs):
        accum = np.full(len(ids), start)
        got = np.zeros(len(ids), dtype=bool)
        impl(accum, got, ids, dst, val, ufunc)
        out.append((bits(accum), got))
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 600),
    id_range=st.sampled_from(ID_RANGES),
    order=st.sampled_from(ORDERS),
    repeats=st.booleans(),
    op=st.sampled_from(range(len(UFUNCS))),
)
@settings(max_examples=150, deadline=None)
def test_combine_and_fold_equal_the_reference_on_any_batch_shape(
    seed, n, id_range, order, repeats, op
):
    ufunc, identity = UFUNCS[op]
    dst, val = _batch(seed, n, *id_range, order, repeats)
    _assert_combine_equal(dst, val, ufunc, identity)
    ids = np.unique(np.concatenate([dst, [id_range[0]]]))
    (ref_a, ref_g), (acc_a, acc_g) = _folds(dst, val, ufunc, ids)
    assert np.array_equal(ref_a, acc_a) and np.array_equal(ref_g, acc_g)


@given(
    seed=st.integers(0, 2**32 - 1),
    group=st.integers(17, 300),
    n_dst=st.integers(1, 6),
    runs=st.integers(1, 5),
    op=st.sampled_from(range(len(UFUNCS))),
)
@settings(max_examples=80, deadline=None)
def test_long_groups_of_ascending_runs(seed, group, n_dst, runs, op):
    """Groups over 16 values — past the insertion sort — arriving as a
    few value-ordered emissions each (the natural merge), or not."""
    ufunc, identity = UFUNCS[op]
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(runs):
        dst = rng.integers(0, n_dst, size=group // runs + 1)
        val = np.sort(rng.standard_normal(len(dst)))
        parts.append((dst, val))
    dst = np.concatenate([p[0] for p in parts]).astype(np.int64)
    val = np.concatenate([p[1] for p in parts])
    for d, v in ((dst, val), (dst[::-1].copy(), val[::-1].copy())):
        _assert_combine_equal(d, v, ufunc, identity)
        ids = np.arange(n_dst, dtype=np.int64)
        (ref_a, ref_g), (acc_a, acc_g) = _folds(d, v, ufunc, ids)
        assert np.array_equal(ref_a, acc_a) and np.array_equal(ref_g, acc_g)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), op=st.sampled_from(range(3)))
@settings(max_examples=60, deadline=None)
def test_any_permutation_gives_the_c_kernels_the_same_bits(seed, n, op):
    """The emission order changes speed only: even where the reference
    itself depends on input order (+0.0 beside -0.0, NaN of both signs
    under min/max), the C output is a function of the multiset."""
    ufunc, identity = UFUNCS[op]
    rng = np.random.default_rng(seed)
    dst = rng.integers(-5, 20, size=n).astype(np.int64)
    val = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, -np.nan, np.inf], size=n)
    ids = np.arange(-5, 20, dtype=np.int64)
    base_d, base_v = kernels.c_combine_pairs(dst, val, ufunc, identity)
    base_fold = _folds(dst, val, ufunc, ids)[1]
    for _ in range(3):
        perm = rng.permutation(n)
        d, v = kernels.c_combine_pairs(dst[perm], val[perm], ufunc, identity)
        assert np.array_equal(base_d, d) and np.array_equal(bits(base_v), bits(v))
        fold = _folds(dst[perm], val[perm], ufunc, ids)[1]
        assert np.array_equal(base_fold[0], fold[0]) and np.array_equal(base_fold[1], fold[1])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("op", range(len(UFUNCS)))
def test_nan_and_signed_zero_match_the_reference(op):
    """NaNs of one sign fold to the reference's bits under every
    aggregator; a group mixing +0.0 and -0.0 does too under addition
    (the min/max sign-bit divergence is documented in csrc.py)."""
    ufunc, identity = UFUNCS[op]
    rng = np.random.default_rng(op)
    dst = rng.integers(0, 30, size=500).astype(np.int64)
    val = rng.standard_normal(500)
    val[rng.random(500) < 0.1] = np.nan
    _assert_combine_equal(dst, val, ufunc, identity)
    ids = np.arange(30, dtype=np.int64)
    (ref_a, ref_g), (acc_a, acc_g) = _folds(dst, val, ufunc, ids)
    assert np.array_equal(ref_a, acc_a) and np.array_equal(ref_g, acc_g)
    if ufunc is np.add:
        zeros = rng.choice([0.0, -0.0], size=500)
        _assert_combine_equal(dst, zeros, ufunc, identity)


def test_fold_locates_every_destination_before_writing():
    """An unhosted destination anywhere in the batch leaves the
    accumulators untouched — on the merge walk and after a restart."""
    ids = np.arange(0, 100, 2, dtype=np.int64)
    for dst in ([0, 2, 4, 7], [10, 4, 2, 99], [98, 0, 101]):
        accum, got = np.zeros(len(ids)), np.zeros(len(ids), dtype=bool)
        with pytest.raises(KeyError):
            kernels.c_fold_pairs(accum, got, ids, np.asarray(dst), np.ones(len(dst)), np.add)
        assert not got.any() and not accum.any()


# ----------------------------------------------------------------------
# scatter_rows: the CSR walk
# ----------------------------------------------------------------------


def _csr(seed: int, n_rows: int, max_deg: int, n_agents: int):
    rng = np.random.default_rng(seed)
    degree = rng.integers(0, max_deg + 1, size=n_rows)  # rows without edges too
    off = np.concatenate([[0], np.cumsum(degree)]).astype(np.int64)
    others = rng.integers(0, 10 * n_rows + 1, size=int(off[-1])).astype(np.int64)
    owner = rng.integers(0, n_agents, size=int(off[-1])).astype(np.int32)
    cap = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n_agents))])
    return off, others, owner, cap


def _slices(out):
    """Agent -> (dst, value bits) of a scatter_rows result."""
    dst, val, start, counts = out
    return {
        a: (dst[s : s + c].tolist(), bits(val[s : s + c]).tolist())
        for a, (s, c) in enumerate(zip(start.tolist(), counts.tolist()))
    }


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 80),
    max_deg=st.integers(0, 12),
    n_agents=st.integers(1, 6),
    share=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_scatter_rows_equals_its_reference(seed, n_rows, max_deg, n_agents, share):
    off, others, owner, cap = _csr(seed, n_rows, max_deg, n_agents)
    rng = np.random.default_rng(seed + 1)
    rows = rng.permutation(n_rows)[: int(share * n_rows)].astype(np.int64)
    vals = rng.standard_normal(len(rows))
    want = reference.scatter_rows(rows, vals, off, others, owner, cap)
    got = kernels.c_scatter_rows(rows, vals, off, others, owner, cap)
    assert _slices(want) == _slices(got)
    assert np.array_equal(want[3], got[3])
    assert got[3].sum() == (off[rows + 1] - off[rows]).sum()


def test_scatter_rows_empty_send_set_and_one_agent():
    off, others, owner, cap = _csr(3, 20, 5, 1)
    for impl in (reference.scatter_rows, kernels.c_scatter_rows):
        out = impl(np.empty(0, np.int64), np.empty(0), off, others, owner, cap)
        assert _slices(out) == {0: ([], [])}
        rows = np.arange(20, dtype=np.int64)
        out = impl(rows, np.arange(20.0), off, others, owner, cap)
        want = np.repeat(np.arange(20.0), np.diff(off))
        assert _slices(out) == {0: (others.tolist(), bits(want).tolist())}


def test_scatter_rows_refuses_rows_outside_the_offsets():
    off, others, owner, cap = _csr(4, 10, 3, 2)
    with pytest.raises(IndexError):
        kernels.c_scatter_rows(np.array([3, 10]), np.ones(2), off, others, owner, cap)
    with pytest.raises(ValueError):
        kernels.c_scatter_rows(np.array([3]), np.ones(1), off, others[:-1], owner, cap)


def _hand_shard(edges):
    us, vs = (np.asarray(col, dtype=np.int64) for col in zip(*edges))
    ones = np.ones(len(us), dtype=np.int8)
    shard = ShardState(CountMinSketch(64, 2))
    shard.out_store.apply(us, vs, ones)
    shard.in_store.apply(vs, us, ones)
    return shard


class _TwoAgents:
    """Placement stand-in: even destination vertices live on agent 0,
    odd ones on agent 3 (an id gap, so some agents get nothing)."""

    last_misses = last_hits = 0

    def owner_of_edges(self, own, other):
        return np.where(np.asarray(own) % 2 == 0, 0, 3).astype(np.int64)


@pytest.mark.parametrize("program", [PageRank(max_iters=2), WCC()], ids=["out", "in+out"])
def test_table_routing_scatters_identically_on_both_backends(program):
    """Through a table's own CSR routing — out-copies, and in-copies for
    a program that scatters both ways — the two backends yield the same
    (agent, count, pairs) per direction, every edge of every sending
    row exactly once, and nothing for a row without edges."""
    edges = [(0, 1), (0, 2), (0, 5), (1, 2), (2, 0), (3, 4), (4, 0), (6, 0)]
    shard = _hand_shard(edges)
    run = _RunState(RunSpec(run_id=1, program=program, global_n=7))
    build_table(run, shard, _TwoAgents(), frozenset(), 0, resume=False)
    table = run.table
    assert (run.in_routing is not None) == program.needs_in_and_out
    rows = np.arange(len(table), dtype=np.int64)
    vals = np.random.default_rng(5).standard_normal(len(rows))
    yields = {}
    was = kernels.enabled()
    try:
        for flag in (True, False):
            kernels.set_enabled(flag)
            yields[flag] = [
                (agent, count, dst.tolist(), bits(val).tolist())
                for agent, count, dst, val in scatter_segments(run, rows, vals)
            ]
    finally:
        kernels.set_enabled(was)
    assert yields[True] == yields[False]
    sent = sorted(
        (int(d), float(v)) for _, _, dsts, vs in yields[True]
        for d, v in zip(dsts, np.asarray(vs, dtype=np.uint64).view(np.float64))
    )
    by_id = dict(zip(table.ids.tolist(), vals.tolist()))
    want = [(v, by_id[u]) for u, v in edges]
    if program.needs_in_and_out:
        want += [(u, by_id[v]) for u, v in edges]
    assert sent == sorted(want)
    agents = [agent for agent, _, _, _ in yields[True]]
    assert set(agents) <= {0, 3} and agents.count(0) == 1 + program.needs_in_and_out
