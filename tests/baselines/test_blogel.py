"""Blogel baseline: algorithm exactness and timing-model shape."""

import pytest

from repro.baselines import Blogel
from repro.gen import powerlaw_graph
from tests.conftest import reference_pagerank, reference_wcc


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(800, 8000, alpha=2.2, seed=40)


@pytest.fixture(scope="module")
def loaded(graph):
    us, vs, _ = graph
    blogel = Blogel(nodes=8, ranks_per_node=8, seed=1)
    blogel.load(us, vs)
    return blogel


def test_pagerank_exact(loaded, graph):
    us, vs, _ = graph
    result = loaded.pagerank(tol=1e-12, max_iters=25)
    ref, ref_iters = reference_pagerank(us, vs, tol=1e-12, max_iters=25)
    assert result.iterations == ref_iters
    for v, x in ref.items():
        assert result.value_map()[v] == pytest.approx(x, abs=1e-12)


def test_wcc_exact(loaded, graph):
    us, vs, _ = graph
    result = loaded.wcc()
    ref, _ = reference_wcc(us, vs)
    assert {v: int(x) for v, x in result.value_map().items()} == ref


def test_per_iteration_times_positive_and_recorded(loaded):
    result = loaded.pagerank(max_iters=5, tol=1e-15)
    assert len(result.per_iter_seconds) == 5
    assert all(t > 0 for t in result.per_iter_seconds)
    assert result.total_seconds == pytest.approx(sum(result.per_iter_seconds))


def test_wcc_active_set_shrinks_cost(loaded):
    """Later WCC supersteps touch fewer active vertices and cost less."""
    result = loaded.wcc()
    assert result.per_iter_seconds[-1] < result.per_iter_seconds[0]


def test_more_ranks_less_compute_per_iter():
    # Needs a graph large enough that compute dominates the allreduce.
    us, vs, _ = powerlaw_graph(3000, 120_000, alpha=2.3, seed=48)

    def per_iter(ranks_per_node):
        b = Blogel(nodes=8, ranks_per_node=ranks_per_node)
        b.load(us, vs)
        return b.pagerank(max_iters=2, tol=1e-15).mean_iter_seconds

    # More ranks help until the allreduce term dominates — exactly why
    # the paper found 8 ranks/node fastest.
    assert per_iter(8) < per_iter(1)


def test_allreduce_penalizes_huge_rank_counts(graph):
    us, vs, _ = graph

    def per_iter(nodes, rpn):
        b = Blogel(nodes=nodes, ranks_per_node=rpn)
        b.load(us, vs)
        return b.pagerank(max_iters=3, tol=1e-15).mean_iter_seconds

    # On this small graph, 2048 ranks' allreduce exceeds the compute
    # saved relative to 64 ranks.
    assert per_iter(64, 32) > per_iter(8, 8)


def test_voronoi_slower_than_hash(graph):
    us, vs, _ = graph
    hash_b = Blogel(nodes=8, ranks_per_node=8, partitioner="hash")
    hash_b.load(us, vs)
    vor_b = Blogel(nodes=8, ranks_per_node=8, partitioner="voronoi")
    vor_b.load(us, vs)
    assert (
        vor_b.pagerank(max_iters=3, tol=1e-15).mean_iter_seconds
        > hash_b.pagerank(max_iters=3, tol=1e-15).mean_iter_seconds
    )


def test_voronoi_results_still_exact(graph):
    us, vs, _ = graph
    vor = Blogel(nodes=4, ranks_per_node=4, partitioner="voronoi")
    vor.load(us, vs)
    ref, _ = reference_wcc(us, vs)
    assert {v: int(x) for v, x in vor.wcc().value_map().items()} == ref


def test_unknown_partitioner_rejected():
    with pytest.raises(ValueError):
        Blogel(partitioner="metis")


def test_run_before_load_rejected():
    with pytest.raises(RuntimeError):
        Blogel().pagerank()
