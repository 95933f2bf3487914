"""CSR construction and the static reference kernels."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import build_csr, compact_ids, pagerank_csr, symmetrize, wcc_labels


def test_build_csr_basic():
    csr = build_csr(np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0]))
    assert csr.n == 3
    assert csr.m == 4
    assert csr.neighbors(0).tolist() == [1, 2]
    assert csr.neighbors(1).tolist() == [2]
    assert csr.degrees().tolist() == [2, 1, 1]


def test_build_csr_row_sources_inverse():
    us = np.array([2, 0, 1, 0])
    vs = np.array([0, 1, 2, 2])
    csr = build_csr(us, vs)
    rebuilt_us = np.repeat(np.arange(csr.n), csr.degrees())
    assert sorted(zip(rebuilt_us.tolist(), csr.indices.tolist())) == sorted(
        zip(us.tolist(), vs.tolist())
    )


def test_build_csr_validates():
    with pytest.raises(ValueError):
        build_csr(np.array([0]), np.array([1, 2]))
    with pytest.raises(ValueError):
        build_csr(np.array([-1]), np.array([0]))
    with pytest.raises(ValueError):
        build_csr(np.array([5]), np.array([0]), n=3)


def test_pagerank_matches_networkx():
    G = nx.gnm_random_graph(150, 900, seed=2, directed=True)
    us = np.array([u for u, v in G.edges()])
    vs = np.array([v for u, v in G.edges()])
    ranks, _ = pagerank_csr(us, vs, 150, tol=1e-12, max_iters=200)
    # networkx redistributes dangling mass; compare rank ordering of the
    # top vertices instead of raw values.
    nx_pr = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=200)
    ours_top = np.argsort(ranks)[::-1][:10]
    nx_top = sorted(nx_pr, key=nx_pr.get, reverse=True)[:10]
    assert len(set(ours_top.tolist()) & set(nx_top)) >= 7


def test_pagerank_sums_below_one_with_dangling():
    # Pregel semantics: dangling mass is lost, not redistributed.
    us = np.array([0, 1])
    vs = np.array([1, 2])  # vertex 2 dangles
    ranks, _ = pagerank_csr(us, vs, 3, max_iters=50)
    assert ranks.sum() <= 1.0 + 1e-9


def test_pagerank_uniform_on_cycle():
    n = 8
    us = np.arange(n)
    vs = (np.arange(n) + 1) % n
    ranks, _ = pagerank_csr(us, vs, n, tol=1e-14, max_iters=500)
    assert np.allclose(ranks, 1.0 / n, atol=1e-10)


def test_pagerank_convergence_iterations():
    us = np.arange(10)
    vs = (np.arange(10) + 1) % 10
    _, iters = pagerank_csr(us, vs, 10, tol=1e-3)
    assert iters < 20


def test_pagerank_invalid_n():
    with pytest.raises(ValueError):
        pagerank_csr(np.array([0]), np.array([0]), 0)


def test_wcc_matches_networkx():
    G = nx.gnm_random_graph(300, 500, seed=5, directed=True)
    us = np.array([u for u, v in G.edges()])
    vs = np.array([v for u, v in G.edges()])
    labels, _ = wcc_labels(us, vs, 300)
    assert len(set(labels.tolist())) == nx.number_weakly_connected_components(G)
    for comp in nx.weakly_connected_components(G):
        assert len({labels[v] for v in comp}) == 1


def test_wcc_label_is_component_minimum():
    us = np.array([5, 6])
    vs = np.array([6, 7])
    labels, _ = wcc_labels(us, vs, 8)
    assert labels[5] == labels[6] == labels[7] == 5


def test_wcc_incremental_activation():
    """With prior labels and only batch endpoints active, the result
    matches a full recompute — the Figure 15 strategy."""
    us = np.array([0, 1, 3, 4])
    vs = np.array([1, 2, 4, 5])
    full, _ = wcc_labels(us, vs, 6)
    # Add the bridging edge (2, 3); only its endpoints activate.
    us2 = np.concatenate([us, [2]])
    vs2 = np.concatenate([vs, [3]])
    incremental, iters = wcc_labels(us2, vs2, 6, init_labels=full, active=np.array([2, 3]))
    scratch, scratch_iters = wcc_labels(us2, vs2, 6)
    assert np.array_equal(incremental, scratch)
    assert iters <= scratch_iters


def test_wcc_init_labels_validated():
    with pytest.raises(ValueError):
        wcc_labels(np.array([0]), np.array([1]), 2, init_labels=np.array([0]))


def test_symmetrize_dedups():
    us, vs = symmetrize(np.array([0, 1, 0]), np.array([1, 0, 1]))
    assert sorted(zip(us.tolist(), vs.tolist())) == [(0, 1), (1, 0)]


def test_compact_ids_round_trip():
    us = np.array([10, 30, 10])
    vs = np.array([30, 99, 99])
    cu, cv, ids = compact_ids(us, vs)
    assert ids.tolist() == [10, 30, 99]
    assert np.array_equal(ids[cu], us)
    assert np.array_equal(ids[cv], vs)
