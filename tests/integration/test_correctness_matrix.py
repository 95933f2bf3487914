"""Cross-system agreement — the paper's correctness methodology.

"All results were checked for correctness among the baselines and
ElGA, and, when applicable, against ground truth ... We ensure our
implementation's correctness by comparing against the baselines and
ensured floating point values were correct up to 1e-8." (§4, §4.3)
"""

import pytest

from repro.baselines import Blogel, GraphX, Stinger, gapbs_wcc
from repro.core import ElGA, PageRank, WCC
from repro.gen import powerlaw_graph, rmat_graph
from repro.graph import compact_ids


@pytest.fixture(scope="module", params=["powerlaw", "rmat"])
def graph(request):
    if request.param == "powerlaw":
        return powerlaw_graph(900, 9000, alpha=2.15, seed=50)
    us, vs, n = rmat_graph(10, edge_factor=8, seed=50)
    return us, vs, n


@pytest.fixture(scope="module")
def elga_results(graph):
    us, vs, _ = graph
    elga = ElGA(nodes=2, agents_per_node=3, seed=51, replication_threshold=400)
    elga.ingest_edges(us, vs, n_streamers=2)
    pr = elga.run(PageRank(tol=1e-10, max_iters=40))
    wcc = elga.run(WCC())
    return pr, wcc


def test_pagerank_agrees_across_all_systems(graph, elga_results):
    us, vs, _ = graph
    elga_pr, _ = elga_results
    blogel = Blogel(nodes=4, ranks_per_node=4)
    blogel.load(us, vs)
    blogel_pr = blogel.pagerank(tol=1e-10, max_iters=40).value_map()
    graphx = GraphX(nodes=4)
    graphx.load(us, vs)
    graphx_pr = graphx.pagerank(tol=1e-10, max_iters=40).value_map()
    for v, x in blogel_pr.items():
        assert abs(elga_pr.values[v] - x) < 1e-8
        assert abs(graphx_pr[v] - x) < 1e-8


def test_wcc_agrees_across_all_systems(graph, elga_results):
    us, vs, n = graph
    _, elga_wcc = elga_results
    blogel = Blogel(nodes=4, ranks_per_node=4)
    blogel.load(us, vs)
    blogel_wcc = blogel.wcc().value_map()
    graphx = GraphX(nodes=4)
    graphx.load(us, vs)
    graphx_wcc = graphx.wcc().value_map()
    stinger = Stinger()
    stinger.load(us, vs)
    stinger_map = stinger.label_map()
    cu, cv, ids = compact_ids(us, vs)
    gap_labels, _ = gapbs_wcc(cu, cv, len(ids))
    for v, x in blogel_wcc.items():
        assert elga_wcc.values[v] == x
        assert graphx_wcc[v] == x
        assert stinger_map[v] == x
    # GAPbs labels: check the component partition matches.
    gap_map = {int(ids[i]): int(ids[gap_labels[i]]) for i in range(len(ids))}
    assert gap_map == blogel_wcc


def test_superstep_counts_identical(graph, elga_results):
    """'We observed each system perform the same number of supersteps.'"""
    us, vs, _ = graph
    elga_pr, _ = elga_results
    blogel = Blogel(nodes=4, ranks_per_node=4)
    blogel.load(us, vs)
    graphx = GraphX(nodes=4)
    graphx.load(us, vs)
    assert (
        elga_pr.steps
        == blogel.pagerank(tol=1e-10, max_iters=40).iterations
        == graphx.pagerank(tol=1e-10, max_iters=40).iterations
    )
