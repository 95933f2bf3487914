"""The §4.4 dynamic-change methodology, end to end on the cluster.

"We model their dynamic change by first deleting a random sample of
edges and second adding the sample back in, as a batch" — applied to a
running deployment, with results validated after every step.
"""

import numpy as np
import pytest

from repro.core import ElGA, PageRank, WCC
from repro.gen import load_dataset
from repro.graph import delete_reinsert_batches
from tests.conftest import reference_wcc


@pytest.mark.slow
def test_delete_reinsert_cycle_on_cluster():
    data = load_dataset("skitter", scale=0.08, seed=100)
    us, vs = data.us, data.vs
    elga = ElGA(nodes=2, agents_per_node=3, seed=101)
    elga.ingest_edges(us, vs, n_streamers=2)
    baseline_pr = elga.run(PageRank(max_iters=8, tol=1e-15))
    rng = np.random.default_rng(102)

    for deletions, insertions in delete_reinsert_batches(us, vs, 200, rng, n_batches=2):
        elga.apply_batch(deletions)
        assert elga.validate_against_reference()
        # The graph shrank; a run on the reduced graph is correct.
        mid = elga.run(WCC())
        mid_us, mid_vs = elga.reference.edge_arrays()
        ref_mid, _ = reference_wcc(mid_us, mid_vs)
        assert {v: int(x) for v, x in mid.values.items()} == ref_mid

        elga.apply_batch(insertions)
        assert elga.validate_against_reference()

    # After every delete/re-insert cycle the graph — and therefore the
    # computation — is exactly restored.
    final_pr = elga.run(PageRank(max_iters=8, tol=1e-15))
    assert set(final_pr.values) == set(baseline_pr.values)
    worst = max(abs(final_pr.values[v] - x) for v, x in baseline_pr.values.items())
    assert worst < 1e-12


def test_sketch_restored_after_delete_reinsert():
    """Turnstile sketch maintenance: deletions decrement, so a full
    cycle leaves the global degree sketch exactly where it started."""
    data = load_dataset("amazon0601", scale=0.05, seed=103)
    elga = ElGA(nodes=2, agents_per_node=2, seed=104)
    elga.ingest_edges(data.us, data.vs, n_streamers=2)
    before = elga.cluster.lead.state.sketch.copy()
    rng = np.random.default_rng(105)
    for deletions, insertions in delete_reinsert_batches(
        data.us, data.vs, 100, rng, n_batches=1
    ):
        elga.apply_batch(deletions)
        elga.apply_batch(insertions)
    after = elga.cluster.lead.state.sketch
    assert after == before
