"""Update-batch edge cases and the applied-row accounting they feed.

An agent dirties only the rows that *effectively* changed its stores
(inserted a new edge, deleted a present one) and those rows seed the
activation frontier of the next delta run — so no-op rows must neither
count as applied nor wake any vertex.
"""

import numpy as np
import pytest

from repro.cluster.cluster import sorted_agents
from repro.core import ElGA, WCC
from repro.graph import DynamicGraph, EdgeBatch


def _empty_batch() -> EdgeBatch:
    return EdgeBatch(
        np.empty(0, np.int8), np.empty(0, np.int64), np.empty(0, np.int64)
    )


# -- DynamicGraph (the mirror the agents' stores must agree with) --------


def test_empty_batch_is_noop():
    g = DynamicGraph()
    g.insert_edge(0, 1)
    assert g.apply_batch(_empty_batch()) == 0
    assert g.num_edges == 1


def test_insert_and_delete_same_edge_in_one_batch():
    """Both rows are effective (the insert lands, then the delete undoes
    it), yet the graph ends exactly where it started."""
    g = DynamicGraph()
    g.insert_edge(9, 8)
    batch = EdgeBatch(
        actions=np.array([1, -1], dtype=np.int8),
        us=np.array([3, 3]),
        vs=np.array([4, 4]),
    )
    assert g.apply_batch(batch) == 2
    assert g.num_edges == 1 and not g.has_edge(3, 4)
    assert g.num_vertices == 2  # 3 and 4 pruned again


def test_delete_of_never_inserted_edge_is_not_applied():
    g = DynamicGraph()
    g.insert_edge(0, 1)
    assert g.apply_batch(EdgeBatch.deletions([5], [6])) == 0
    assert g.apply_batch(EdgeBatch.deletions([0], [2])) == 0  # vertex known, edge not
    assert g.num_edges == 1 and g.num_vertices == 2


def test_duplicate_insert_rows_apply_once():
    g = DynamicGraph()
    batch = EdgeBatch.insertions([7, 7, 7], [8, 8, 8])
    assert g.apply_batch(batch) == 1
    assert g.num_edges == 1


# -- agents: the accounting activation seeding relies on -----------------


@pytest.fixture()
def small_cluster():
    elga = ElGA(nodes=2, agents_per_node=2, seed=23)
    elga.ingest_edges(np.array([0, 1, 2]), np.array([1, 2, 3]))
    return elga


def _applied(elga) -> int:
    return sum(a.metrics.updates_applied for a in sorted_agents(elga.cluster.agents))


def _dirty_rows(elga) -> int:
    return sum(len(a.shard.dirty_log) for a in sorted_agents(elga.cluster.agents))


def test_empty_batch_applies_nothing(small_cluster):
    elga = small_cluster
    applied, dirty = _applied(elga), _dirty_rows(elga)
    elga.apply_batch(_empty_batch())
    assert _applied(elga) == applied
    assert _dirty_rows(elga) == dirty


def test_noop_delete_applies_nothing(small_cluster):
    elga = small_cluster
    applied, dirty = _applied(elga), _dirty_rows(elga)
    elga.apply_batch(EdgeBatch.deletions([0], [3]))  # never inserted
    assert _applied(elga) == applied
    assert _dirty_rows(elga) == dirty
    assert elga.validate_against_reference()


def test_insert_delete_same_batch_counts_both_rows(small_cluster):
    """Each effective row lands in both the out- and in-store, so the
    insert+delete pair accounts for four applied rows — and the stores
    still mirror the reference exactly.  Dirty rows are kept only for a
    program that can read them, so one has run first."""
    elga = small_cluster
    elga.run(WCC())
    applied, dirty = _applied(elga), _dirty_rows(elga)
    batch = EdgeBatch(
        actions=np.array([1, -1], dtype=np.int8),
        us=np.array([0, 0]),
        vs=np.array([3, 3]),
    )
    elga.apply_batch(batch)
    assert _applied(elga) - applied == 4
    assert _dirty_rows(elga) - dirty == 4
    assert elga.validate_against_reference()


def test_duplicate_insert_does_not_seed_activation(small_cluster):
    """Re-inserting a present edge is a no-op: the next incremental run
    sees an empty frontier and quiesces immediately."""
    elga = small_cluster
    elga.run(WCC())
    elga.apply_batch(EdgeBatch.insertions([0], [1]))  # already present
    result = elga.run(WCC(), incremental=True)
    assert result.steps <= 2
    assert result.values[3] == 0.0
