"""DynamicGraph storage semantics."""

import numpy as np

from repro.graph import DynamicGraph, EdgeBatch


def test_insert_and_query():
    g = DynamicGraph()
    assert g.insert_edge(1, 2)
    assert g.has_edge(1, 2)
    assert not g.has_edge(2, 1)  # directed
    assert g.num_edges == 1
    assert g.num_vertices == 2


def test_duplicate_insert_is_noop():
    g = DynamicGraph()
    assert g.insert_edge(1, 2)
    assert not g.insert_edge(1, 2)
    assert g.num_edges == 1


def test_remove_and_missing_remove():
    g = DynamicGraph()
    g.insert_edge(1, 2)
    assert g.remove_edge(1, 2)
    assert not g.remove_edge(1, 2)
    assert g.num_edges == 0
    assert g.num_vertices == 0  # both endpoints pruned


def test_self_loop_allowed():
    g = DynamicGraph()
    assert g.insert_edge(5, 5)
    assert g.degree(5) == 2  # in + out
    assert g.num_vertices == 1


def test_degrees():
    g = DynamicGraph()
    g.insert_edge(0, 1)
    g.insert_edge(0, 2)
    g.insert_edge(2, 0)
    assert g.out_degree(0) == 2
    assert g.in_degree(0) == 1
    assert g.degree(0) == 3
    assert g.degree(99) == 0


def test_neighbors():
    g = DynamicGraph()
    g.insert_edge(0, 1)
    g.insert_edge(0, 2)
    assert g.out_neighbors(0) == {1, 2}
    assert g.in_neighbors(1) == {0}
    assert g.out_neighbors(42) == set()


def test_apply_batch_counts_effective_changes():
    g = DynamicGraph()
    batch = EdgeBatch.insertions([0, 0, 1], [1, 1, 2])  # one duplicate
    assert g.apply_batch(batch) == 2
    assert g.num_edges == 2


def test_apply_batch_with_deletions_in_order():
    g = DynamicGraph()
    batch = EdgeBatch(
        actions=np.array([1, -1, 1], dtype=np.int8),
        us=np.array([0, 0, 0]),
        vs=np.array([1, 1, 1]),
    )
    assert g.apply_batch(batch) == 3
    assert g.has_edge(0, 1)


def test_edge_arrays_deterministic_and_complete():
    g = DynamicGraph()
    edges = [(3, 1), (1, 2), (3, 0), (0, 3)]
    for u, v in edges:
        g.insert_edge(u, v)
    us, vs = g.edge_arrays()
    assert len(us) == 4
    assert set(zip(us.tolist(), vs.tolist())) == set(edges)
    # Sorted order: deterministic regardless of insertion order.
    g2 = DynamicGraph()
    for u, v in reversed(edges):
        g2.insert_edge(u, v)
    us2, vs2 = g2.edge_arrays()
    assert np.array_equal(us, us2) and np.array_equal(vs, vs2)


def test_equality_and_clear():
    a, b = DynamicGraph(), DynamicGraph()
    a.insert_edge(1, 2)
    b.insert_edge(1, 2)
    assert a == b
    b.insert_edge(2, 3)
    assert a != b
    b.clear()
    assert b.num_edges == 0 and b.num_vertices == 0


def test_degree_dict_matches():
    g = DynamicGraph()
    g.insert_edge(0, 1)
    g.insert_edge(1, 0)
    g.insert_edge(1, 2)
    assert g.degree_dict() == {0: 2, 1: 3, 2: 1}


def test_vertex_pruned_only_when_fully_isolated():
    g = DynamicGraph()
    g.insert_edge(0, 1)
    g.insert_edge(1, 0)
    g.remove_edge(0, 1)
    assert g.num_vertices == 2  # (1, 0) still holds both
    g.remove_edge(1, 0)
    assert g.num_vertices == 0
