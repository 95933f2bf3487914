"""Property-based tests: the turnstile stream model (Definition 2.3)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DynamicGraph, EdgeBatch

edges = st.tuples(
    st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)
)
edge_lists = st.lists(edges, min_size=0, max_size=60)


def _insert_all(pairs):
    g = DynamicGraph()
    for u, v in pairs:
        g.insert_edge(u, v)
    return g


@given(pairs=edge_lists)
@settings(max_examples=80, deadline=None)
def test_graph_is_set_of_applied_edges(pairs):
    g = _insert_all(pairs)
    distinct = set(pairs)
    assert g.num_edges == len(distinct)
    for u, v in distinct:
        assert g.has_edge(u, v)


@given(pairs=edge_lists)
@settings(max_examples=60, deadline=None)
def test_insert_then_remove_everything_empties(pairs):
    g = _insert_all(pairs)
    for u, v in set(pairs):
        assert g.remove_edge(u, v)
    assert g.num_edges == 0
    assert g.num_vertices == 0


@given(pairs=edge_lists)
@settings(max_examples=60, deadline=None)
def test_batch_apply_equals_loop(pairs):
    if not pairs:
        return
    us = np.array([p[0] for p in pairs])
    vs = np.array([p[1] for p in pairs])
    via_batch = DynamicGraph()
    via_batch.apply_batch(EdgeBatch.insertions(us, vs))
    via_loop = _insert_all(pairs)
    assert via_batch == via_loop


@given(pairs=edge_lists)
@settings(max_examples=60, deadline=None)
def test_apply_then_inverted_is_identity(pairs):
    if not pairs:
        return
    # Only apply the inverse to what actually changed: start from a
    # deduplicated batch so insert/undo is exact.
    distinct = sorted(set(pairs))
    batch = EdgeBatch.insertions([p[0] for p in distinct], [p[1] for p in distinct])
    g = DynamicGraph()
    g.apply_batch(batch)
    g.apply_batch(batch.inverted())
    assert g.num_edges == 0


@given(pairs=edge_lists)
@settings(max_examples=60, deadline=None)
def test_degree_sums_equal_twice_edges(pairs):
    g = _insert_all(pairs)
    degrees = g.degree_dict()
    assert sum(degrees.values()) == 2 * g.num_edges


@given(pairs=edge_lists)
@settings(max_examples=60, deadline=None)
def test_edge_arrays_round_trip(pairs):
    g = _insert_all(pairs)
    us, vs = g.edge_arrays()
    rebuilt = DynamicGraph()
    rebuilt.apply_batch(EdgeBatch.insertions(us, vs))
    assert rebuilt == g
