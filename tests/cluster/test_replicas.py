"""The split-vertex replica round, without a cluster.

:class:`ReplicaRound` is bookkeeping plus one fold: a primary must fold
a split vertex's partials to the same floats whatever order the
replicas' REPLICA_SYNC batches arrive in, because arrival order is
fabric timing.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.replicas import ReplicaRound
from repro.cluster.vertextable import _VertexTable


def _table(ids, accum, got, outdeg):
    table = _VertexTable(np.asarray(ids, dtype=np.int64))
    table.accum = np.asarray(accum, dtype=np.float64)
    table.got = np.asarray(got, dtype=bool)
    table.out_deg_local = np.asarray(outdeg, dtype=np.float64)
    return table


def test_a_replica_ships_its_partials_and_waits_for_the_values():
    replicas = ReplicaRound(1, {10: [0, 1], 20: [2, 1], 30: [1, 0]})
    table = _table([10, 20, 30], [0.5, 0.25, 0.125], [True, False, True], [3, 1, 2])
    syncs = replicas.begin(table, identity=0.0)
    # One payload per remote primary, primaries ascending.
    assert [primary for primary, _ in syncs] == [0, 2]
    assert syncs[0][1]["verts"].tolist() == [10]
    assert syncs[0][1]["partials"].tolist() == [0.5]
    assert syncs[1][1]["outdeg"].tolist() == [1.0]
    # The snapshot resets every split row; the primary's own row waits
    # for its one remote partial.
    assert table.accum.tolist() == [0.0, 0.0, 0.0] and not table.got.any()
    assert replicas.expected_values == {10, 20}
    assert replicas.expected_syncs == {30: 1}
    assert replicas.fold_ready(np.add, 0.0) is None
    replicas.receive({"verts": [30], "partials": [1.0], "got": [False], "outdeg": [4.0]})
    verts, agg, got, outdeg = replicas.fold_ready(np.add, 0.0)
    assert verts.tolist() == [30] and agg.tolist() == [1.125]
    assert got.tolist() == [True] and outdeg.tolist() == [6.0]
    assert replicas.expected_syncs == {} and replicas.sync_buf == []
    pushes = replicas.value_pushes(verts, [0.75], [True], outdeg)
    assert [(replica, p["verts"].tolist(), p["values"].tolist()) for replica, p in pushes] == [
        (0, [30], [0.75])
    ]
    replicas.values_in([10, 20])
    assert replicas.expected_values == set()


def test_applies_are_reported_in_vertex_order():
    replicas = ReplicaRound(0, {})
    assert replicas.applied_rows() is None
    replicas.applied(np.array([9, 4]), [1.0, 2.0], [1.5, 2.5], [True, False])
    old, new, active = replicas.applied_rows()
    assert old.tolist() == [2.0, 1.0] and new.tolist() == [2.5, 1.5]
    assert active.dtype == bool and active.tolist() == [False, True]


_FLOATS = st.floats(-1e12, 1e12, allow_nan=False, width=64)


@st.composite
def _syncs(draw):
    """A primary (agent 0) hosting 1-5 split vertices, each replicated
    on 1-4 other agents; every remote replica's REPLICA_SYNC batch."""
    vertices = draw(st.lists(st.integers(0, 50), min_size=1, max_size=5, unique=True))
    my_split = {
        v: [0, *draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))]
        for v in vertices
    }
    batches = []
    for replica in range(1, 5):
        verts = sorted(v for v in vertices if replica in my_split[v])
        if verts:
            n = len(verts)
            batches.append(
                {
                    "verts": np.array(verts, dtype=np.int64),
                    "partials": np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n))),
                    "got": np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
                    "outdeg": np.array(
                        draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=float
                    ),
                }
            )
    own = {v: draw(_FLOATS) for v in vertices}
    return my_split, own, batches


def _fold_in(my_split, own, batches, ufunc, identity):
    """What the primary folds when the batches arrive in this order."""
    replicas = ReplicaRound(0, my_split)
    ids = sorted(my_split)
    table = _table(ids, [own[v] for v in ids], [True] * len(ids), [1.0] * len(ids))
    assert replicas.begin(table, identity) == []  # every row is its own
    folded = {}
    for batch in batches:
        replicas.receive(batch)
        out = replicas.fold_ready(ufunc, identity)
        if out is not None:
            for v, agg, got, outdeg in zip(*out):
                folded[int(v)] = (agg, got, outdeg)
    assert sorted(folded) == ids and replicas.sync_buf == []
    return np.array([folded[v] for v in ids], dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    case=_syncs(),
    order=st.randoms(use_true_random=False),
    fold=st.sampled_from([(np.add, 0.0), (np.minimum, np.inf)]),
)
def test_any_arrival_order_folds_bit_identically(case, order, fold):
    my_split, own, batches = case
    shuffled = list(batches)
    order.shuffle(shuffled)
    assert _fold_in(my_split, own, shuffled, *fold) == _fold_in(my_split, own, batches, *fold)
