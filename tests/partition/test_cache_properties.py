"""Property: cached placement is bit-identical to uncached placement
across arbitrary directory churn.

Drives the same churn the directory produces — joins, leaves,
re-weights, term changes, sketch flushes, split-registry growth, and
batch-clock-only broadcasts (which leave the epoch unchanged) — against
one long-lived PlacementCache bound the way participants bind it (full
epoch + ring epoch, ring object reused while the ring epoch stands),
comparing every lookup (cold and warm) to a freshly built EdgePlacer.
Along the way the two memo tiers must drop exactly when their token
moves: the ring tier answers every unsplit row straight after a sketch
flush or a split registration, and nothing after a ring change.  What
a rebind reports as moved (``last_moved``) must be exactly the
vertices on which two fresh placers, one per state, disagree.

The memos are open-addressed id tables (``repro.kernels.id_table``).
What they learn must be exactly what the sorted-array learner —
``np.unique`` plus one ``np.insert`` per column, probed by
``searchsorted`` — learned: the same key -> value entries in every
tier, the same hit/miss split per call, the same counters, since the
cost model bills every lookup by that split.  The ids cover what the
tables must handle: negative ids, ids at and past 2**32 (where edge
keys stop being packable) and the int64 extremes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import ConsistentHashRing
from repro.partition import EdgePlacer, PlacementCache
from repro.sketch import CountMinSketch

ops = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("leave"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("weight"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("term"), st.just(0)),
        st.tuples(st.just("sketch"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("split"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("clock"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


@given(ops=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_cached_placement_identical_under_churn(ops, seed):
    rng = np.random.default_rng(seed)
    own = rng.integers(0, 200, size=120).astype(np.int64)
    other = rng.integers(0, 200, size=120).astype(np.int64)

    members = {0: 1.0, 1: 1.0}
    sketch = CountMinSketch(width=128, depth=4)
    split = set()
    term = membership_version = sketch_version = 0
    cache = PlacementCache()

    def fresh_ring():
        return ConsistentHashRing(sorted(members), virtual_factor=8, seed=2, weights=members)

    def check(ring_stands):
        epoch = (term, membership_version, sketch_version, len(split))
        ring = cache.ring if ring_stands else fresh_ring()
        gate = frozenset(split)
        cache.bind(
            epoch,
            EdgePlacer(ring, sketch.copy(), replication_threshold=15, split_gate=gate),
            ring_epoch=epoch[:2],
        )
        uncached = EdgePlacer(fresh_ring(), sketch, replication_threshold=15, split_gate=gate)
        expected = uncached.owner_of_edges(own, other)
        assert np.array_equal(cache.owner_of_edges(own, other), expected)  # cold-ish
        if ring_stands:
            # Whatever else moved, the ring tier still answers for every
            # vertex outside the registry (ring_owners below taught it all).
            assert cache.last_hits >= int((~uncached.gated(own)).sum())
        else:
            assert cache.last_hits == 0
        assert np.array_equal(cache.owner_of_edges(own, other), expected)  # warm
        assert cache.last_misses == 0
        assert np.array_equal(cache.ring_owners(own), uncached.ring_owners(own))
        assert np.array_equal(
            cache.replication_factor(own), uncached.replication_factor(own)
        )

    check(ring_stands=False)
    for op, arg in ops:
        ring_stands = True
        if op == "join":
            if arg not in members:
                members[arg] = 1.0
                membership_version += 1
                ring_stands = False
        elif op == "leave":
            if arg in members and len(members) > 1:
                del members[arg]
                membership_version += 1
                ring_stands = False
        elif op == "weight":
            if arg in members:
                members[arg] = 3.0 - members[arg]  # 1.0 <-> 2.0
                membership_version += 1
                ring_stands = False
        elif op == "term":
            term += 1
            ring_stands = False
        elif op == "sketch":
            sketch.add(np.full(20, arg, dtype=np.int64))
            sketch_version += 1
        elif op == "split":
            # The registry only gates vertices the sketch justifies.
            sketch.add(np.full(20, arg, dtype=np.int64))
            sketch_version += 1
            split.add(arg)
        # "clock": batch-clock bump — epoch unchanged, memos must survive.
        check(ring_stands)


@given(ops=ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_last_moved_is_what_two_fresh_placers_disagree_on(ops, seed):
    """Under a standing ring, ``last_moved`` is the brute-force set
    {v in memo ids | registry : k_old(v) != k_new(v)}, k_old and k_new
    from two fresh uncached placers; ``None`` after a first bind or a
    ring or term change; empty after a rebind that moved no epoch."""
    rng = np.random.default_rng(seed)
    own = rng.integers(0, 200, size=120).astype(np.int64)
    other = rng.integers(0, 200, size=120).astype(np.int64)
    members = {0: 1.0, 1: 1.0}
    sketch = CountMinSketch(width=128, depth=4)
    split = set()
    term = membership_version = sketch_version = 0
    cache = PlacementCache()

    def fresh_placer(state):
        members, sketch, split = state
        ring = ConsistentHashRing(sorted(members), virtual_factor=8, seed=2, weights=members)
        return EdgePlacer(ring, sketch, replication_threshold=15, split_gate=frozenset(split))

    def bind():
        """Bind the current state, then look up through it (which
        teaches the split memo); returns the state."""
        epoch = (term, membership_version, sketch_version, len(split))
        state = (dict(members), sketch.copy(), set(split))
        cache.bind(epoch, fresh_placer(state), ring_epoch=epoch[:2])
        cache.owner_of_edges(own, other)
        return state

    previous = bind()
    assert cache.last_moved is None
    for op, arg in ops:
        ring_epoch = (term, membership_version)
        if op == "join":
            members.setdefault(arg, 1.0)
        elif op == "leave" and arg in members and len(members) > 1:
            del members[arg]
        elif op == "weight" and arg in members:
            members[arg] = 3.0 - members[arg]  # 1.0 <-> 2.0
        elif op == "term":
            term += 1
        elif op in ("sketch", "split"):
            sketch.add(np.full(20, arg, dtype=np.int64))
            sketch_version += 1
            if op == "split":
                split.add(arg)
        if members != previous[0]:
            membership_version += 1
        memo_ids = cache._split_memo.items()[0]
        state = bind()
        if (term, membership_version) != ring_epoch:
            assert cache.last_moved is None
        else:
            registry = np.fromiter(split, dtype=np.int64, count=len(split))
            candidates = np.union1d(memo_ids, registry)
            k_old = fresh_placer(previous).replication_factor(candidates)
            k_new = fresh_placer(state).replication_factor(candidates)
            assert np.array_equal(cache.last_moved, candidates[k_old != k_new])
        previous = state


def _probe(ids, query):
    """(clamped positions, found mask) of ``query`` in sorted ``ids``."""
    if ids.size == 0:
        return np.zeros(query.size, dtype=np.int64), np.zeros(query.size, dtype=bool)
    pos = np.minimum(np.searchsorted(ids, query), ids.size - 1)
    return pos, ids[pos] == query


class ParentLearner(PlacementCache):
    """The sorted-array learner: each tier is sorted parallel columns
    probed by ``searchsorted``, learning by one ``np.unique`` per miss
    batch and one ``np.insert`` per column, and the edge memo by a
    re-``unique`` of memo plus batch.  The reference the table learner
    must equal entry for entry."""

    def _reset_ring_tier(self):
        self._r_ids = self._r_owner = np.empty(0, dtype=np.int64)
        self._r_scalar = {}

    def _reset_split_tier(self):
        self._k_ids = self._k = self._k_owner = np.empty(0, dtype=np.int64)
        self._e_keys = np.empty(0, dtype=np.uint64)
        self._e_owner = np.empty(0, dtype=np.int64)
        self._replica_sets = {}

    def _revalidate_split_tier(self, before):
        self._replica_sets = {}
        placer = self._require_placer()
        registry = placer.split_gate or ()
        ids = np.union1d(
            self._k_ids, np.fromiter(registry, dtype=np.int64, count=len(registry))
        )
        moved = ids[before.replication_factor(ids) != placer.replication_factor(ids)]
        same = ~np.isin(self._k_ids, moved)
        self._k_ids, self._k, self._k_owner = (
            self._k_ids[same], self._k[same], self._k_owner[same]
        )
        keep = ~np.isin((self._e_keys >> np.uint64(32)).astype(np.int64), moved)
        self._e_keys, self._e_owner = self._e_keys[keep], self._e_owner[keep]
        self._candidates(ids)  # learn the new factors the ordinary way
        return moved

    def _ring_lookup(self, verts):
        pos, hit = _probe(self._r_ids, verts)
        self.counters.add("placement_ring_memo_hits", int(np.count_nonzero(hit)))
        if hit.all():
            return self._r_owner[pos], hit
        owners = np.empty(verts.size, dtype=np.int64)
        owners[hit] = self._r_owner[pos[hit]]
        miss = ~hit
        fresh, inverse = np.unique(verts[miss], return_inverse=True)
        fresh_owner = self._require_placer().ring_owners(fresh)
        owners[miss] = fresh_owner[inverse]
        if self._r_ids.size + fresh.size <= self.max_vertices:
            at = np.searchsorted(self._r_ids, fresh)
            self._r_ids = np.insert(self._r_ids, at, fresh)
            self._r_owner = np.insert(self._r_owner, at, fresh_owner)
        return owners, hit

    def _candidates(self, verts):
        pos, known = _probe(self._k_ids, verts)
        if known.all():
            return self._k[pos], self._k_owner[pos], known
        placer = self._require_placer()
        k = np.empty(verts.size, dtype=np.int64)
        owner = np.empty(verts.size, dtype=np.int64)
        k[known] = self._k[pos[known]]
        owner[known] = self._k_owner[pos[known]]
        unknown = ~known
        fresh, inverse = np.unique(verts[unknown], return_inverse=True)
        fresh_k = placer.replication_factor(fresh)
        fresh_owner = np.where(fresh_k == 1, placer.ring_owners(fresh), -1)
        k[unknown] = fresh_k[inverse]
        owner[unknown] = fresh_owner[inverse]
        if self._k_ids.size + fresh.size <= self.max_vertices:
            at = np.searchsorted(self._k_ids, fresh)
            self._k_ids = np.insert(self._k_ids, at, fresh)
            self._k = np.insert(self._k, at, fresh_k)
            self._k_owner = np.insert(self._k_owner, at, fresh_owner)
        return k, owner, known

    def _split_owners(self, own, other):
        owners = np.empty(own.size, dtype=np.int64)
        hit = np.zeros(own.size, dtype=bool)
        packable = (own >= 0) & (own < 2**32) & (other >= 0) & (other < 2**32)
        keys = (own.astype(np.uint64) << np.uint64(32)) | other.astype(np.uint64)
        if self._e_keys.size and packable.any():
            rows = np.flatnonzero(packable)
            pos, found = _probe(self._e_keys, keys[rows])
            owners[rows[found]] = self._e_owner[pos[found]]
            hit[rows[found]] = True
        if not hit.all():
            miss = ~hit
            owners[miss] = self._require_placer().owner_of_edges(own[miss], other[miss])
            learn = miss & packable
            if learn.any():
                self._learn_edges(keys[learn], owners[learn])
        return owners, hit

    def _learn_edges(self, keys, owners):
        merged_keys = np.concatenate([self._e_keys, keys])
        merged_owners = np.concatenate([self._e_owner, owners])
        uniq, first = np.unique(merged_keys, return_index=True)
        if uniq.size > self.max_edges:
            uniq, first = np.unique(keys, return_index=True)
            merged_owners = owners
            if uniq.size > self.max_edges:
                return
        self._e_keys = uniq
        self._e_owner = merged_owners[first]

    def learned(self):
        return {
            "ring": dict(zip(self._r_ids.tolist(), self._r_owner.tolist())),
            "split": dict(zip(self._k_ids.tolist(), zip(self._k.tolist(), self._k_owner.tolist()))),
            "edges": dict(zip(self._e_keys.tolist(), self._e_owner.tolist())),
        }


def learned(cache):
    """What each tier of a table-backed cache holds, key -> value, in the
    reference learner's terms: (k, owner) per split vertex, edge keys as
    unsigned packed pairs."""
    ring = dict(zip(*(col.tolist() for col in cache._ring_memo.items())))
    ids, coded = cache._split_memo.items()  # ring owner where k == 1, else -k
    keys, owners = cache._edge_memo.items()
    return {
        "ring": ring,
        "split": dict(zip(ids.tolist(), zip(np.maximum(-coded, 1).tolist(),
                                            np.maximum(coded, -1).tolist()))),
        "edges": dict(zip(keys.view(np.uint64).tolist(), owners.tolist())),
    }


#: Ids the memos must tell apart: negatives, zero, the packable edge
#: key's 32-bit boundary on both sides, and the int64 extremes.
EDGE_IDS = [-(2**63), -(2**32), -1, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**63 - 1]


@st.composite
def lookup_batches(draw):
    """Vertex batches as the cluster hands them over: a store's sorted
    unique keys, sorted runs with repeats, arbitrary order, and repeats
    of what an earlier batch already taught — mostly small ids, some
    from the edges of the id range."""
    ids = st.one_of(st.integers(min_value=0, max_value=60), st.sampled_from(EDGE_IDS))
    verts = draw(st.lists(ids, max_size=40))
    shape = draw(st.sampled_from(["distinct", "sorted", "unsorted"]))
    if shape == "distinct":
        verts = sorted(set(verts))
    elif shape == "sorted":
        verts = sorted(verts)
    return np.asarray(verts, dtype=np.int64)


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(["ring", "sketch", "split", "clock"]), lookup_batches(),
                  lookup_batches()),
        min_size=1, max_size=10,
    ),
    max_vertices=st.sampled_from([20, 2_000_000]),
    max_edges=st.sampled_from([2, 1_000_000]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_table_learner_learns_exactly_what_the_sorted_learner_did(
    steps, max_vertices, max_edges, seed
):
    rng = np.random.default_rng(seed)
    sizes = dict(max_vertices=max_vertices, max_edges=max_edges)
    tables, parent = PlacementCache(**sizes), ParentLearner(**sizes)
    members = {0: 1.0, 1: 1.0, 2: 1.0}
    sketch = CountMinSketch(width=64, depth=3)
    split = set()
    ring_version = sketch_version = 0
    for op, own, other in steps:
        if op == "ring":
            members[len(members)] = 1.0
            ring_version += 1
        elif op in ("sketch", "split") and own.size:
            hub = int(rng.choice(own))
            sketch.add(np.full(30, hub, dtype=np.int64))
            sketch_version += 1
            if op == "split":
                split.add(hub)
        ring = ConsistentHashRing(sorted(members), virtual_factor=4, seed=3)
        epoch = (ring_version, sketch_version, len(split))
        for cache in (tables, parent):
            placer = EdgePlacer(ring, sketch.copy(), replication_threshold=20,
                                split_gate=frozenset(split))
            cache.bind(epoch, placer, ring_epoch=epoch[:1])
        other = np.resize(other, own.size) if other.size else np.zeros(own.size, np.int64)
        for call in (
            lambda c: c.owner_of_edges(own, other),
            lambda c: c.ring_owners(own),
            lambda c: c.replication_factor(own),
            lambda c: c.owner_of_edges(own, other),
        ):
            assert np.array_equal(call(tables), call(parent))
            assert (tables.last_hits, tables.last_misses) == (parent.last_hits, parent.last_misses)
        assert learned(tables) == parent.learned()
        assert tables.counters.counts == parent.counters.counts
