"""Consistent hashing over a 64-bit ring with virtual agents (§3.4.1–2).

Each member (Agent) contributes ``virtual_factor`` positions to the ring
(100 by default — the paper's experimentally chosen value, Figure 6).  A
key is owned by the member whose position is the *next highest* on the
ring, wrapping around.  Lookups are a binary search over the sorted
position vector: O(log(P · virtual_factor)).

The property that makes ElGA elastic: when a member joins or leaves,
only keys in the ring arcs adjacent to its virtual positions change
owner — everything else stays put (tested property-based in
``tests/hashing/test_ring_properties.py``).
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.hashing.hashes import wang64

U64 = np.uint64


class ConsistentHashRing:
    """A 64-bit consistent-hash ring with virtual nodes.

    Parameters
    ----------
    members:
        Initial member ids (non-negative ints, e.g. Agent ids).
    virtual_factor:
        Virtual positions per member (paper default: 100).
    hash_fn:
        64-bit hash used both for member positions and key lookups.
    seed:
        Mixed into member position derivation so independent rings can
        be decorrelated if desired; all participants in one cluster must
        share the same seed (it is part of the directory broadcast).

    Examples
    --------
    >>> ring = ConsistentHashRing([0, 1, 2], virtual_factor=50)
    >>> owner = ring.lookup(12345)
    >>> owner in {0, 1, 2}
    True
    >>> ring.remove(owner)
    >>> ring.lookup(12345) in ring.members()
    True
    """

    def __init__(
        self,
        members: Iterable[int] = (),
        virtual_factor: int = 100,
        hash_fn: Callable = wang64,
        seed: int = 0,
        weights: Optional[dict] = None,
    ):
        if virtual_factor < 1:
            raise ValueError(f"virtual_factor must be >= 1, got {virtual_factor}")
        self.virtual_factor = int(virtual_factor)
        self.hash_fn = hash_fn
        self.seed = int(seed)
        self._members: dict = {}  # member id -> positions array
        self._weights: dict = {}
        self._positions = np.empty(0, dtype=np.uint64)
        self._owners = np.empty(0, dtype=np.int64)
        self._dirty = False
        self._frozen = False
        weights = weights or {}
        # One hash call for the whole membership, sliced per member.
        ids = [int(m) for m in members]
        raws = [self._raw_keys(m, float(weights.get(m, 1.0))) for m in ids]
        if raws:
            hashed = np.asarray(self.hash_fn(np.concatenate(raws)), dtype=np.uint64)
            ends = np.cumsum([len(raw) for raw in raws])
            self._members = dict(zip(ids, np.split(hashed, ends[:-1])))
        self._rebuild()

    # -- membership --------------------------------------------------------

    def members(self) -> List[int]:
        """Sorted list of current member ids."""
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member_id: int) -> bool:
        return int(member_id) in self._members

    def add(self, member_id: int, weight: float = 1.0) -> None:
        """Add a member; O(virtual_factor · log) rebuild on next lookup.

        ``weight`` scales the member's virtual-position count — the
        §3.4.2 future-work extension for heterogeneous systems: a
        member with weight 2.0 contributes twice the virtual agents and
        therefore claims roughly twice the keys.

        Re-adding an existing member is idempotent: its old virtual
        positions are replaced (remove-then-insert), never duplicated.
        The rebalance planner leans on this to re-weight a live member
        in place.
        """
        self._check_mutable()
        member_id = int(member_id)
        if member_id in self._members:
            del self._members[member_id]
            self._weights.pop(member_id, None)
        self._insert(member_id, weight=float(weight))
        self._dirty = True

    def remove(self, member_id: int) -> None:
        """Remove a member; raises KeyError if absent."""
        self._check_mutable()
        del self._members[int(member_id)]
        self._weights.pop(int(member_id), None)
        self._dirty = True

    def weight_of(self, member_id: int) -> float:
        """The member's capacity weight (1.0 unless set at add time)."""
        return self._weights.get(int(member_id), 1.0)

    def _check_mutable(self) -> None:
        if self._frozen:
            raise TypeError(
                "a ring from shared_ring() is shared by every participant that "
                "asked for it and cannot change; construct a ConsistentHashRing "
                "to get a mutable one"
            )

    def _insert(self, member_id: int, weight: float = 1.0) -> None:
        raw = self._raw_keys(member_id, weight)
        self._members[member_id] = np.asarray(self.hash_fn(raw), dtype=np.uint64)

    def _raw_keys(self, member_id: int, weight: float) -> np.ndarray:
        """Validate a new member, record its weight and return the
        un-hashed keys of its virtual positions."""
        if member_id in self._weights:
            raise ValueError(f"member {member_id} already on the ring")
        if member_id < 0:
            raise ValueError(f"member ids must be non-negative, got {member_id}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        # Position = hash(member id combined with virtual index and seed).
        # The combine constant spreads sequential member ids before hashing
        # so even weak hash functions see distinct inputs.
        count = max(1, int(round(self.virtual_factor * weight)))
        self._weights[member_id] = weight
        vidx = np.arange(count, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (
                U64(member_id) * U64(0x100000001B3)
                + vidx * U64(0x9E3779B97F4A7C15)
                + U64(self.seed & 0xFFFFFFFFFFFFFFFF)
            )

    def _rebuild(self) -> None:
        if not self._members:
            self._positions = np.empty(0, dtype=np.uint64)
            self._owners = np.empty(0, dtype=np.int64)
            self._member_id_arr = np.empty(0, dtype=np.int64)
            self._succ_comp = np.empty(0, dtype=np.int64)
            self._succ_slots = np.empty(0, dtype=np.int64)
            self._succ_seg_start = np.zeros(1, dtype=np.int64)
            self._succ_first_slot = np.empty(0, dtype=np.int64)
            self._dirty = False
            return
        ids = np.array(sorted(self._members), dtype=np.int64)
        pos_list = [self._members[int(i)] for i in ids]
        positions = np.concatenate(pos_list)
        owners = np.repeat(ids, [len(p) for p in pos_list])
        # Sort by (position, owner) so position collisions resolve
        # identically on every participant.
        order = np.lexsort((owners, positions))
        self._positions = positions[order]
        self._owners = owners[order]
        # Per-member slot index, grouped, for the batched successor
        # lookup: slots sorted by (member index, slot index) plus the
        # composite key member_index * n_slots + slot that makes "first
        # slot >= s owned by member j" a single searchsorted.
        n_slots = len(self._positions)
        owner_idx = np.searchsorted(ids, self._owners)
        grp = np.argsort(owner_idx, kind="stable")
        self._member_id_arr = ids
        self._succ_slots = grp.astype(np.int64)
        self._succ_comp = owner_idx[grp].astype(np.int64) * n_slots + grp
        self._succ_seg_start = np.searchsorted(
            owner_idx[grp], np.arange(len(ids) + 1)
        ).astype(np.int64)
        self._succ_first_slot = self._succ_slots[self._succ_seg_start[:-1]]
        self._dirty = False

    def _ensure_built(self) -> None:
        if self._dirty:
            self._rebuild()

    # -- lookups -------------------------------------------------------------

    def lookup_hash(self, key_hashes) -> np.ndarray:
        """Owners for already-hashed keys (vectorized).

        The owner is the member at the next-highest ring position,
        wrapping past the top of the 64-bit space to position 0.
        """
        self._ensure_built()
        if len(self._members) == 0:
            raise LookupError("ring has no members")
        hashes = np.atleast_1d(np.asarray(key_hashes, dtype=np.uint64))
        idx = np.searchsorted(self._positions, hashes, side="left")
        idx[idx == len(self._positions)] = 0
        return self._owners[idx]

    def lookup(self, keys) -> "int | np.ndarray":
        """Owners for raw keys: hash then :meth:`lookup_hash`."""
        scalar = np.ndim(keys) == 0
        hashes = self.hash_fn(np.atleast_1d(np.asarray(keys, dtype=np.uint64)))
        owners = self.lookup_hash(hashes)
        return int(owners[0]) if scalar else owners

    def successors_hash(self, key_hash: int, k: int) -> List[int]:
        """The next ``k`` *distinct* members clockwise from ``key_hash``.

        This is the replica set for a split high-degree vertex: the
        paper selects "between the next k-highest Agents in the vector".
        If the ring has fewer than ``k`` members, all members are
        returned (a vertex cannot be split wider than the cluster).
        """
        self._ensure_built()
        if len(self._members) == 0:
            raise LookupError("ring has no members")
        k = min(int(k), len(self._members))
        start = int(np.searchsorted(self._positions, U64(key_hash), side="left"))
        n = len(self._positions)
        found: List[int] = []
        seen = set()
        for step in range(n):
            owner = int(self._owners[(start + step) % n])
            if owner not in seen:
                seen.add(owner)
                found.append(owner)
                if len(found) == k:
                    break
        return found

    def successors(self, key: int, k: int) -> List[int]:
        """Replica set for a raw key (hash applied first)."""
        return self.successors_hash(int(self.hash_fn(int(key))), k)

    def successors_hash_batch(self, key_hashes, ks) -> np.ndarray:
        """Replica sets for many hashed keys at once, fully vectorized.

        Returns an ``(n, k_max)`` int64 matrix whose row ``i`` holds the
        next ``ks[i]`` distinct members clockwise from ``key_hashes[i]``
        (identical to :meth:`successors_hash`), right-padded with ``-1``.
        ``ks`` may be a scalar or a per-key array; values are capped at
        the member count.

        The trick that removes the per-key ring walk: the ``j``-th
        successor of a start slot ``s`` is the member with the ``j``-th
        smallest *first slot at or after* ``s`` (wrapping).  With slots
        pre-grouped by member, each first-slot query is one searchsorted
        on a composite key, and the ordering is one argsort per key —
        all O(n · P log) array work, no Python loop.
        """
        self._ensure_built()
        if len(self._members) == 0:
            raise LookupError("ring has no members")
        hashes = np.atleast_1d(np.asarray(key_hashes, dtype=np.uint64))
        n_members = len(self._member_id_arr)
        ks_arr = np.minimum(
            np.broadcast_to(np.asarray(ks, dtype=np.int64), hashes.shape), n_members
        )
        if hashes.size == 0:
            return np.empty((0, 0), dtype=np.int64)
        if np.any(ks_arr < 1):
            raise ValueError("replica counts must be >= 1")
        n_slots = len(self._positions)
        starts = np.searchsorted(self._positions, hashes, side="left")
        ustarts, inverse = np.unique(starts, return_inverse=True)
        # First slot >= start owned by each member (wrapping adds
        # n_slots, which keeps wrapped members ordered by their first
        # slot from the ring's origin, after all non-wrapped ones —
        # exactly the scalar walk's visit order).
        qkeys = (
            np.arange(n_members, dtype=np.int64)[None, :] * n_slots
            + ustarts[:, None]
        )
        pos = np.searchsorted(self._succ_comp, qkeys.ravel()).reshape(qkeys.shape)
        valid = pos < self._succ_seg_start[1:][None, :]
        pos_c = np.minimum(pos, n_slots - 1)
        first = np.where(
            valid,
            self._succ_slots[pos_c],
            self._succ_first_slot[None, :] + n_slots,
        )
        order = np.argsort(first, axis=1, kind="stable")
        k_max = int(ks_arr.max())
        succ = self._member_id_arr[order[:, :k_max]][inverse]
        pad = np.arange(k_max, dtype=np.int64)[None, :] >= ks_arr[:, None]
        succ[pad] = -1
        return succ

    # -- introspection ---------------------------------------------------------

    def slots(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ring's own sorted ``(positions, owners)`` columns as
        read-only views: what a compiled lookup walks.
        :meth:`position_vector` is the copy to keep."""
        self._ensure_built()
        positions, owners = self._positions.view(), self._owners.view()
        positions.flags.writeable = owners.flags.writeable = False
        return positions, owners

    def position_vector(self) -> Tuple[np.ndarray, np.ndarray]:
        """(positions, owners) arrays — the broadcastable ring state."""
        self._ensure_built()
        return self._positions.copy(), self._owners.copy()


#: The rings :func:`shared_ring` handed out, by their inputs, for as
#: long as something holds them — a participant, or a directory state
#: still on its way to one — and rebuilt, equal, if a membership nobody
#: held any more comes back.
_SHARED: "weakref.WeakValueDictionary[tuple, ConsistentHashRing]" = (
    weakref.WeakValueDictionary()
)


def shared_ring(
    members: Iterable[int],
    weights: Optional[Mapping[int, float]],
    virtual_factor: int,
    hash_fn: Callable,
    seed: int,
) -> ConsistentHashRing:
    """*The* ring for these inputs: every caller in the process that
    passes equal ones gets the same, immutable object.

    A ring is a pure function of its member ids, their weights,
    ``virtual_factor``, ``hash_fn`` and ``seed``, and every participant
    of a cluster derives it from the same directory broadcast — so it is
    built once per membership, not once per participant.  The hash
    function is keyed by identity: swapping a ``HASH_FUNCTIONS`` entry
    yields new rings.  ``add`` / ``remove`` on the result raise
    ``TypeError``; construct a :class:`ConsistentHashRing` for a ring
    that changes.

    Examples
    --------
    >>> a = shared_ring([0, 1, 2], None, 50, wang64, 7)
    >>> a is shared_ring([2, 1, 0], {1: 1.0}, 50, wang64, 7)
    True
    >>> a is shared_ring([0, 1, 2], {1: 2.0}, 50, wang64, 7)
    False
    """
    ids = tuple(sorted(int(m) for m in members))
    weights = weights or {}
    scales = tuple(float(weights.get(m, 1.0)) for m in ids)
    virtual_factor, seed = int(virtual_factor), int(seed)
    key = (ids, scales, virtual_factor, hash_fn, seed)
    ring = _SHARED.get(key)
    if ring is None:
        ring = ConsistentHashRing(ids, virtual_factor, hash_fn, seed, dict(zip(ids, scales)))
        ring._frozen = True
        _SHARED[key] = ring
    return ring
