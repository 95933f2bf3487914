"""CountMinSketch (Cormode & Muthukrishnan), batch-vectorized.

The sketch is a ``depth × width`` counter table.  Each update hashes the
key once per row (row-salted Wang hashes) and increments one cell per
row; a query takes the minimum across rows.  A batch of keys is one
pass of :func:`repro.kernels.sketch_query` / :func:`~repro.kernels.sketch_add`
(compiled, or their numpy reference).  For width ``w = ceil(e/ε)``
and depth ``d = ceil(ln(1/δ))`` the estimate after ``m`` total count is
within ``+ε·m`` of the truth with probability ``1 − δ`` (§3.3.1).

ElGA's sizing example: a 100-billion-edge graph with width 2^18 and
depth 8 gives each degree estimate within ~1 M at 99.965 % probability —
an 8 MB table, trivially broadcastable.  :meth:`CountMinSketch.size_for`
reproduces that arithmetic.

Deletions are supported (the dynamic graph is a turnstile stream); the
one-direction-only guarantee (never underestimate) holds as long as the
stream never deletes an edge that was not previously inserted, which the
graph layer enforces.

A sketch holds its table by reference.  A new or cleared sketch holds
none (all counters zero) and allocates one at its first count;
:meth:`~CountMinSketch.copy` shares the table, frozen
(``writeable=False``), in O(1), and whichever side writes first
(``add``, ``remove``, ``merge``) copies it privately.  So an agent's
sketch delta, its checkpoints and the flushed SKETCH_DELTA cost a table
only between a first count and the flush, and a directory's snapshots
share the lead's.  :attr:`~CountMinSketch.nbytes` is the declared
``depth × width × itemsize`` whether or not a table is held: it is the
wire size, not the memory.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro import kernels
from repro.hashing.hashes import as_u64_keys, wang64

U64 = np.uint64


class CountMinSketch:
    """A mergeable count-min sketch over 64-bit keys.

    Parameters
    ----------
    width:
        Number of counters per row; controls the additive error ε ≈ e/width.
    depth:
        Number of rows; controls the failure probability δ ≈ exp(-depth).
    seed:
        Salts the row hashes.  All participants in one cluster must use
        the same seed (it is fixed in the cluster config).

    Examples
    --------
    >>> cms = CountMinSketch(width=256, depth=4)
    >>> cms.add([7, 7, 9])
    >>> int(cms.query(7)) >= 2
    True
    """

    def __init__(self, width: int, depth: int = 8, seed: int = 0, dtype=np.int64):
        if width < 1 or depth < 1:
            raise ValueError(f"width and depth must be positive, got {width}x{depth}")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        # The counters, or None while every one is zero.  A frozen
        # (read-only) table may be shared with copies; writers go
        # through _writable.
        self._table: Optional[np.ndarray] = None
        self.total = 0  # net count of all updates (m in the error bound)
        # One salt per row; derived deterministically from the seed.
        base = np.arange(1, self.depth + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            self._row_salts = np.asarray(
                wang64(base * U64(0xDEADBEEFCAFEF00D) + U64(seed & 0xFFFFFFFFFFFFFFFF)),
                dtype=np.uint64,
            )

    # -- sizing ---------------------------------------------------------------

    @staticmethod
    def size_for(epsilon: float, delta: float) -> Tuple[int, int]:
        """(width, depth) for additive error ε·m at probability 1−δ.

        Examples
        --------
        >>> w, d = CountMinSketch.size_for(epsilon=1.04e-5, delta=3.5e-4)
        >>> w <= 2**18 and d == 8
        True
        """
        if not (0 < epsilon < 1) or not (0 < delta < 1):
            raise ValueError("epsilon and delta must be in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return width, depth

    @property
    def nbytes(self) -> int:
        """Size of the broadcastable table in bytes, held or not."""
        return self.depth * self.width * self.dtype.itemsize

    @property
    def holds_table(self) -> bool:
        """Whether a counter table is allocated (else every counter is 0)."""
        return self._table is not None

    @property
    def table(self) -> np.ndarray:
        """The ``depth × width`` counters, read-only unless privately
        held; a sketch that holds no table reads as a zero-strided view
        of one zero."""
        if self._table is None:
            return np.broadcast_to(self.dtype.type(0), (self.depth, self.width))
        return self._table

    def _writable(self) -> np.ndarray:
        """This sketch's own table, allocated or unshared first."""
        if self._table is None:
            self._table = np.zeros((self.depth, self.width), dtype=self.dtype)
        elif not self._table.flags.writeable:
            self._table = self._table.copy()
        return self._table

    def _shared(self) -> Optional[np.ndarray]:
        """The held table, frozen so that it can be shared."""
        if self._table is not None:
            self._table.flags.writeable = False
        return self._table

    # -- updates -----------------------------------------------------------------

    def add(self, keys, counts=1) -> None:
        """Increment counters for ``keys`` (vectorized).

        ``counts`` may be a scalar applied to every key or a per-key
        array.  Duplicate keys in one call accumulate correctly.  Keys
        are ids: a negative one counts as its two's-complement uint64
        (:func:`~repro.hashing.hashes.as_u64_keys`).
        """
        keys = as_u64_keys(keys)
        if keys.size == 0:
            return
        counts_arr = np.broadcast_to(np.asarray(counts, dtype=self.dtype), keys.shape)
        kernels.sketch_add(self._row_salts, keys, self._writable(), counts_arr)
        self.total += int(counts_arr.sum())

    def remove(self, keys, counts=1) -> None:
        """Decrement counters (turnstile deletions)."""
        counts_arr = np.asarray(counts)
        self.add(keys, -counts_arr)

    def query(self, keys, plus: Optional["CountMinSketch"] = None):
        """Point estimates (min across rows); never underestimates.

        With ``plus`` — a compatible sketch, e.g. a delta not yet merged
        into this one — the result is this estimate plus that sketch's,
        with the keys hashed once for both tables.

        Returns a scalar for scalar input, else an int64 array.
        """
        if plus is not None and not self.compatible_with(plus):
            raise ValueError("cannot combine sketches with different dimensions or seeds")
        scalar = np.ndim(keys) == 0
        keys_arr = as_u64_keys(keys)
        if keys_arr.size == 0:
            return np.empty(0, dtype=np.int64)
        tables = [t for t in (self._table, None if plus is None else plus._table) if t is not None]
        if tables:
            estimates = kernels.sketch_query(self._row_salts, keys_arr, *tables)
        else:
            estimates = np.zeros(keys_arr.size, dtype=np.int64)
        return int(estimates[0]) if scalar else estimates

    # -- merging / serialization ---------------------------------------------------

    def compatible_with(self, other: "CountMinSketch") -> bool:
        """Whether two sketches share dimensions and salts (mergeable)."""
        return (
            self.width == other.width
            and self.depth == other.depth
            and self.seed == other.seed
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Add another sketch's counts into this one (in place).

        Agents accumulate local degree deltas and the directory merges
        them into the global sketch before each broadcast.
        """
        if not self.compatible_with(other):
            raise ValueError("cannot merge sketches with different dimensions or seeds")
        if other._table is not None:
            if self._table is None and other.dtype == self.dtype:
                self._table = other._shared()
            else:
                table = self._writable()
                table += other._table
        self.total += other.total

    def copy(self) -> "CountMinSketch":
        """An independent copy (what a directory broadcast carries): it
        shares this sketch's table, frozen, until either side writes."""
        dup = CountMinSketch(self.width, self.depth, self.seed, dtype=self.dtype)
        dup._table = self._shared()
        dup.total = self.total
        return dup

    def clear(self) -> None:
        """Reset all counters (used for per-interval delta sketches):
        the table is dropped, not zeroed."""
        self._table = None
        self.total = 0

    def is_empty(self) -> bool:
        return self.total == 0 and (self._table is None or not self._table.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountMinSketch):
            return NotImplemented
        return self.compatible_with(other) and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CountMinSketch(width={self.width}, depth={self.depth}, total={self.total})"
