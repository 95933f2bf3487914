"""TTL'd, epoch- and version-fenced result cache for client proxies.

A cached vertex result may only be served while *three* independent
freshness fences all hold:

1. **Result version** — the per-program counter the lead directory
   bumps on every RUN_START, completed barrier round, and recovery
   broadcast (RESULT_NOTICE).  An entry filled at version ``v`` is dead
   the moment the proxy observes ``v' > v`` for its program: results
   may have changed.
2. **Placement epoch** — the ``DirectoryState.epoch_token`` (membership
   version, sketch version, split registry size) reused from the
   :class:`~repro.partition.cache.PlacementCache`.  Membership or split
   churn re-routes queries, so entries filled under an older epoch are
   invalidated wholesale.
3. **TTL on the simulated clock** — bounds staleness the version plane
   cannot see (e.g. the broadcast latency of a notice still in flight).

Because fences 1–2 are compared against *observed monotone* tokens, a
hit can never return a value older than anything the proxy has already
learned about — stale reads are structural, not probabilistic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from repro.bench.counters import PerfCounters


@dataclass
class CacheEntry:
    """One cached (program, vertex) result and its freshness fences."""

    value: Optional[float]
    version: int            # per-program result version at fill time
    epoch: Hashable         # directory epoch token at fill time
    expires_at: float       # simulated-clock TTL deadline
    snapshot: Tuple[int, int]  # (run_id, step) the replicas agreed on


class ResultCache:
    """Bounded TTL + epoch + version result cache (insertion-evicting).

    ``capacity`` bounds the entry count; when full, the oldest entry by
    insertion order is evicted (hot keys are re-inserted on refill, so
    a Zipf mix keeps its head resident).  Hits, misses and why an entry
    went are counted into ``perf``, the owner's registry when it hands
    one in (the ``serving_cache_*`` counters).
    """

    def __init__(self, ttl: float, capacity: int, perf: Optional[PerfCounters] = None):
        if ttl <= 0:
            raise ValueError("ResultCache needs a positive TTL; gate it off upstream")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.ttl = float(ttl)
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple[str, int], CacheEntry]" = OrderedDict()
        self.perf = perf if perf is not None else PerfCounters()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        program: str,
        vertex: int,
        now: float,
        epoch: Hashable,
        version: int,
    ) -> Optional[CacheEntry]:
        """The live entry for (program, vertex), or None after counting
        why it could not be served."""
        key = (program, int(vertex))
        entry = self._entries.get(key)
        perf = self.perf
        if entry is None:
            perf.add("serving_cache_misses")
            return None
        if entry.version != version:
            perf.add("serving_cache_version_invalidations")
        elif entry.epoch != epoch:
            perf.add("serving_cache_epoch_invalidations")
        elif now >= entry.expires_at:
            perf.add("serving_cache_expirations")
        else:
            perf.add("serving_cache_hits")
            return entry
        perf.add("serving_cache_misses")
        del self._entries[key]
        return None

    def put(
        self,
        program: str,
        vertex: int,
        value: Optional[float],
        now: float,
        epoch: Hashable,
        version: int,
        snapshot: Tuple[int, int],
    ) -> None:
        """Fill (program, vertex), evicting the oldest entry when full."""
        key = (program, int(vertex))
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.perf.add("serving_cache_evictions")
        self._entries[key] = CacheEntry(
            value=value,
            version=version,
            epoch=epoch,
            expires_at=now + self.ttl,
            snapshot=snapshot,
        )

    def invalidate_program(self, program: str) -> int:
        """Drop every entry of one program (e.g. on a version notice).

        Lazy validation in :meth:`get` already fences these; eager
        removal just returns the memory sooner.  Returns entries
        dropped.
        """
        stale = [k for k in self._entries if k[0] == program]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def invalidate_negative(self, program: Optional[str] = None) -> int:
        """Drop cached *negative* results (``value is None``).

        A negative entry means "this vertex does not exist"; unlike a
        positive result it can be falsified by ingest alone — a batch
        that inserts the vertex bumps the batch clock but not the
        result version (no run happened) and, for a flush-less ingest,
        not even the placement epoch.  The TTL was the only thing
        retiring such entries; the proxy now calls this whenever it
        observes ingest progress (batch clock or epoch movement), so a
        vertex that appears is reported promptly.  Positive entries
        stay — the values they cache are still the latest published
        fixpoint.  Returns entries dropped.
        """
        stale = [
            k
            for k, entry in self._entries.items()
            if entry.value is None and (program is None or k[0] == program)
        ]
        for key in stale:
            del self._entries[key]
        self.perf.add("serving_cache_negative_invalidations", len(stale))
        return len(stale)

    def clear(self) -> int:
        """Drop every entry (e.g. on a control-plane term bump, where a
        new lead re-assigns result versions and nothing cached under the
        old term can be trusted to fence correctly).  Returns entries
        dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def counters(self) -> dict:
        """The cache's counts and its current size (a gauge)."""
        out = {k: v for k, v in self.perf.counts.items() if k.startswith("serving_cache_")}
        out["serving_cache_entries"] = len(self._entries)
        return out
