"""Lightweight performance counters for the placement fast path.

The simulator charges *simulated* time through the cost model; these
counters count the *mechanism* — placement-cache hits, data-plane pairs
emitted and combined, transport retries — so a benchmark can report a
measured win instead of an asserted one.  They are plain monotone
integers, one dict update per *batch*, never per edge: cheap enough to
leave on everywhere, and deterministic in any replayed simulation.
"""

from __future__ import annotations

from typing import Dict, Iterable


class PerfCounters:
    """Named monotone counters.

    Examples
    --------
    >>> c = PerfCounters()
    >>> c.add("placement_cache_hit", 3)
    >>> c.add("placement_cache_hit")
    >>> c.counts["placement_cache_hit"]
    4
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: Dict[str, int] = {}

    def add(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def merge(self, other: "PerfCounters") -> None:
        """Add another counter set into this one (for aggregation)."""
        for name, value in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def snapshot(self) -> Dict[str, int]:
        """A flat copy of all counters."""
        return dict(self.counts)


def aggregate_counters(counter_sets: Iterable[PerfCounters]) -> PerfCounters:
    """Merge many :class:`PerfCounters` into a fresh one."""
    total = PerfCounters()
    for counters in counter_sets:
        total.merge(counters)
    return total
