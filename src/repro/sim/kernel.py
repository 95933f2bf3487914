"""Deterministic discrete-event simulation kernel.

The kernel fires timestamped callbacks in (time, insertion-order)
sequence, so given the same seeds a simulation is exactly reproducible:
there is no dependence on wall-clock time, hashing order, or thread
scheduling.  This is what makes the reproduction's "runtimes"
meaningful — they are simulated seconds charged by cost models, not
noisy interpreter timings.

Dispatch is *cohort-batched*: events are bucketed by exact timestamp
(a dict of insertion-ordered lists) and a small heap orders only the
distinct timestamps.  One heap pop drains an entire same-time cohort,
so the per-event cost is a list append and a deque pop — the O(log n)
heap work amortizes across the cohort.  In a synchronous cluster round
thousands of message deliveries share one timestamp, which is exactly
where the old one-heap-pop-per-event loop burned its time.

Cancellation stays O(1): handles flip a flag, an exact counter tracks
cancelled-but-queued events, and once they dominate a large queue the
buckets are filtered in one O(n) pass.  The timestamp heap is never
rebuilt — bucket-less times are dropped lazily at pop time — so
cancellation-heavy workloads never re-heapify at all.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel misuse, e.g. scheduling into the past."""


@dataclass
class _Event:
    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    in_queue: bool = field(compare=False, default=True)


class EventHandle:
    """Handle to a scheduled event, usable to cancel it.

    Handles are returned by :meth:`SimKernel.schedule` and
    :meth:`SimKernel.schedule_at`.  Cancelling an already-fired or
    already-cancelled event is a harmless no-op.
    """

    __slots__ = ("_event", "_kernel")

    def __init__(self, event: _Event, kernel: "SimKernel"):
        self._event = event
        self._kernel = kernel

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled

    @property
    def queued(self) -> bool:
        """Whether the event is still waiting to fire: not yet popped
        (an event is popped just before its callback runs) and not
        cancelled."""
        event = self._event
        return event.in_queue and not event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if event.in_queue:
                self._kernel._note_cancel()


class SimKernel:
    """Deterministic discrete-event loop with a simulated clock.

    Parameters
    ----------
    start_time:
        Initial simulated time in seconds (default 0.0).

    Examples
    --------
    >>> k = SimKernel()
    >>> fired = []
    >>> _ = k.schedule(1.5, fired.append, "a")
    >>> _ = k.schedule(0.5, fired.append, "b")
    >>> k.run()
    2
    >>> fired
    ['b', 'a']
    >>> k.now
    1.5
    """

    # Lazy compaction threshold: only bother once the queue is at least
    # this large AND cancelled events outnumber live ones.
    _COMPACT_MIN = 64

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        # Events bucketed by exact timestamp, each bucket in insertion
        # order; the heap orders only the *distinct* times.  A bucket
        # removed by compaction leaves its time behind as a stale heap
        # entry, skipped at pop time.
        self._buckets: Dict[float, List[_Event]] = {}
        self._times: List[float] = []
        # The cohort currently being drained (popped bucket).  It is
        # always the minimum outstanding time: the heap held no smaller
        # time when it was popped, and scheduling into the past is
        # rejected.
        self._active: deque = deque()
        self._active_time: Optional[float] = None
        self._seq = itertools.count()
        self._n_queued = 0
        self._events_processed = 0
        self._running = False
        # Count of cancelled events still sitting in the queue, kept
        # exact by EventHandle.cancel / the pop paths, so liveness checks
        # are O(1) instead of a queue scan.
        self._cancelled_pending = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return self._n_queued

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.
        """
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: now={self._now}, requested={time}"
            )
        time = float(time)
        event = _Event(time=time, seq=next(self._seq), callback=callback, args=args)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._n_queued += 1
        return EventHandle(event, self)

    def _load_cohort(self, until: Optional[float]) -> bool:
        """Pop the next timestamp's whole bucket into the active cohort.

        Returns False when no bucket at time <= ``until`` remains.
        Stale heap times (bucket removed by compaction) are discarded
        on the way — the lazy half of heap-free cancellation.
        """
        while self._times:
            t = self._times[0]
            bucket = self._buckets.get(t)
            if bucket is None:
                heapq.heappop(self._times)  # stale: compacted away
                continue
            if until is not None and t > until:
                return False
            heapq.heappop(self._times)
            del self._buckets[t]
            self._active = deque(bucket)
            self._active_time = t
            return True
        return False

    def step(self) -> bool:
        """Fire the single next non-cancelled event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (cancelled events are discarded without firing).
        """
        while True:
            if not self._active and not self._load_cohort(None):
                return False
            event = self._active.popleft()
            event.in_queue = False
            self._n_queued -= 1
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = event.time
            self._events_processed += 1
            event.callback(*event.args)
            return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events in timestamp order, a full same-time cohort per
        heap pop (ties fire in insertion order, as always).

        Parameters
        ----------
        until:
            If given, stop once the next event would fire after this
            simulated time; the clock is advanced to exactly ``until``.
        max_events:
            If given, stop after firing this many events (a safety net
            for protocol bugs that generate unbounded event storms).

        Returns
        -------
        int
            The number of events fired by this call.
        """
        if self._running:
            raise SimulationError("kernel is not reentrant: run() called from within run()")
        self._running = True
        fired = 0
        try:
            while max_events is None or fired < max_events:
                if not self._active:
                    if not self._load_cohort(until):
                        break
                elif until is not None and self._active_time is not None and self._active_time > until:
                    # A partially drained cohort (step()/max_events cut)
                    # can sit beyond the horizon; leave it queued.
                    break
                event = self._active.popleft()
                event.in_queue = False
                self._n_queued -= 1
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = event.time
                self._events_processed += 1
                event.callback(*event.args)
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = float(until)
        return fired

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain; error out past ``max_events``.

        Unlike :meth:`run` with ``max_events``, exhausting the budget here
        raises :class:`SimulationError`, because an idle-seeking caller
        that silently stops early would report truncated results.
        """
        fired = self.run(max_events=max_events)
        if self.pending and self._has_live_events():
            raise SimulationError(
                f"event budget of {max_events} exhausted with {self.pending} events pending"
            )
        return fired

    def _has_live_events(self) -> bool:
        return self._n_queued > self._cancelled_pending

    def _note_cancel(self) -> None:
        """Record the cancellation of a still-queued event, filtering
        the buckets lazily once cancelled events dominate."""
        self._cancelled_pending += 1
        if (
            self._n_queued >= self._COMPACT_MIN
            and self._cancelled_pending * 2 > self._n_queued
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from every bucket in one O(n) pass.

        Firing order is untouched — buckets keep their insertion order
        and the timestamp heap is not rebuilt (an emptied bucket just
        leaves a stale time for :meth:`_load_cohort` to skip), so
        cancellation storms never trigger quadratic re-heapify work.
        """
        for t in list(self._buckets):
            bucket = self._buckets[t]
            live = []
            for event in bucket:
                if event.cancelled:
                    event.in_queue = False
                    self._n_queued -= 1
                else:
                    live.append(event)
            if len(live) != len(bucket):
                if live:
                    self._buckets[t] = live
                else:
                    del self._buckets[t]
        if self._active:
            live_active = deque()
            for event in self._active:
                if event.cancelled:
                    event.in_queue = False
                    self._n_queued -= 1
                else:
                    live_active.append(event)
            self._active = live_active
        self._cancelled_pending = 0
