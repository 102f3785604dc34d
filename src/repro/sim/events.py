"""Event queue and periodic timers for the simulator.

The TSCH slot loop is the primary driver of simulated time, but many protocol
behaviours are naturally expressed as timers in seconds: application packet
generation periods, the RPL Trickle timer, the EB period, 6P transaction
timeouts and the GT-TSCH load-balancing period.  Those are scheduled on an
:class:`EventQueue` -- one binary heap ordered by ``(time, creation order)``
-- and drained at every slot boundary by the network loop.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001


def _validate_rearm_delay(delay: float) -> None:
    """Reject non-finite and negative re-arm delays.

    ``schedule_in`` documents a clamp for negative delays (a timer computed
    from stale state fires immediately); ``reschedule_in`` has no such
    excuse -- its only callers are periodic timers whose period draw must be
    a finite, non-negative number, so anything else is a bug upstream and is
    surfaced instead of silently clamped.
    """
    if not math.isfinite(delay):
        raise ValueError("delay must be finite")
    if delay < 0:
        raise ValueError("delay must be non-negative")


class Event:
    """A single scheduled callback.

    Events are created through :meth:`EventQueue.schedule` and can be
    cancelled; a cancelled event is skipped when popped, and the owning queue
    compacts its heap once cancelled entries outnumber live ones (Trickle
    resets and 6P timeout cancellations would otherwise accumulate for the
    whole run).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "label", "_queue")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
        label: str = "",
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label
        #: Owning queue, set by :meth:`EventQueue.schedule`; lets the queue
        #: keep an exact count of cancelled-but-still-heaped entries.
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so it will be silently dropped when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._on_event_cancelled()

    def fire(self) -> Any:
        """Invoke the callback (used by the queue; not normally called directly)."""
        if self.args:
            return self.callback(*self.args)
        # The overwhelmingly common shape (periodic timer ticks): skip the
        # empty argument spread.
        return self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.4f}, {self.label or self.callback!r}, {state})"


class EventQueue:
    """A monotonic priority queue of :class:`Event` objects.

    One binary heap of ``(time, sequence, event)`` tuples; the sequence is a
    global creation counter, so events scheduled for the same instant fire in
    insertion order and the event itself never compares.  That keeps
    behaviour deterministic (important for reproducibility of the benchmark
    figures).
    """

    #: Compaction never triggers below this heap size (the bookkeeping is not
    #: worth it for a handful of entries).
    COMPACT_MIN_SIZE = 16

    __slots__ = ("_heap", "_counter", "_now", "_cancelled", "compactions")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        #: Number of cancelled events still sitting in the heap.
        self._cancelled = 0
        #: Total number of heap compactions performed (diagnostics / tests).
        self.compactions = 0

    @property
    def now(self) -> float:
        """Time of the most recently processed instant."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def stats(self) -> dict:
        """Live/cancelled entry counts and compactions."""
        return {
            "live": len(self),
            "heap_entries": len(self._heap),
            "cancelled_in_heap": self._cancelled,
            "compactions": self.compactions,
            "wheels": {},  # no sub-heaps; kept because perfbench/layers.py reads it
        }

    def _on_event_cancelled(self) -> None:
        """A live heap entry was cancelled; compact when they dominate."""
        self._cancelled += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap in one pass.

        Entries order by ``(time, sequence)``, so filtering the backing list
        and re-heapifying preserves both the firing order and the
        insertion-order tie-break of live events.  The list is rewritten in
        place: a cancellation inside a callback compacts the very list
        :meth:`run_until` is draining.
        """
        heap = self._heap
        for _, _, event in heap:
            if event.cancelled:
                event._queue = None
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    def schedule(
        self, time: float, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time`` seconds.

        A time in the past is clamped to "now" (a timer computed from stale
        state fires immediately rather than silently travelling back in
        time); a NaN time is rejected, since it compares false against
        everything and would fire at an arbitrary point of the heap order.
        """
        if time != time:
            raise ValueError("event time must not be NaN")
        if time < self._now:
            time = self._now
        event = Event(time, callback, args, label)
        event._queue = self
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def schedule_in(
        self, delay: float, callback: Callable[..., Any], *args: Any, label: str = ""
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds after the current time.

        Negative delays are clamped to "now" and a NaN delay is rejected,
        both by :meth:`schedule`.
        """
        return self.schedule(self._now + delay, callback, *args, label=label)

    def reschedule_in(self, event: Event, delay: float) -> Event:
        """Re-arm a fired (popped, uncancelled) event ``delay`` seconds out.

        Self-rescheduling periodic timers re-heap the same :class:`Event`
        instead of allocating a fresh one every tick; the sequence number is
        drawn from the same counter at the same point, so firing order is
        exactly that of a fresh ``schedule_in``.
        """
        _validate_rearm_delay(delay)
        time = self._now + delay
        event.time = time
        event._queue = self
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest pending event, if any."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._queue = None
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def run_until(self, time: float) -> int:
        """Fire every pending event with ``event.time <= time``.

        Returns the number of events fired.  Events scheduled by callbacks
        during the run are also fired if they fall within the window.
        """
        fired = 0
        heap = self._heap
        while heap:
            event_time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                event._queue = None
                self._cancelled -= 1
                continue
            if event_time > time:
                break
            heapq.heappop(heap)
            event._queue = None
            self._now = event_time
            event.fire()
            fired += 1
        if time > self._now:
            self._now = time
        return fired

    def advance_to(self, time: float) -> None:
        """Advance the queue clock without firing anything.

        The slot-skipping kernel calls this after leaping over idle slots so
        ``now`` matches what slot-by-slot :meth:`run_until` calls would have
        left behind.  Must only be used for instants known to precede every
        pending event.
        """
        if time > self._now:
            self._now = time


class PeriodicTimer:
    """A self-rescheduling timer built on :class:`EventQueue`.

    Used for the EB period, the application traffic generator and the
    GT-TSCH load-balancing period.  The callback may return ``False`` to stop
    the timer; any other return value keeps it running.
    """

    __slots__ = (
        "queue",
        "period",
        "callback",
        "label",
        "jitter",
        "rng",
        "_period_fn",
        "settled_ticks",
        "_event",
        "_running",
        "_start_offset",
    )

    def __init__(
        self,
        queue: EventQueue,
        period: float,
        callback: Callable[[], Any],
        start_offset: Optional[float] = None,
        label: str = "",
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
        period_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        """``jitter`` (0..1) randomises each period by ``±jitter*period``.

        Periodic protocol timers (Enhanced Beacons in particular) must not be
        phase-locked across nodes: two nodes whose identical periods happen to
        align would contend for the same broadcast cell at every firing,
        forever.  A small jitter breaks that symmetry, exactly as Contiki-NG
        jitters its EB timer.

        ``period_fn`` overrides the jitter model with an arbitrary per-tick
        period draw (Poisson traffic, legacy jitter formulas); it wins over
        ``jitter``.
        """
        if not math.isfinite(period) or period <= 0:
            raise ValueError("period must be positive and finite")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if jitter > 0.0 and rng is None:
            raise ValueError("a jittered timer needs an rng")
        self.queue = queue
        self.period = period
        self.callback = callback
        self.label = label
        self.jitter = jitter
        self.rng = rng
        self._period_fn = period_fn
        #: Always 0: every tick calls ``callback``.  Kept because
        #: ``perfbench/layers.py`` reads it.
        self.settled_ticks = 0
        self._event: Optional[Event] = None
        self._running = False
        self._start_offset = period if start_offset is None else start_offset

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Arm the timer; the first firing happens after ``start_offset`` seconds."""
        if self._running:
            return
        self._running = True
        self._event = self.queue.schedule_in(self._start_offset, self._tick, label=self.label)

    def stop(self) -> None:
        """Disarm the timer."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _next_period(self) -> float:
        if self._period_fn is not None:
            period = self._period_fn()
            # An arbitrary per-tick draw (Poisson traffic, legacy jitter
            # formulas) is the one place a NaN/inf/negative period could
            # enter the scheduler; fail here, at the source, rather than
            # corrupt the heap invariant or spin at the current instant.
            if not math.isfinite(period) or period < 0:
                raise ValueError("period_fn must return a finite, non-negative period")
            return period
        if self.jitter <= 0.0:
            return self.period
        return self.period * (1.0 + self.jitter * (2.0 * self.rng.random() - 1.0))

    def _tick(self) -> None:
        if not self._running:
            return
        if self.callback() is False:
            self._running = False
            return
        event = self._event
        if event is not None and not event.cancelled:
            # The tick runs as this event's callback, so it has just been
            # popped: re-heap the same object instead of allocating one per
            # period (the sequence draw and firing order are unchanged).
            self.queue.reschedule_in(event, self._next_period())
        else:
            self._event = self.queue.schedule_in(
                self._next_period(), self._tick, label=self.label
            )
