"""Event queue, timer wheels and periodic timers for the simulator.

The TSCH slot loop is the primary driver of simulated time, but many protocol
behaviours are naturally expressed as timers in seconds: application packet
generation periods, the RPL Trickle timer, the EB period, 6P transaction
timeouts and the GT-TSCH load-balancing period.  Those are scheduled on an
:class:`EventQueue` and drained at every slot boundary by the network loop.

At hundreds of nodes the periodic protocol timers dominate the queue: every
node contributes an EB event, a traffic event and a Trickle pair, so the heap
holds O(N) entries and every (re)schedule sifts through all of them.  A
:class:`TimerWheel` groups one family of same-period, phase-offset timers
into its own small heap behind a single logical head, so the main heap stays
O(families) deep while firing order -- including ties between events at the
same instant, which fire in global creation order -- is exactly that of the
flat queue.  :class:`PeriodicTimer` members may additionally carry an *idle
probe* that settles provably-inert ticks (EB period of a node that has not
joined, traffic tick during the drain phase) without invoking the protocol
callback, keeping the rng/ordering draws of a fired tick.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001


class _QueueEntry:
    """Heap entry ordered by ``(time, sequence)``; the event never compares."""

    __slots__ = ("time", "sequence", "event")

    def __init__(self, time: float, sequence: int, event: "Event") -> None:
        self.time = time
        self.sequence = sequence
        self.event = event

    def __lt__(self, other: "_QueueEntry") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _QueueEntry):
            return NotImplemented
        return (self.time, self.sequence) == (other.time, other.sequence)

    __hash__ = None  # type: ignore[assignment]


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

    __slots__ = ("time", "callback", "args", "kwargs", "cancelled", "label", "_queue")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
        label: str = "",
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.kwargs = kwargs or {}
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
        if self.kwargs:
            return self.callback(*self.args, **self.kwargs)
        if self.args:
            return self.callback(*self.args)
        # The overwhelmingly common shape (periodic timer ticks): skip the
        # empty argument spreads.
        return self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.4f}, {self.label or self.callback!r}, {state})"


class EventQueue:
    """A monotonic priority queue of :class:`Event` objects.

    Events scheduled for the same instant fire in insertion order, which keeps
    behaviour deterministic (important for reproducibility of the benchmark
    figures).
    """

    #: Compaction never triggers below this heap size (the bookkeeping is not
    #: worth it for a handful of entries).
    COMPACT_MIN_SIZE = 16

    __slots__ = (
        "_heap",
        "_counter",
        "_now",
        "_cancelled",
        "compactions",
        "_wheel_map",
        "_wheels",
    )

    def __init__(self) -> None:
        self._heap: list[_QueueEntry] = []
        self._counter = itertools.count()
        self._now = 0.0
        #: Number of cancelled events still sitting in the heap.
        self._cancelled = 0
        #: Total number of heap compactions performed (diagnostics / tests).
        self.compactions = 0
        self._wheel_map: dict[str, "TimerWheel"] = {}
        self._wheels: list["TimerWheel"] = []

    @property
    def now(self) -> float:
        """Time of the most recently processed instant."""
        return self._now

    def __len__(self) -> int:
        live = len(self._heap) - self._cancelled
        for wheel in self._wheels:
            live += len(wheel)
        return live

    def wheel(self, name: str) -> "TimerWheel":
        """Get or create the cohort wheel ``name``.

        Timers of one family (same nominal period, phase-offset across nodes)
        share a wheel; callers pass the result straight to
        :class:`PeriodicTimer` / :class:`~repro.rpl.trickle.TrickleTimer`,
        which fall back to flat scheduling when given ``None`` instead.
        """
        wheel = self._wheel_map.get(name)
        if wheel is None:
            wheel = TimerWheel(self, name)
            self._wheel_map[name] = wheel
            self._wheels.append(wheel)
        return wheel

    def stats(self) -> dict:
        """Live/cancelled entry counts and per-wheel cohort sizes."""
        return {
            "live": len(self),
            "heap_entries": len(self._heap),
            "cancelled_in_heap": self._cancelled,
            "compactions": self.compactions,
            "wheels": {
                wheel.name: {
                    "members": len(wheel),
                    "fired": wheel.fired,
                    "compactions": wheel.compactions,
                }
                for wheel in self._wheels
            },
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
        insertion-order tie-break of live events.
        """
        for entry in self._heap:
            if entry.event.cancelled:
                entry.event._queue = None
        self._heap = [entry for entry in self._heap if not entry.event.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` at absolute ``time`` seconds."""
        if time < self._now:
            # Clamp to "now": a timer computed from stale state should fire
            # immediately rather than silently travel back in time.
            time = self._now
        event = Event(time, callback, args, kwargs, label=label)
        event._queue = self
        heapq.heappush(self._heap, _QueueEntry(time, next(self._counter), event))
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds after the current time.

        Negative delays are clamped to "now"; a NaN delay is rejected (the
        silent ``max(0.0, nan)`` clamp used to evaluate to NaN-or-zero
        depending on argument order, scheduling the event at an arbitrary
        instant).
        """
        if delay != delay:
            raise ValueError("delay must not be NaN")
        return self.schedule(self._now + max(0.0, delay), callback, *args, label=label, **kwargs)

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
        heapq.heappush(self._heap, _QueueEntry(time, next(self._counter), event))
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest pending event, if any."""
        heap = self._heap
        while heap and heap[0].event.cancelled:
            entry = heapq.heappop(heap)
            entry.event._queue = None
            self._cancelled -= 1
        best = heap[0].time if heap else None
        for wheel in self._wheels:
            key = wheel._head_key()
            if key is not None and (best is None or key[0] < best):
                best = key[0]
        return best

    def run_until(self, time: float) -> int:
        """Fire every pending event with ``event.time <= time``.

        Returns the number of events fired.  Events scheduled by callbacks
        during the run are also fired if they fall within the window.  Wheel
        members interleave with flat events by ``(time, creation order)``,
        exactly as if they lived in the flat heap.
        """
        fired = 0
        heap = self._heap
        wheels = self._wheels
        while True:
            while heap and heap[0].event.cancelled:
                entry = heapq.heappop(heap)
                entry.event._queue = None
                self._cancelled -= 1
            if heap:
                head = heap[0]
                best_key: Optional[tuple[float, int]] = (head.time, head.sequence)
            else:
                best_key = None
            best_wheel: Optional["TimerWheel"] = None
            for wheel in wheels:
                key = wheel._head_key()
                if key is not None and (best_key is None or key < best_key):
                    best_key = key
                    best_wheel = wheel
            if best_key is None or best_key[0] > time:
                break
            if best_wheel is not None:
                best_wheel._fire_head()
            else:
                entry = heapq.heappop(heap)
                entry.event._queue = None
                self._now = entry.time
                entry.event.fire()
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

    def clear(self) -> None:
        """Drop all pending events and reset the clock to zero."""
        for entry in self._heap:
            entry.event._queue = None
        self._heap.clear()
        self._cancelled = 0
        self._now = 0.0
        for wheel in self._wheels:
            wheel.clear()


class TimerWheel:
    """One cohort of timer events behind a single logical queue head.

    A wheel is a sub-queue of the owning :class:`EventQueue`: members are
    plain ``(time, sequence, event)`` tuples in a private heap, with sequence
    numbers drawn from the queue's global counter at exactly the points a
    flat ``schedule_in`` would draw them.  The queue's ``peek_time`` /
    ``run_until`` merge every wheel head with the flat heap, so the total
    firing order -- including same-instant ties -- is bit-identical to flat
    scheduling while the main heap no longer scales with the node count.
    """

    #: Compaction never triggers below this heap size.
    COMPACT_MIN_SIZE = 16

    __slots__ = (
        "queue",
        "name",
        "_heap",
        "_cancelled",
        "fired",
        "compactions",
        "_head",
        "_head_dirty",
    )

    def __init__(self, queue: EventQueue, name: str) -> None:
        self.queue = queue
        self.name = name
        self._heap: list[tuple[float, int, Event]] = []
        self._cancelled = 0
        #: Members fired so far (diagnostics, surfaced by EventQueue.stats()).
        self.fired = 0
        self.compactions = 0
        #: Memoised earliest live (time, sequence), recomputed only after a
        #: mutation: ``run_until`` re-reads every wheel head once per fired
        #: event, so serving the unchanged ones from cache keeps the merge
        #: O(changed wheels) instead of O(wheels x members inspected).
        self._head: Optional[tuple[float, int]] = None
        self._head_dirty = True

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    # ------------------------------------------------------------------
    # EventQueue-compatible scheduling interface (used by timers)
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule a member event at absolute ``time`` seconds."""
        queue = self.queue
        if time < queue._now:
            time = queue._now
        event = Event(time, callback, args, kwargs, label=label)
        event._queue = self
        heapq.heappush(self._heap, (time, next(queue._counter), event))
        self._head_dirty = True
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule a member ``delay`` seconds after the queue's current time."""
        if delay != delay:
            raise ValueError("delay must not be NaN")
        return self.schedule(
            self.queue._now + max(0.0, delay), callback, *args, label=label, **kwargs
        )

    def reschedule_in(self, event: Event, delay: float) -> Event:
        """Re-arm a fired (popped, uncancelled) member (see EventQueue's)."""
        _validate_rearm_delay(delay)
        queue = self.queue
        time = queue._now + delay
        event.time = time
        event._queue = self
        heapq.heappush(self._heap, (time, next(queue._counter), event))
        self._head_dirty = True
        return event

    # ------------------------------------------------------------------
    # head management (driven by the owning EventQueue)
    # ------------------------------------------------------------------
    def _head_key(self) -> Optional[tuple[float, int]]:
        """(time, sequence) of the earliest live member, if any (memoised)."""
        if not self._head_dirty:
            return self._head
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _, _, event = heapq.heappop(heap)
            event._queue = None
            self._cancelled -= 1
        self._head = (heap[0][0], heap[0][1]) if heap else None
        self._head_dirty = False
        return self._head

    def head_time(self) -> Optional[float]:
        key = self._head_key()
        return None if key is None else key[0]

    def _fire_head(self) -> None:
        """Pop and fire the earliest member (caller checked it is due)."""
        time, _, event = heapq.heappop(self._heap)
        self._head_dirty = True
        event._queue = None
        self.queue._now = time
        self.fired += 1
        event.fire()

    # ------------------------------------------------------------------
    # bookkeeping (mirrors EventQueue's cancellation/compaction policy)
    # ------------------------------------------------------------------
    def _on_event_cancelled(self) -> None:
        self._cancelled += 1
        self._head_dirty = True
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        for _, _, event in self._heap:
            if event.cancelled:
                event._queue = None
        self._heap = [item for item in self._heap if not item[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self._head_dirty = True
        self.compactions += 1

    def clear(self) -> None:
        for _, _, event in self._heap:
            event._queue = None
        self._heap.clear()
        self._cancelled = 0
        self._head_dirty = True


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
        "idle_probe",
        "_period_fn",
        "_scheduler",
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
        wheel: Optional[TimerWheel] = None,
        idle_probe: Optional[Callable[[], bool]] = None,
        period_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        """``jitter`` (0..1) randomises each period by ``±jitter*period``.

        Periodic protocol timers (Enhanced Beacons in particular) must not be
        phase-locked across nodes: two nodes whose identical periods happen to
        align would contend for the same broadcast cell at every firing,
        forever.  A small jitter breaks that symmetry, exactly as Contiki-NG
        jitters its EB timer.

        ``wheel`` places the timer's events on a cohort wheel instead of the
        flat queue (same firing times and order either way).  ``idle_probe``
        is consulted at each tick: when it returns True the tick is settled
        without invoking ``callback`` -- the probe must only claim ticks whose
        callback would provably have no effect (it may bulk-apply trivial
        counters itself).  ``period_fn`` overrides the jitter model with an
        arbitrary per-tick period draw (Poisson traffic, legacy jitter
        formulas); it wins over ``jitter``.
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
        self.idle_probe = idle_probe
        self._period_fn = period_fn
        self._scheduler = wheel if wheel is not None else queue
        #: Ticks settled by the idle probe instead of fired (diagnostics).
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
        self._event = self._scheduler.schedule_in(self._start_offset, self._tick, label=self.label)

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
        probe = self.idle_probe
        if probe is not None and probe():
            # Provably-inert tick: skip the protocol callback but keep the
            # cadence -- the reschedule below draws the same rng/sequence
            # numbers a fired tick would, so settling is unobservable.
            self.settled_ticks += 1
        else:
            result = self.callback()
            if result is False:
                self._running = False
                return
        event = self._event
        if event is not None and not event.cancelled:
            # The tick runs as this event's callback, so it has just been
            # popped: re-heap the same object instead of allocating one per
            # period (the sequence draw and firing order are unchanged).
            self._scheduler.reschedule_in(event, self._next_period())
        else:
            self._event = self._scheduler.schedule_in(
                self._next_period(), self._tick, label=self.label
            )
