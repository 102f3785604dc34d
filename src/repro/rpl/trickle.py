"""Trickle timer (RFC 6206) used to pace RPL DIO transmissions.

Trickle adapts the DIO emission rate to network conditions: the interval
doubles from ``i_min`` up to ``i_min * 2**doublings`` while the network is
consistent and resets to ``i_min`` when an inconsistency (topology change) is
detected.  Within each interval the transmission is scheduled at a random
point of the second half and suppressed if at least ``k`` consistent messages
were already heard.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event, EventQueue, TimerWheel

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001


class TrickleTimer:
    """A single RFC 6206 Trickle instance driving one message type."""

    def __init__(
        self,
        queue: EventQueue,
        rng: random.Random,
        callback: Callable[[], None],
        i_min: float = 4.0,
        doublings: int = 8,
        redundancy: int = 10,
        wheel: Optional[TimerWheel] = None,
    ) -> None:
        """
        Parameters
        ----------
        queue:
            Event queue providing the time base.
        rng:
            ``random.Random`` stream for the in-interval jitter.
        callback:
            Invoked when the timer decides to transmit (i.e. the message was
            not suppressed by redundancy).
        i_min:
            Minimum interval in seconds.  Table II of the paper configures
            the *minimum DIO interval* explicitly; scenario code passes it
            through :class:`repro.rpl.engine.RplConfig`.
        doublings:
            Number of interval doublings (``i_max = i_min * 2**doublings``).
        redundancy:
            Suppression constant ``k``; 0 disables suppression.
        wheel:
            Optional cohort wheel the interval/fire events are placed on
            (every node's Trickle instance shares it); firing times and
            order are identical to flat scheduling on ``queue``.
        """
        if i_min <= 0:
            raise ValueError("i_min must be positive")
        if doublings < 0:
            raise ValueError("doublings must be non-negative")
        self.queue = queue
        self._scheduler = wheel if wheel is not None else queue
        self.rng = rng
        self.callback = callback
        self.i_min = i_min
        self.i_max = i_min * (2 ** doublings)
        self.redundancy = redundancy
        self.interval = i_min
        self.counter = 0
        self._fire_event: Optional[Event] = None
        self._interval_event: Optional[Event] = None
        self._running = False
        #: Diagnostics: transmissions vs suppressions.
        self.transmissions = 0
        self.suppressions = 0

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Start the timer with the minimum interval."""
        if self._running:
            return
        self._running = True
        self.interval = self.i_min
        self._begin_interval()

    def stop(self) -> None:
        self._running = False
        for event in (self._fire_event, self._interval_event):
            if event is not None:
                event.cancel()
        self._fire_event = None
        self._interval_event = None

    def hear_consistent(self) -> None:
        """Record a consistent message heard from a neighbor (suppression input)."""
        self.counter += 1

    def hear_inconsistent(self) -> None:
        """Reset to the minimum interval upon detecting an inconsistency."""
        if not self._running:
            return
        if self.interval > self.i_min:
            self.interval = self.i_min
            self._cancel_pending()
            self._begin_interval()

    def reset(self) -> None:
        """External reset (e.g. a new DODAG version)."""
        self.hear_inconsistent()

    # ------------------------------------------------------------------
    def _cancel_pending(self) -> None:
        for event in (self._fire_event, self._interval_event):
            if event is not None:
                event.cancel()

    def _begin_interval(self) -> None:
        self.counter = 0
        # Fire somewhere in the second half of the interval.
        offset = self.interval / 2.0 + self.rng.random() * (self.interval / 2.0)
        self._fire_event = self._scheduler.schedule_in(offset, self._fire, label="trickle-fire")
        self._interval_event = self._scheduler.schedule_in(
            self.interval, self._end_interval, label="trickle-interval"
        )

    def _fire(self) -> None:
        if not self._running:
            return
        if self.redundancy and self.counter >= self.redundancy:
            self.suppressions += 1
            return
        self.transmissions += 1
        self.callback()

    def _end_interval(self) -> None:
        if not self._running:
            return
        self.interval = min(self.interval * 2.0, self.i_max)
        self._begin_interval()
