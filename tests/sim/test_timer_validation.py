"""Validation of delays and periods fed to the event-queue machinery.

``EventQueue.schedule_in`` has rejected NaN delays since the original NaN
clamp bug; these tests cover the sibling hardening: ``reschedule_in``
rejects non-finite and negative re-arm delays outright, and
``PeriodicTimer`` refuses non-finite periods at construction and validates
each ``period_fn`` draw before it reaches the heap.
"""

from __future__ import annotations

import math

import pytest

from repro.sim.events import EventQueue, PeriodicTimer

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestRescheduleInValidation:
    def _popped_event(self, queue):
        event = queue.schedule_in(0.0, lambda: None)
        queue.run_until(0.0)
        return event

    @pytest.mark.parametrize("delay", NON_FINITE)
    def test_queue_rejects_non_finite_delay(self, delay):
        queue = EventQueue()
        event = self._popped_event(queue)
        with pytest.raises(ValueError, match="finite"):
            queue.reschedule_in(event, delay)

    def test_queue_rejects_negative_delay(self):
        queue = EventQueue()
        event = self._popped_event(queue)
        with pytest.raises(ValueError, match="non-negative"):
            queue.reschedule_in(event, -0.5)

    def test_zero_delay_still_allowed(self):
        queue = EventQueue()
        event = self._popped_event(queue)
        queue.reschedule_in(event, 0.0)
        assert queue.peek_time() == 0.0

    def test_schedule_in_keeps_negative_clamp(self):
        # The documented behaviour for fresh schedules is unchanged: a timer
        # computed from stale state fires immediately instead of raising.
        queue = EventQueue()
        queue.run_until(5.0)
        queue.schedule_in(-1.0, lambda: None)
        assert queue.peek_time() == 5.0

    def test_schedule_in_still_rejects_nan(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule_in(float("nan"), lambda: None)


class TestPeriodicTimerValidation:
    @pytest.mark.parametrize("period", NON_FINITE)
    def test_rejects_non_finite_period(self, period):
        queue = EventQueue()
        with pytest.raises(ValueError, match="positive and finite"):
            PeriodicTimer(queue, period, lambda: None)

    @pytest.mark.parametrize("period", (0.0, -1.0))
    def test_rejects_non_positive_period(self, period):
        queue = EventQueue()
        with pytest.raises(ValueError, match="positive"):
            PeriodicTimer(queue, period, lambda: None)

    @pytest.mark.parametrize("bad", NON_FINITE + (-0.25,))
    def test_period_fn_draw_is_validated_at_tick(self, bad):
        queue = EventQueue()
        timer = PeriodicTimer(queue, 1.0, lambda: None, period_fn=lambda: bad)
        timer.start()
        # The first firing uses the (validated) start offset; the re-arm
        # consults period_fn and must fail loudly instead of corrupting the
        # heap or spinning at the current instant.
        with pytest.raises(ValueError, match="period_fn"):
            queue.run_until(1.0)

    def test_valid_period_fn_keeps_ticking(self):
        queue = EventQueue()
        fired = []
        timer = PeriodicTimer(
            queue, 1.0, lambda: fired.append(queue.now), period_fn=lambda: 0.5
        )
        timer.start()
        queue.run_until(2.0)
        assert fired == [1.0, 1.5, 2.0]
        assert all(math.isfinite(t) for t in fired)
