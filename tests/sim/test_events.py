"""Tests for the event queue and periodic timers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import EventQueue, PeriodicTimer


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, fired.append, "b")
        queue.schedule(1.0, fired.append, "a")
        queue.schedule(3.0, fired.append, "c")
        queue.run_until(5.0)
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_insertion_order(self):
        queue = EventQueue()
        fired = []
        for label in ("first", "second", "third"):
            queue.schedule(1.0, fired.append, label)
        queue.run_until(1.0)
        assert fired == ["first", "second", "third"]

    def test_run_until_is_inclusive(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, fired.append, "x")
        queue.run_until(1.0)
        assert fired == ["x"]

    def test_events_after_window_stay_pending(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, fired.append, "later")
        assert queue.run_until(1.0) == 0
        assert fired == []
        assert len(queue) == 1

    def test_cancelled_events_do_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1.0, fired.append, "x")
        event.cancel()
        queue.run_until(2.0)
        assert fired == []

    def test_schedule_in_is_relative_to_now(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: queue.schedule_in(1.0, fired.append, "nested"))
        queue.run_until(3.0)
        assert fired == ["nested"]
        assert queue.now == 3.0

    def test_callbacks_can_schedule_within_window(self):
        queue = EventQueue()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                queue.schedule_in(0.5, chain, n + 1)

        queue.schedule(0.5, chain, 1)
        queue.run_until(10.0)
        assert fired == [1, 2, 3]

    def test_past_schedule_clamped_to_now(self):
        queue = EventQueue()
        queue.run_until(5.0)
        fired = []
        queue.schedule(1.0, fired.append, "late")
        queue.run_until(5.0)
        assert fired == ["late"]

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 2.0

    def test_len_counts_only_pending(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        drop = queue.schedule(2.0, lambda: None)
        drop.cancel()
        assert len(queue) == 1

    def test_stats_count_live_and_cancelled_entries(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None).cancel()
        stats = queue.stats()
        assert stats["live"] == 1
        assert stats["heap_entries"] == 2
        assert stats["cancelled_in_heap"] == 1
        assert stats["compactions"] == 0


class TestNaNRejection:
    def test_schedule_rejects_nan_time(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="NaN"):
            queue.schedule(float("nan"), lambda: None)
        # Nothing was heaped, so the clock cannot be dragged to NaN.
        assert len(queue) == 0
        queue.run_until(1.0)
        assert queue.now == 1.0

    def test_queue_schedule_in_rejects_nan(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="NaN"):
            queue.schedule_in(float("nan"), lambda: None)

    def test_negative_delay_still_clamps_to_now(self):
        queue = EventQueue()
        queue.run_until(5.0)
        fired = []
        queue.schedule_in(-1.0, fired.append, "x")
        queue.run_until(5.0)
        assert fired == ["x"]


class TestPeriodicTimer:
    def test_fires_every_period(self):
        queue = EventQueue()
        count = []
        timer = PeriodicTimer(queue, 1.0, lambda: count.append(1))
        timer.start()
        queue.run_until(5.5)
        assert len(count) == 5

    def test_start_offset(self):
        queue = EventQueue()
        times = []
        timer = PeriodicTimer(queue, 2.0, lambda: times.append(queue.now), start_offset=0.5)
        timer.start()
        queue.run_until(5.0)
        assert times == pytest.approx([0.5, 2.5, 4.5])

    def test_stop(self):
        queue = EventQueue()
        count = []
        timer = PeriodicTimer(queue, 1.0, lambda: count.append(1))
        timer.start()
        queue.run_until(2.5)
        timer.stop()
        queue.run_until(10.0)
        assert len(count) == 2
        assert not timer.running

    def test_callback_returning_false_stops_timer(self):
        queue = EventQueue()
        count = []

        def callback():
            count.append(1)
            return False

        timer = PeriodicTimer(queue, 1.0, callback)
        timer.start()
        queue.run_until(10.0)
        assert len(count) == 1
        assert not timer.running

    def test_double_start_is_idempotent(self):
        queue = EventQueue()
        count = []
        timer = PeriodicTimer(queue, 1.0, lambda: count.append(1))
        timer.start()
        timer.start()
        queue.run_until(3.5)
        assert len(count) == 3

    def test_rejects_non_positive_period(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            PeriodicTimer(queue, 0.0, lambda: None)

    def test_jitter_requires_rng(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            PeriodicTimer(queue, 1.0, lambda: None, jitter=0.2)

    def test_jittered_periods_stay_within_bounds(self):
        queue = EventQueue()
        times = []
        timer = PeriodicTimer(
            queue,
            1.0,
            lambda: times.append(queue.now),
            start_offset=0.0,
            jitter=0.25,
            rng=random.Random(3),
        )
        timer.start()
        queue.run_until(20.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps, "timer should have fired repeatedly"
        assert all(0.75 - 1e-9 <= gap <= 1.25 + 1e-9 for gap in gaps)
        # Jitter must actually vary the period.
        assert len({round(gap, 6) for gap in gaps}) > 1


class TestHeapCompaction:
    def test_cancelled_entries_are_compacted(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(40)]
        assert len(queue._heap) == 40
        # Cancelling more than half the heap triggers a compaction sweep.
        for event in events[:30]:
            event.cancel()
        assert queue.compactions >= 1
        # The sweep dropped every entry cancelled before it fired; the few
        # cancelled afterwards wait for the next sweep.
        assert len(queue._heap) < 30
        assert len(queue) == 10

    def test_compaction_preserves_firing_order(self):
        queue = EventQueue()
        fired = []
        keep = []
        cancel = []
        for i in range(50):
            event = queue.schedule(float(i % 5), fired.append, i)
            (cancel if i % 2 else keep).append(event)
        for event in cancel:
            event.cancel()
        queue.run_until(10.0)
        # Only the kept events fire, in (time, insertion) order.
        expected = sorted((i for i in range(50) if i % 2 == 0), key=lambda i: (i % 5, i))
        assert fired == expected

    def test_small_heaps_are_not_compacted(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(8)]
        for event in events:
            event.cancel()
        assert queue.compactions == 0
        assert len(queue) == 0

    def test_cancel_after_fire_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        later = [queue.schedule(2.0 + i, lambda: None) for i in range(20)]
        queue.run_until(1.5)
        event.cancel()  # already fired and popped: must not count as heaped
        assert len(queue) == 20
        for item in later:
            item.cancel()
        assert len(queue) == 0

    def test_len_is_exact_after_mixed_operations(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(30)]
        for event in events[::3]:
            event.cancel()
        assert len(queue) == 20
        queue.run_until(100.0)
        assert len(queue) == 0

    def test_compaction_inside_a_callback_fires_each_event_once(self):
        # A callback that cancels most of the heap compacts the list
        # run_until is draining; every survivor must still fire exactly once.
        queue = EventQueue()
        fired = []
        later = [queue.schedule(2.0 + i, fired.append, i) for i in range(20)]

        def cancel_most():
            for event in later[:15]:
                event.cancel()

        queue.schedule(1.0, cancel_most)
        assert queue.run_until(100.0) == 6
        assert queue.compactions == 1
        assert fired == [15, 16, 17, 18, 19]
        assert len(queue) == 0
        queue.run_until(200.0)
        assert fired == [15, 16, 17, 18, 19]


class _EagerQueue(EventQueue):
    """Compacts from two heap entries on, so random runs compact often."""

    COMPACT_MIN_SIZE = 2


#: Half-second grid: many operations land on the same instant, so the
#: creation-order tie-break is exercised constantly.
_HALVES = st.integers(min_value=-2, max_value=12).map(lambda n: n / 2.0)

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _HALVES),
        st.tuples(st.just("schedule_in"), _HALVES),
        st.tuples(st.just("canceller"), _HALVES, st.integers(min_value=0)),
        st.tuples(
            st.just("timer"),
            st.sampled_from([0.5, 1.0, 1.5]),
            st.sampled_from([0.0, 0.5, 2.0]),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("run_until"), _HALVES),
        st.tuples(st.just("peek")),
    ),
    max_size=40,
)


class TestHeapModel:
    """The queue against a list sorted by (time, creation index).

    Every schedule, ``schedule_in`` and periodic re-arm draws the next
    creation index; the model fires its earliest (time, index) entry until
    the window closes, so firing order, same-instant ties, ``len()``,
    ``peek_time()`` and ``now`` must all match after every operation.
    Cancellations come from the test and from callbacks ("canceller"
    events), and the queue compacts from two heap entries on, so a
    compaction that reordered or refired anything would show.
    """

    @settings(max_examples=60, deadline=None)
    @given(_OPERATIONS)
    def test_queue_matches_sorted_list_model(self, operations):
        queue = _EagerQueue()
        fired = []
        handles = []  # Event or PeriodicTimer, by creation order
        # Model: handle -> [time, index, action]; action is ("fire",),
        # ("cancel", target) or ("tick", period).
        pending = {}
        model = {"now": 0.0, "index": 0, "fired": []}

        def draw(time, action, handle):
            pending[handle] = [time, model["index"], action]
            model["index"] += 1

        def cancel(handle):
            item = handles[handle]
            if isinstance(item, PeriodicTimer):
                item.stop()
            else:
                item.cancel()

        def model_run_until(time):
            count = 0
            while True:
                due = [(entry[0], entry[1], handle) for handle, entry in pending.items()]
                due = [key for key in due if key[0] <= time]
                if not due:
                    break
                event_time, _, handle = min(due)
                action = pending.pop(handle)[2]
                model["now"] = event_time
                model["fired"].append((handle, event_time))
                count += 1
                if action[0] == "cancel":
                    pending.pop(action[1], None)
                elif action[0] == "tick":
                    draw(model["now"] + action[1], action, handle)
            if time > model["now"]:
                model["now"] = time
            return count

        def canceller(handle, target):
            fired.append((handle, queue.now))
            cancel(target)

        for operation in operations:
            kind = operation[0]
            handle = len(handles)
            if kind in ("schedule", "schedule_in"):
                value = operation[1]
                time = value if kind == "schedule" else model["now"] + value
                schedule = queue.schedule if kind == "schedule" else queue.schedule_in
                handles.append(schedule(value, lambda h=handle: fired.append((h, queue.now))))
                draw(max(time, model["now"]), ("fire",), handle)
            elif kind == "canceller":
                if not handles:
                    continue
                target = operation[2] % len(handles)
                handles.append(queue.schedule(operation[1], canceller, handle, target))
                draw(max(operation[1], model["now"]), ("cancel", target), handle)
            elif kind == "timer":
                period, offset = operation[1], operation[2]
                timer = PeriodicTimer(
                    queue,
                    period,
                    lambda h=handle: fired.append((h, queue.now)),
                    start_offset=offset,
                )
                handles.append(timer)
                timer.start()
                draw(model["now"] + offset, ("tick", period), handle)
            elif kind == "cancel":
                if not handles:
                    continue
                target = operation[1] % len(handles)
                cancel(target)
                pending.pop(target, None)
            elif kind == "run_until":
                time = model["now"] + operation[1]
                assert queue.run_until(time) == model_run_until(time)
            else:
                times = [entry[0] for entry in pending.values()]
                assert queue.peek_time() == (min(times) if times else None)
            assert fired == model["fired"]
            assert len(queue) == len(pending)
            assert queue.now == model["now"]
        # Drain past every one-shot event (timers keep re-arming).
        horizon = max([model["now"]] + [entry[0] for entry in pending.values()])
        assert queue.run_until(horizon) == model_run_until(horizon)
        assert fired == model["fired"]
        assert len(queue) == len(pending)
