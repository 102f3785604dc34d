"""Tests for the timer-wheel subsystem: cohort sub-queues behind one head.

The wheel's contract is *exact equivalence* with flat scheduling: member
events fire at the same times and in the same global order (including ties at
one instant, which follow creation order), timers draw the same rng numbers,
and a full simulation run with wheels disabled finalizes bit-identical
metrics for every scheduler.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.sim.events import EventQueue, PeriodicTimer


class TestWheelOrdering:
    def test_wheel_members_interleave_with_flat_events_by_time(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        fired = []
        queue.schedule(2.0, fired.append, "flat-2")
        wheel.schedule(1.0, fired.append, "wheel-1")
        queue.schedule(0.5, fired.append, "flat-0.5")
        wheel.schedule(3.0, fired.append, "wheel-3")
        queue.run_until(5.0)
        assert fired == ["flat-0.5", "wheel-1", "flat-2", "wheel-3"]

    def test_same_instant_ties_follow_creation_order(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        other = queue.wheel("other")
        fired = []
        queue.schedule(1.0, fired.append, "a")
        wheel.schedule(1.0, fired.append, "b")
        queue.schedule(1.0, fired.append, "c")
        other.schedule(1.0, fired.append, "d")
        wheel.schedule(1.0, fired.append, "e")
        queue.run_until(1.0)
        assert fired == ["a", "b", "c", "d", "e"]

    def test_callbacks_can_schedule_into_the_window(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                wheel.schedule_in(0.5, chain, n + 1)

        wheel.schedule(0.5, chain, 1)
        queue.run_until(10.0)
        assert fired == [1, 2, 3]

    def test_peek_time_sees_wheel_heads(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        queue.schedule(5.0, lambda: None)
        wheel.schedule(2.0, lambda: None)
        assert queue.peek_time() == 2.0

    def test_len_counts_wheel_members(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        queue.schedule(1.0, lambda: None)
        wheel.schedule(2.0, lambda: None)
        wheel.schedule(3.0, lambda: None)
        assert len(queue) == 3
        assert len(wheel) == 2

    def test_clear_drops_wheel_members(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        wheel.schedule(1.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
        assert queue.peek_time() is None


class TestWheelCancellation:
    def test_cancelled_members_do_not_fire(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        fired = []
        event = wheel.schedule(1.0, fired.append, "x")
        wheel.schedule(2.0, fired.append, "y")
        event.cancel()
        queue.run_until(5.0)
        assert fired == ["y"]

    def test_cancelled_head_is_skipped_by_peek(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        head = wheel.schedule(1.0, lambda: None)
        wheel.schedule(4.0, lambda: None)
        head.cancel()
        assert queue.peek_time() == 4.0

    def test_wheel_compaction(self):
        queue = EventQueue()
        wheel = queue.wheel("test")
        events = [wheel.schedule(float(i), lambda: None) for i in range(40)]
        for event in events[:30]:
            event.cancel()
        assert wheel.compactions >= 1
        assert len(wheel) == 10


class TestWheelRegistry:
    def test_wheel_is_memoised_by_name(self):
        queue = EventQueue()
        assert queue.wheel("a") is queue.wheel("a")
        assert queue.wheel("a") is not queue.wheel("b")

    def test_stats_reports_wheels(self):
        queue = EventQueue()
        wheel = queue.wheel("eb")
        wheel.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        stats = queue.stats()
        assert stats["live"] == 2
        assert stats["wheels"]["eb"]["members"] == 1
        queue.run_until(5.0)
        assert queue.stats()["wheels"]["eb"]["fired"] == 1


class TestNaNRejection:
    def test_queue_schedule_in_rejects_nan(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="NaN"):
            queue.schedule_in(float("nan"), lambda: None)

    def test_wheel_schedule_in_rejects_nan(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="NaN"):
            queue.wheel("w").schedule_in(float("nan"), lambda: None)

    def test_negative_delay_still_clamps_to_now(self):
        queue = EventQueue()
        queue.run_until(5.0)
        fired = []
        queue.schedule_in(-1.0, fired.append, "x")
        queue.run_until(5.0)
        assert fired == ["x"]


class TestPeriodicTimerOnWheel:
    def _firing_times(self, wheel: bool, jitter: float = 0.25):
        queue = EventQueue()
        times = []
        timer = PeriodicTimer(
            queue,
            1.0,
            lambda: times.append(queue.now),
            start_offset=0.3,
            jitter=jitter,
            rng=random.Random(7),
            wheel=queue.wheel("t") if wheel else None,
        )
        timer.start()
        queue.run_until(20.0)
        return times

    def test_wheel_and_flat_timers_fire_identically(self):
        assert self._firing_times(wheel=True) == self._firing_times(wheel=False)

    def test_idle_probe_settles_ticks_without_callback(self):
        queue = EventQueue()
        fired = []
        gate = {"idle": True}
        timer = PeriodicTimer(
            queue,
            1.0,
            lambda: fired.append(queue.now),
            start_offset=0.5,
            wheel=queue.wheel("t"),
            idle_probe=lambda: gate["idle"],
        )
        timer.start()
        queue.run_until(3.0)
        assert fired == []
        assert timer.settled_ticks == 3
        # The cadence survives settling: once the probe releases, firing
        # resumes at exactly the next period boundary.
        gate["idle"] = False
        queue.run_until(5.0)
        assert fired == pytest.approx([3.5, 4.5])

    def test_probe_side_is_not_consulted_after_stop(self):
        queue = EventQueue()
        probes = []
        timer = PeriodicTimer(
            queue,
            1.0,
            lambda: None,
            wheel=queue.wheel("t"),
            idle_probe=lambda: probes.append(1) or True,
        )
        timer.start()
        queue.run_until(2.5)
        timer.stop()
        queue.run_until(10.0)
        assert len(probes) == 2


class TestScenarioEquivalence:
    """Wheels on vs wheels off: finalized metrics must be bit-identical."""

    @pytest.mark.parametrize("scheduler", ["6TiSCH-minimal", "Orchestra", "GT-TSCH"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_metrics_bit_identical(self, scheduler, seed, monkeypatch):
        from repro.experiments.scenarios import traffic_load_scenario

        def run():
            scenario = traffic_load_scenario(
                rate_ppm=60.0,
                scheduler=scheduler,
                seed=seed,
                measurement_s=8.0,
                warmup_s=6.0,
            )
            network = scenario.build_network()
            metrics = network.run_experiment(
                warmup_s=6.0, measurement_s=8.0, drain_s=2.0, scheduler_name=scheduler
            )
            return network, metrics

        wheel_net, with_wheels = run()
        # Every timer family takes its wheel from EventQueue.wheel and falls
        # back to the flat heap when handed None instead.
        monkeypatch.setattr(EventQueue, "wheel", lambda queue, name: None)
        flat_net, without_wheels = run()
        assert dataclasses.asdict(with_wheels) == dataclasses.asdict(without_wheels)
        assert wheel_net.clock.asn == flat_net.clock.asn
        assert (
            wheel_net.medium.total_transmissions == flat_net.medium.total_transmissions
        )
        # The wheel run actually used cohorts; the flat run did not.
        assert wheel_net.events.stats()["wheels"]
        assert not flat_net.events.stats()["wheels"]
