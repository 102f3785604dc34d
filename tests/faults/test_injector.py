"""Unit tests for :class:`repro.faults.FaultInjector` against live networks."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.scenarios import GT_TSCH, MINIMAL, MSF, traffic_load_scenario
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    NodeArrival,
    NodeCrash,
    NodeRejoin,
    ParentLoss,
)
from repro.rpl.rank import INFINITE_RANK

#: Victim of the canonical test plan (a non-root node of the Fig. 8
#: topology, whose roots sit at ids 0 and 7).
VICTIM = 3

PLAN = FaultPlan(
    crashes=(NodeCrash(time_s=10.0, node_id=VICTIM, detect_after_s=1.5),),
    rejoins=(NodeRejoin(time_s=16.0, node_id=VICTIM),),
    link_epochs=(LinkDegradation(time_s=12.0, prr_scale=0.6, duration_s=4.0),),
    parent_losses=(ParentLoss(time_s=18.0, node_id=1),),
)


def build_network(plan, scheduler=MINIMAL, seed=1):
    scenario = traffic_load_scenario(
        rate_ppm=60.0,
        scheduler=scheduler,
        seed=seed,
        measurement_s=14.0,
        warmup_s=8.0,
    )
    scenario = replace(scenario, faults=plan)
    return scenario.build_network(), scenario


def run_to(network, seconds: float) -> None:
    """Advance the simulation to (at least) ``seconds``."""
    target = network.clock.seconds_to_slots(seconds)
    if target > network.clock.asn:
        network.run_slots(target - network.clock.asn)


class TestArmValidation:
    def test_root_crash_rejected(self):
        plan = FaultPlan(crashes=(NodeCrash(time_s=5.0, node_id=0),))
        with pytest.raises(ValueError, match="root"):
            build_network(plan)

    def test_unknown_node_rejected(self):
        plan = FaultPlan(crashes=(NodeCrash(time_s=5.0, node_id=999),))
        with pytest.raises(ValueError, match="unknown node"):
            build_network(plan)

    def test_rejoin_requires_scheduler_factory(self):
        network, _scenario = build_network(None)
        plan = FaultPlan(
            crashes=(NodeCrash(time_s=5.0, node_id=VICTIM),),
            rejoins=(NodeRejoin(time_s=9.0, node_id=VICTIM),),
        )
        injector = FaultInjector(network, plan)
        with pytest.raises(ValueError, match="scheduler_factory"):
            injector.arm()

    def test_arm_is_idempotent(self):
        network, _scenario = build_network(PLAN)
        injector = network.fault_injector
        before = len(network.events._heap)
        injector.arm()  # second call: no duplicate events
        assert len(network.events._heap) == before

    def test_empty_plan_not_armed_by_scenario(self):
        network, _scenario = build_network(FaultPlan())
        assert not hasattr(network, "fault_injector")


class TestCrash:
    def test_crash_silences_the_node(self):
        network, _scenario = build_network(PLAN)
        run_to(network, 11.0)
        node = network.nodes[VICTIM]
        assert node.alive is False
        assert node.traffic_enabled is False
        assert not node.traffic.running
        assert len(node.tsch.queue) == 0
        assert node.tsch.all_cells() == []
        assert node.rpl.preferred_parent is None
        assert node.rpl.dodag_id is None
        assert node.rpl.rank == INFINITE_RANK
        # A dead radio arms no advertisement timers.
        assert not node._eb_timer.running
        assert not node.rpl.trickle.running

    def test_dead_node_refuses_packets(self):
        from repro.net.packet import make_data_packet

        network, _scenario = build_network(PLAN)
        run_to(network, 11.0)
        node = network.nodes[VICTIM]
        packet = make_data_packet(VICTIM, 0, created_at=11.0)
        assert node.enqueue_packet(packet) is False
        assert node.generate_data() is None

    def test_detection_evicts_the_dead_neighbor_everywhere(self):
        network, _scenario = build_network(PLAN)
        run_to(network, 13.0)  # past crash (10.0) + detect_after (1.5)
        for node in network.nodes.values():
            if node.node_id == VICTIM:
                continue
            assert VICTIM not in node.rpl.neighbors
            assert VICTIM not in node.rpl.children
            for frame in node.tsch.slotframes.values():
                assert frame.cells_with_neighbor(VICTIM) == []


def teardown_state(node):
    """What a teardown leaves of ``node``: RPL, queue, schedule and timers."""
    rpl = node.rpl
    return {
        "rpl": (
            rpl.preferred_parent,
            rpl.rank,
            rpl.dodag_id,
            dict(rpl.neighbors),
            set(rpl.children),
            rpl.trickle.running,
        ),
        "queue": [
            (packet.ptype, packet.source, packet.link_destination, packet.created_at)
            for packet in node.tsch.queue
        ],
        "cells": sorted(
            (cell.slot_offset, cell.channel_offset, str(cell.neighbor), cell.label)
            for cell in node.tsch.all_cells()
        ),
        "quiet": set(node.tsch._quiet),
        "timers": (node._eb_timer.running, node.traffic._timer.running),
    }


class TestCrashMatchesDesync:
    """A crash and a keepalive desync share one teardown (``Node.power_down``)."""

    @pytest.mark.parametrize("scheduler", [MINIMAL, GT_TSCH])
    def test_same_instant_same_state(self, scheduler):
        crashed_net, _scenario = build_network(None, scheduler=scheduler)
        desynced_net, _scenario = build_network(None, scheduler=scheduler)
        for network in (crashed_net, desynced_net):
            run_to(network, 15.0)
        crashed = crashed_net.nodes[VICTIM]
        desynced = desynced_net.nodes[VICTIM]
        before = teardown_state(crashed)
        assert before == teardown_state(desynced)
        assert before["rpl"][0] is not None and before["queue"] and before["cells"]

        FaultInjector(crashed_net, FaultPlan())._crash(NodeCrash(time_s=15.0, node_id=VICTIM))
        desynced._desynchronise()

        after = teardown_state(crashed)
        assert after == teardown_state(desynced)
        assert after["rpl"] == (None, INFINITE_RANK, None, {}, set(), False)
        assert after["queue"] == [] and after["cells"] == [] and not after["quiet"]
        assert after["timers"] == (False, False)
        # Only liveness and scanning differ: the desynced node scans again.
        assert (crashed.alive, crashed.tsch.scanning) == (False, False)
        assert (desynced.alive, desynced.tsch.scanning) == (True, True)


def boot_timers(node):
    """Which of ``node``'s periodic timers its last boot armed."""
    scheduler = node.scheduler
    return {
        "eb": node._eb_timer.running,
        "traffic": node.traffic.running,
        "round": scheduler._round.running,
        "round_period_s": scheduler.load_balance_period_s(),
        "keepalive": node._keepalive_timer,
    }


class TestBootMatchesStart:
    """Network start, a warm rejoin and a synchronised arrival share one boot
    (``Node.power_up``), so each arms the same timers."""

    @pytest.mark.parametrize("scheduler", [GT_TSCH, MSF])
    def test_same_timers_after_every_boot(self, scheduler):
        started_net, scenario = build_network(None, scheduler=scheduler)
        started_net.start()

        rejoin_plan = FaultPlan(
            crashes=(NodeCrash(time_s=10.0, node_id=VICTIM, detect_after_s=1.5),),
            rejoins=(NodeRejoin(time_s=16.0, node_id=VICTIM),),
        )
        rejoined_net, _scenario = build_network(rejoin_plan, scheduler=scheduler)
        run_to(rejoined_net, 11.0)
        crashed_scheduler = rejoined_net.nodes[VICTIM].scheduler
        run_to(rejoined_net, 16.1)
        rejoined = rejoined_net.nodes[VICTIM]
        assert rejoined.scheduler is not crashed_scheduler
        assert not crashed_scheduler._round.running
        assert rejoined.rpl.preferred_parent is not None  # a warm re-attach

        arrival_plan = FaultPlan(arrivals=(NodeArrival(time_s=12.0, node_id=VICTIM),))
        arrived_net, _scenario = build_network(arrival_plan, scheduler=scheduler)
        run_to(arrived_net, 12.1)
        arrived = arrived_net.nodes[VICTIM]
        assert arrived.alive and arrived.rpl.preferred_parent is None

        expected = {
            "eb": True,
            "traffic": True,
            "round": True,
            "round_period_s": scenario.contiki.load_balance_period_s,
            "keepalive": None,
        }
        assert boot_timers(started_net.nodes[VICTIM]) == expected
        assert boot_timers(rejoined) == expected
        assert boot_timers(arrived) == expected


class TestRejoin:
    def test_rejoin_restores_a_working_node(self):
        network, _scenario = build_network(PLAN)
        run_to(network, 11.0)
        crashed_scheduler = network.nodes[VICTIM].scheduler
        run_to(network, 17.0)
        node = network.nodes[VICTIM]
        assert node.alive is True
        assert node.traffic_enabled is True
        assert node.scheduler is not crashed_scheduler  # cold reboot
        # Warm re-attach: the pre-crash parent survived, so the node is
        # joined again without waiting for a Trickle-timed DIO.
        assert node.rpl.preferred_parent is not None
        assert node.rpl.dodag_id is not None
        assert node.rpl.rank < INFINITE_RANK
        # The reboot re-armed the advertisement timers.
        assert node._eb_timer.running
        assert node.rpl.trickle.running

    def test_rejoin_is_noop_for_alive_node(self):
        network, _scenario = build_network(PLAN)
        run_to(network, 9.0)
        node = network.nodes[VICTIM]
        scheduler = node.scheduler
        network.fault_injector._rejoin(NodeRejoin(time_s=9.0, node_id=VICTIM))
        assert node.scheduler is scheduler


class TestLinkDegradation:
    def test_epoch_scales_then_restores_exactly(self):
        network, _scenario = build_network(PLAN)
        medium = network.medium
        ids = medium.node_ids()

        def prrs():
            return {(a, b): medium.link_prr(a, b) for a in ids for b in ids}

        pristine = prrs()
        run_to(network, 13.0)  # inside the [12, 16) epoch
        assert medium.prr_scale == 0.6
        assert prrs() == {link: value * 0.6 for link, value in pristine.items()}
        run_to(network, 17.0)  # epoch closed
        assert medium.prr_scale == 1.0
        assert prrs() == pristine

    def test_overlapping_epochs_multiply(self):
        plan = FaultPlan(
            link_epochs=(
                LinkDegradation(time_s=9.0, prr_scale=0.5, duration_s=4.0),
                LinkDegradation(time_s=10.0, prr_scale=0.5, duration_s=1.0),
            )
        )
        network, _scenario = build_network(plan)
        run_to(network, 10.5)
        assert network.medium.prr_scale == 0.25
        run_to(network, 12.0)
        assert network.medium.prr_scale == 0.5
        run_to(network, 14.0)
        assert network.medium.prr_scale == 1.0


class TestParentLoss:
    def test_parent_loss_evicts_and_reselects(self):
        network, _scenario = build_network(PLAN)
        run_to(network, 17.9)
        node = network.nodes[1]
        old_parent = node.rpl.preferred_parent
        assert old_parent is not None
        run_to(network, 18.5)
        assert old_parent not in node.rpl.neighbors
        # MRHOF re-ran immediately; with other candidates advertised the
        # node re-attaches (possibly to a different parent).
        assert node.rpl.preferred_parent != old_parent or old_parent is None


class TestArrival:
    ARRIVER = 3

    def _plan(self, time_s=12.0):
        return FaultPlan(arrivals=(NodeArrival(time_s=time_s, node_id=self.ARRIVER),))

    def test_root_arrival_rejected(self):
        plan = FaultPlan(arrivals=(NodeArrival(time_s=5.0, node_id=0),))
        with pytest.raises(ValueError, match="root"):
            build_network(plan)

    def test_unknown_arriver_rejected(self):
        plan = FaultPlan(arrivals=(NodeArrival(time_s=5.0, node_id=999),))
        with pytest.raises(ValueError, match="unknown node"):
            build_network(plan)

    def test_arrival_requires_scheduler_factory(self):
        network, _scenario = build_network(None)
        injector = FaultInjector(network, self._plan())
        with pytest.raises(ValueError, match="scheduler_factory"):
            injector.arm()

    def test_arrivals_must_be_armed_before_start(self):
        network, _scenario = build_network(None)
        network.start()
        injector = FaultInjector(
            network,
            self._plan(),
            scheduler_factory=lambda node_id, is_root: None,
        )
        with pytest.raises(ValueError, match="before the network starts"):
            injector.arm()

    def test_arriver_is_absent_until_its_time(self):
        network, _scenario = build_network(self._plan())
        node = network.nodes[self.ARRIVER]
        # Pre-marked at arm time, before slot 0.
        assert node.alive is False
        assert node.traffic_enabled is False
        run_to(network, 11.0)
        assert node.alive is False
        assert node.rpl.preferred_parent is None
        assert len(node.tsch.queue) == 0
        assert node.tsch.all_cells() == []
        # Nobody in the network ever saw it.
        for other in network.nodes.values():
            if other.node_id == self.ARRIVER:
                continue
            assert self.ARRIVER not in other.rpl.neighbors
            assert self.ARRIVER not in other.rpl.children

    @pytest.mark.xfail(
        strict=True,
        reason="the Trickle timer the warm-start preset armed keeps running while "
        "the node is absent: it draws the node's rpl stream, and the arrival "
        "resets its backed-off interval instead of starting a fresh one",
    )
    def test_absent_arriver_runs_no_trickle_timer(self):
        network, _scenario = build_network(self._plan())
        node = network.nodes[self.ARRIVER]
        assert not node.rpl.trickle.running
        run_to(network, 11.0)
        assert not node.rpl.trickle.running

    def test_arrival_boots_a_working_node(self):
        network, _scenario = build_network(self._plan())
        run_to(network, 13.0)
        node = network.nodes[self.ARRIVER]
        assert node.alive is True
        assert node.traffic_enabled is True
        run_to(network, 22.0)
        # A DIO adopted the newcomer into the DODAG.
        assert node.rpl.preferred_parent is not None
        assert node.rpl.dodag_id is not None

    def test_arrival_is_noop_for_alive_node(self):
        network, _scenario = build_network(self._plan())
        run_to(network, 13.0)
        node = network.nodes[self.ARRIVER]
        scheduler = node.scheduler
        network.fault_injector._arrival(NodeArrival(time_s=13.0, node_id=self.ARRIVER))
        assert node.scheduler is scheduler

    def test_arrival_counts_as_injected_fault(self):
        network, scenario = build_network(self._plan())
        metrics = network.run_experiment(
            warmup_s=scenario.warmup_s,
            measurement_s=scenario.measurement_s,
            drain_s=3.0,
            scheduler_name=scenario.scheduler,
        )
        assert metrics.faults_injected == 1
        assert metrics.nodes_joined == 1
        assert metrics.time_to_join_s > 0.0


class TestRejoinInsideOpenEpoch:
    """Censoring edge case: a cold reboot lands inside a degradation epoch.

    The rejoining node opens a join episode while every link is degraded;
    it may or may not close before the window does.  Either way the run
    must finalize cleanly -- open episodes censor at the window close --
    and the epoch's restore barrier must still fire on schedule.
    """

    def _plan(self):
        return FaultPlan(
            crashes=(NodeCrash(time_s=10.0, node_id=VICTIM, detect_after_s=1.5),),
            # Rejoin at 14.0, strictly inside the [12, 18) epoch.
            rejoins=(NodeRejoin(time_s=14.0, node_id=VICTIM),),
            link_epochs=(
                LinkDegradation(time_s=12.0, prr_scale=0.4, duration_s=6.0),
            ),
        )

    def test_cold_rejoin_during_epoch_finalizes_and_restores(self):
        scenario = replace(
            traffic_load_scenario(
                rate_ppm=60.0,
                scheduler=MINIMAL,
                seed=1,
                measurement_s=14.0,
                warmup_s=8.0,
            ),
            faults=self._plan(),
        )
        # Cold-start join: the reboot re-enters the EB scan mid-epoch.
        contiki = replace(scenario.contiki, cold_start_join=True)
        scenario = replace(scenario, contiki=contiki, warm_start=False)
        network = scenario.build_network()
        metrics = network.run_experiment(
            warmup_s=scenario.warmup_s,
            measurement_s=scenario.measurement_s,
            drain_s=3.0,
            scheduler_name=scenario.scheduler,
        )
        assert metrics.faults_injected == 3
        assert network.medium.prr_scale == 1.0  # restore fired on schedule
        # Every boot opened a join episode; closed or censored, the export
        # is finite and the rebooted node's episode was not dropped.
        assert metrics.time_to_join_s > 0.0
        assert metrics.time_to_first_packet_s >= 0.0
        assert 0 <= metrics.nodes_joined <= len(network.nodes)
        data = metrics.as_dict()
        assert data["time_to_join_s"] == metrics.time_to_join_s

    def test_warm_rejoin_during_epoch_finalizes_and_restores(self):
        network, scenario = build_network(self._plan())
        metrics = network.run_experiment(
            warmup_s=scenario.warmup_s,
            measurement_s=scenario.measurement_s,
            drain_s=3.0,
            scheduler_name=scenario.scheduler,
        )
        assert metrics.faults_injected == 3
        assert network.medium.prr_scale == 1.0
        assert network.nodes[VICTIM].alive


class TestRecoveryMetrics:
    def test_full_plan_reports_recovery_metrics(self):
        network, scenario = build_network(PLAN)
        metrics = network.run_experiment(
            warmup_s=scenario.warmup_s,
            measurement_s=scenario.measurement_s,
            drain_s=3.0,
            scheduler_name=scenario.scheduler,
        )
        assert metrics.faults_injected == 4
        assert metrics.time_to_reconverge_s > 0.0
        assert metrics.packets_lost_to_crash >= 0
        assert 0.0 <= metrics.pdr_under_churn_percent <= 100.0
        data = metrics.as_dict()
        for key in (
            "time_to_reconverge_s",
            "pdr_under_churn_percent",
            "packets_lost_to_crash",
            "orphaned_cell_slots",
        ):
            assert key in data
