"""Cold-start join tests: EB scan, synchronisation, desync re-scan, metrics."""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import GT_TSCH, MINIMAL, MSF, join_scenario
from repro.mac.hopping import DEFAULT_HOPPING_SEQUENCE


def build_join_network(scheduler=MINIMAL, seed=1, **kwargs):
    scenario = join_scenario(
        nodes_per_dodag=3,
        scheduler=scheduler,
        seed=seed,
        measurement_s=kwargs.pop("measurement_s", 30.0),
        warmup_s=kwargs.pop("warmup_s", 5.0),
        num_dodags=kwargs.pop("num_dodags", 1),
        **kwargs,
    )
    return scenario.build_network(), scenario


def run_to(network, seconds):
    target = network.clock.seconds_to_slots(seconds)
    if target > network.clock.asn:
        network.run_slots(target - network.clock.asn)


class TestColdBoot:
    def test_non_root_nodes_boot_scanning(self):
        network, _scenario = build_join_network()
        network.start()
        root = network.nodes[0]
        assert not root.cold_start
        assert not root.tsch.scanning
        for node_id, node in network.nodes.items():
            if node_id == 0:
                continue
            assert node.cold_start
            assert node.tsch.scanning
            assert node.rpl.preferred_parent is None
            assert node.tsch.all_cells() == []
            assert node_id in network._scanning

    def test_scan_channel_walks_the_hopping_sequence(self):
        network, _scenario = build_join_network()
        network.start()
        engine = network.nodes[1].tsch
        dwell = engine.config.scan_dwell_slots
        period = len(DEFAULT_HOPPING_SEQUENCE)
        for asn in (0, 1, dwell - 1, dwell, 5 * dwell + 3, 1000):
            expected = DEFAULT_HOPPING_SEQUENCE[(asn // dwell) % period]
            assert engine.scan_channel(asn) == expected
        # The plan is interned per channel and listens outside any cell.
        plan = engine.scan_plan(0)
        assert plan.action == "rx"
        assert plan.cell is None
        assert plan is engine.scan_plan(0)

    def test_scan_slots_account_as_idle_listen(self):
        network, _scenario = build_join_network()
        network.start()
        # 50 slots (0.5 s) is well before the root's first EB at ~2 s.
        network.run_slots(50)
        network._flush_duty_cycle()
        for node_id, node in network.nodes.items():
            if node_id == 0:
                continue
            assert node.tsch.scanning
            meter = node.tsch.duty_cycle
            # Every scan slot is one idle listen: radio on, nothing decoded.
            assert meter.rx_slots == 50
            assert meter.idle_listen_slots == 50
            assert meter.sleep_slots == 0
            assert meter.total_slots == 50


class TestSynchronisation:
    @pytest.mark.parametrize("scheduler", [MINIMAL, GT_TSCH])
    def test_whole_network_joins(self, scheduler):
        network, _scenario = build_join_network(scheduler=scheduler)
        network.start()
        run_to(network, 30.0)
        for node in network.nodes.values():
            assert not node.tsch.scanning
            assert node.rpl.is_joined()
        assert network._scanning == {}

    def test_sync_starts_the_stack_and_join_closes_on_parent(self):
        network, _scenario = build_join_network()
        network.start()
        run_to(network, 30.0)
        node = network.nodes[2]
        assert node.tsch.all_cells() != []
        assert node.rpl.preferred_parent is not None
        # The join episode closed exactly once per node.
        collector = network.metrics
        assert collector is not None
        assert collector._join_open == {}
        assert len(collector._join_durations) == 2

    def test_join_metrics_exported_with_censoring_keys(self):
        network, scenario = build_join_network()
        metrics = network.run_experiment(
            warmup_s=scenario.warmup_s,
            measurement_s=scenario.measurement_s,
            drain_s=3.0,
            scheduler_name=scenario.scheduler,
        )
        assert metrics.nodes_joined == 2
        assert metrics.time_to_join_s > 0.0
        assert metrics.time_to_first_packet_s > metrics.time_to_join_s
        data = metrics.as_dict()
        for key in ("time_to_join_s", "time_to_first_packet_s", "nodes_joined"):
            assert key in data


class TestDesync:
    def test_keepalive_silence_forces_a_rescan(self):
        network, _scenario = build_join_network(desync_timeout_s=5.0)
        network.start()
        run_to(network, 30.0)
        node = network.nodes[2]
        assert not node.tsch.scanning
        assert node._keepalive_timer is not None
        faults_before = network.metrics._faults_injected
        # Simulate prolonged silence: nothing heard for over the timeout.
        node._last_heard_s = network.events.now - 10.0
        node._keepalive_check()
        assert node.tsch.scanning
        assert node.rpl.preferred_parent is None
        assert node.tsch.all_cells() == []
        assert len(node.tsch.queue) == 0
        assert network.metrics._faults_injected == faults_before + 1
        # The node re-syncs off the next beacon and rejoins.
        run_to(network, 60.0)
        assert not node.tsch.scanning
        assert node.rpl.is_joined()

    def test_resync_boots_a_fresh_scheduler_whose_books_match_the_schedule(self):
        # Keepalive desyncs fire on their own in this cell (nodes 1-3).  A
        # resync that restarted the torn-down scheduler kept its 6P book of
        # cleared cells, and MSF asks for a first cell only while that book
        # is empty.
        scenario = join_scenario(7, MSF, seed=1, desync_timeout_s=3.0, measurement_s=20.0)
        network = scenario.build_network()
        network.run_experiment(scenario.warmup_s, scenario.measurement_s)
        assert network.metrics._faults_injected > 0
        for node in network.nodes.values():
            installed = [id(cell) for cell in node.tsch.all_cells()]
            for cell in node.scheduler.sixp.tx["data"]:
                assert id(cell) in installed, (node.node_id, cell)

    def test_desync_installs_a_fresh_scheduler(self):
        network, _scenario = build_join_network(desync_timeout_s=5.0)
        network.start()
        run_to(network, 30.0)
        node = network.nodes[2]
        before = node.scheduler
        node._desynchronise()
        assert node.scheduler is not before
        assert node.scheduler.node is node

    def test_no_keepalive_timer_without_timeout(self):
        network, _scenario = build_join_network()
        assert network.nodes[1]._keepalive_timer is None

    def test_keepalive_noop_while_recently_heard(self):
        network, _scenario = build_join_network(desync_timeout_s=5.0)
        network.start()
        run_to(network, 30.0)
        node = network.nodes[2]
        node._last_heard_s = network.events.now - 1.0
        node._keepalive_check()
        assert not node.tsch.scanning
