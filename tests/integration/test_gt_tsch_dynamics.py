"""Dynamic-behaviour integration tests for GT-TSCH.

These cover the adaptive aspects of the scheduler that the steady-state
figure benchmarks do not isolate: growing the schedule when the load rises,
shrinking it when the load falls, and keeping the control plane responsive
while doing so.
"""


from repro.net.topology import star_topology
from repro.net.traffic import PeriodicTrafficGenerator

from tests.conftest import make_gt_network


class TestAdaptationToLoad:
    def test_allocation_grows_when_rate_increases(self):
        """Raising the application rate triggers new 6P ADDs (Section VI)."""
        network = make_gt_network(star_topology(2), rate_ppm=30, seed=31)
        network.run_seconds(30.0)
        leaf = network.nodes[1]
        cells_at_low_rate = leaf.scheduler.tx_data_cell_count()
        # Quadruple the application rate at run time.
        leaf.traffic.stop()
        boosted = PeriodicTrafficGenerator(rate_ppm=240)
        leaf.set_traffic_generator(boosted)
        boosted.start()
        network.run_seconds(30.0)
        assert leaf.scheduler.tx_data_cell_count() > cells_at_low_rate

    def test_allocation_shrinks_after_load_drops(self):
        """Over-provisioned cells are released with 6P DELETE (energy saving)."""
        network = make_gt_network(star_topology(2), rate_ppm=240, seed=32)
        network.run_seconds(30.0)
        leaf = network.nodes[1]
        peak = leaf.scheduler.tx_data_cell_count()
        assert peak >= 2
        leaf.traffic.stop()
        leaf.traffic_enabled = False
        network.run_seconds(40.0)
        assert leaf.scheduler.tx_data_cell_count() < peak
        assert leaf.scheduler.sixp.delete_requests_sent >= 1

    def test_queue_metric_tracks_congestion(self):
        network = make_gt_network(star_topology(2), rate_ppm=240, seed=33)
        network.run_seconds(10.0)
        leaf = network.nodes[1]
        # Artificially stuff the queue and let the next load-balance tick see it.
        for _ in range(6):
            leaf.generate_data()
        network.run_seconds(6.0)
        assert leaf.scheduler.queue_metric.updates > 0

    def test_control_overhead_is_bounded(self):
        """6P/RPL/EB control traffic stays a small fraction of data traffic."""
        network = make_gt_network(star_topology(3), rate_ppm=120, seed=34)
        metrics = network.run_experiment(warmup_s=20.0, measurement_s=30.0, drain_s=3.0)
        assert metrics.control_packets_sent < metrics.delivered

    def test_game_respects_parent_advertised_budget(self):
        """The request size never exceeds what the parent advertised (l_rx)."""
        network = make_gt_network(star_topology(3), rate_ppm=165, seed=35)
        network.run_seconds(40.0)
        for node_id in (1, 2, 3):
            node = network.nodes[node_id]
            advertised = node.rpl.parent_l_rx()
            if advertised > 0:
                assert node.scheduler.last_game_request <= max(
                    advertised, node.scheduler.tx_data_cell_count()
                )
