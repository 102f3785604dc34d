"""Tests for the 6TiSCH minimal-configuration scheduler."""

from repro.mac.cell import CellPurpose
from repro.net.network import Network
from repro.net.node import NodeConfig
from repro.net.topology import star_topology
from repro.net.traffic import PeriodicTrafficGenerator
from repro.schedulers import minimal
from repro.schedulers.minimal import MinimalScheduler


def make_minimal_network(rate_ppm=0.0, seed=5):
    network = Network(seed=seed, default_node_config=NodeConfig())
    topology = star_topology(3)

    def traffic_factory(node_id, is_root):
        if is_root or rate_ppm <= 0:
            return None
        return PeriodicTrafficGenerator(rate_ppm=rate_ppm)

    network.build_from_topology(
        topology,
        scheduler_factory=lambda node_id, is_root: MinimalScheduler(),
        traffic_factory=traffic_factory,
    )
    return network


class TestMinimalConfig:
    def test_defaults(self):
        # Contiki-NG's default minimal slotframe; nothing is configurable.
        assert minimal.SLOTFRAME_LENGTH == 7
        assert MinimalScheduler().config_fingerprint() is None


class TestMinimalSchedule:
    def test_single_shared_cell_installed(self):
        network = make_minimal_network()
        network.start()
        node = network.nodes[1]
        cells = node.tsch.all_cells()
        assert len(cells) == 1
        cell = cells[0]
        assert cell.is_tx and cell.is_rx and cell.is_shared and cell.is_broadcast
        assert cell.slot_offset == 0
        assert cell.purpose is CellPurpose.SHARED
        assert node.tsch.get_slotframe(0).length == minimal.SLOTFRAME_LENGTH

    def test_light_traffic_flows_through_shared_cell(self):
        network = make_minimal_network(rate_ppm=10)
        metrics = network.run_experiment(warmup_s=10.0, measurement_s=30.0, drain_s=3.0)
        assert metrics.generated > 0
        assert metrics.delivered > 0

    def test_saturates_under_heavier_load_than_gt_tsch(self):
        """The minimal schedule has a single contention cell: at 120 ppm per
        node it cannot keep up, which is why real deployments need an SF."""
        network = make_minimal_network(rate_ppm=120)
        metrics = network.run_experiment(warmup_s=10.0, measurement_s=30.0, drain_s=3.0)
        assert metrics.pdr_percent < 90.0
