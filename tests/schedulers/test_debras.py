"""Tests for the DeBrAS broadcast-aware autonomous scheduler."""

import pytest

from repro.net.topology import star_topology
from repro.schedulers.autonomous import sax_hash
from repro.schedulers.debras import DebrasConfig, DebrasScheduler, debras_config_from

from tests.conftest import make_registry_network


def make_config(**overrides):
    fields = dict(
        slotframe_length=32,
        num_channels=8,
        num_broadcast_cells=4,
    )
    fields.update(overrides)
    return DebrasConfig(**fields)


@pytest.fixture
def debras_network():
    return make_registry_network("DeBrAS", star_topology(3))


class TestDebrasConfig:
    def test_broadcast_slots_spread_evenly(self):
        assert DebrasScheduler(make_config()).broadcast_slots == (0, 8, 16, 24)
        single = DebrasScheduler(make_config(num_broadcast_cells=1))
        assert single.broadcast_slots == (0,)

    def test_from_contiki_shares_broadcast_budget(self):
        class Contiki:
            gt_slotframe_length = 32
            hopping_sequence = (15, 20, 25, 26)
            num_broadcast_cells = 4

        config = debras_config_from(Contiki())
        assert config.slotframe_length == 32
        assert config.num_channels == 4
        assert config.num_broadcast_cells == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(num_broadcast_cells=0)
        with pytest.raises(ValueError):
            make_config(num_broadcast_cells=32)
        with pytest.raises(ValueError):
            make_config(num_channels=1)


class TestBroadcastAvoidance:
    def test_autonomous_cells_never_land_on_a_broadcast_cell(self):
        scheduler = DebrasScheduler(make_config())
        broadcast = set(scheduler.broadcast_slots)
        for owner in range(200):
            slot, channel = scheduler._autonomous_cell(owner)
            assert slot not in broadcast
            assert 0 <= slot < scheduler.config.slotframe_length
            assert 1 <= channel < scheduler.config.num_channels

    def test_probing_is_deterministic_across_instances(self):
        # Sender and receiver must independently derive identical coordinates.
        a = DebrasScheduler(make_config())
        b = DebrasScheduler(make_config())
        for owner in range(50):
            assert a._autonomous_cell(owner) == b._autonomous_cell(owner)

    def test_colliding_owner_relocates_to_next_free_slot(self):
        # Construct an owner whose raw hash slot is a broadcast slot; the
        # probed slot must be the next non-broadcast one.
        config = make_config()
        scheduler = DebrasScheduler(config)
        broadcast = set(scheduler.broadcast_slots)
        owner = next(
            i for i in range(1000) if sax_hash(i) % config.slotframe_length in broadcast
        )
        raw = sax_hash(owner) % config.slotframe_length
        slot, _ = scheduler._autonomous_cell(owner)
        expected = raw
        while expected in broadcast:
            expected = (expected + 1) % config.slotframe_length
        assert slot == expected


class TestSlotframeSetup:
    def test_broadcast_cells_and_own_rx_installed(self, debras_network):
        debras_network.start()
        node = debras_network.nodes[1]
        slotframe = node.tsch.get_slotframe(DebrasScheduler.SLOTFRAME_HANDLE)
        broadcast = [c for c in slotframe.all_cells() if c.is_broadcast]
        assert sorted(c.slot_offset for c in broadcast) == [0, 8, 16, 24]
        assert all(c.is_shared and c.is_tx and c.is_rx for c in broadcast)
        rx = [c for c in slotframe.all_cells() if c.label == "debras-autonomous-rx"]
        assert len(rx) == 1
        assert (rx[0].slot_offset, rx[0].channel_offset) == node.scheduler._autonomous_cell(1)

    def test_link_ends_agree_on_cell_coordinates(self, debras_network):
        debras_network.start()
        child = debras_network.nodes[1]
        root = debras_network.nodes[0]
        tx = [
            c
            for c in child.tsch.get_slotframe(0).all_cells()
            if c.label == "debras-autonomous-tx"
        ]
        assert len(tx) == 1 and tx[0].neighbor == 0
        # The child transmits on the ROOT's autonomous cell (receiver-based).
        root_rx = [
            c
            for c in root.tsch.get_slotframe(0).all_cells()
            if c.label == "debras-autonomous-rx"
        ]
        assert (tx[0].slot_offset, tx[0].channel_offset) == (
            root_rx[0].slot_offset,
            root_rx[0].channel_offset,
        )


class TestTopologyTracking:
    def test_parent_switch_moves_tx_cell(self, debras_network):
        debras_network.start()
        node = debras_network.nodes[1]
        node.scheduler.on_parent_changed(0, 3)
        cells = list(node.tsch.get_slotframe(0).all_cells())
        assert not [c for c in cells if c.neighbor == 0 and c.is_tx]
        moved = [c for c in cells if c.neighbor == 3 and c.is_tx]
        assert len(moved) == 1
        assert (moved[0].slot_offset, moved[0].channel_offset) == node.scheduler._autonomous_cell(3)

    def test_child_cells_added_and_removed(self, debras_network):
        debras_network.start()
        root = debras_network.nodes[0]
        root.scheduler.on_child_added(2)
        cells = list(root.tsch.get_slotframe(0).all_cells())
        assert [c for c in cells if c.neighbor == 2 and c.is_tx]
        root.scheduler.on_child_removed(2)
        assert not [
            c for c in root.tsch.get_slotframe(0).all_cells() if c.neighbor == 2
        ]


class TestEndToEnd:
    def test_never_negotiates_over_sixp(self):
        network = make_registry_network("DeBrAS", star_topology(3), rate_ppm=60)
        network.run_seconds(20.0)
        for node in network.nodes.values():
            assert node.sixtop.requests_sent == 0

    def test_light_traffic_delivers(self):
        network = make_registry_network("DeBrAS", star_topology(3), rate_ppm=30)
        metrics = network.run_experiment(warmup_s=10.0, measurement_s=20.0, drain_s=3.0)
        assert metrics.pdr_percent > 80.0
