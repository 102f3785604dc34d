"""Tests for the OTF bandwidth-estimation scheduler."""

import pytest

from repro.net.packet import Packet, PacketType
from repro.net.topology import star_topology
from repro.schedulers.otf import (
    MAX_LANES,
    OtfConfig,
    OtfScheduler,
    lane_coordinates,
    otf_config_from,
)

from tests.conftest import make_registry_network


def make_config(**overrides):
    fields = dict(
        slotframe_length=32,
        num_channels=8,
        num_broadcast_cells=4,
        allocation_period_s=2.0,
    )
    fields.update(overrides)
    return OtfConfig(**fields)


def eb_packet(source, parent, lanes):
    return Packet(
        ptype=PacketType.EB,
        source=source,
        destination=-1,
        payload={"otf_parent": parent, "otf_lanes": lanes},
    )


@pytest.fixture
def otf_network():
    return make_registry_network("OTF", star_topology(3))


class TestOtfConfig:
    def test_from_contiki_follows_shared_knobs(self):
        class Contiki:
            gt_slotframe_length = 32
            hopping_sequence = (15, 20, 25, 26)
            num_broadcast_cells = 4
            load_balance_period_s = 4.0

        config = otf_config_from(Contiki())
        assert config.slotframe_length == 32
        assert config.num_channels == 4
        assert config.num_broadcast_cells == 4
        assert config.allocation_period_s == 4.0

    def test_broadcast_slots_spread_evenly(self):
        assert OtfScheduler(make_config()).broadcast_slots == (0, 8, 16, 24)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(num_broadcast_cells=0)
        with pytest.raises(ValueError):
            make_config(allocation_period_s=0.0)


class TestLaneCoordinates:
    def test_deterministic_and_in_range(self):
        broadcast = frozenset((0, 8, 16, 24))
        for owner in range(50):
            for index in range(6):
                first = lane_coordinates(owner, index, 32, 8, broadcast)
                again = lane_coordinates(owner, index, 32, 8, broadcast)
                assert first == again
                slot, channel = first
                assert 1 <= slot < 32 and slot not in broadcast
                assert 1 <= channel < 8

    def test_distinct_lanes_of_one_owner_spread(self):
        coords = {lane_coordinates(5, index, 32, 8) for index in range(6)}
        assert len(coords) > 1


class TestSlotframeSetup:
    def test_spread_broadcast_cells_installed(self, otf_network):
        otf_network.start()
        node = otf_network.nodes[1]
        slotframe = node.tsch.get_slotframe(OtfScheduler.SLOTFRAME_HANDLE)
        broadcast = [c for c in slotframe.all_cells() if c.is_broadcast]
        assert sorted(c.slot_offset for c in broadcast) == [0, 8, 16, 24]
        assert all(c.is_shared for c in broadcast)

    def test_default_lane_towards_parent_on_start(self, otf_network):
        otf_network.start()
        child = otf_network.nodes[1]
        assert child.scheduler.tx_lane_count() == 1
        lanes = [
            c
            for c in child.tsch.get_slotframe(0).all_cells()
            if c.label == "otf-tx-lane"
        ]
        assert len(lanes) == 1 and lanes[0].neighbor == 0
        expected = lane_coordinates(1, 0, 32, 8, child.scheduler.broadcast_slots)
        assert (lanes[0].slot_offset, lanes[0].channel_offset) == expected


class TestEbReconciliation:
    def test_parent_mirrors_advertised_lane_count(self, otf_network):
        otf_network.start()
        root = otf_network.nodes[0].scheduler
        root.on_eb_received(eb_packet(source=1, parent=0, lanes=3))
        assert root.rx_lane_count(1) == 3
        # Rx lanes sit at the CHILD's lane coordinates (sender-based).
        cells = [
            c
            for c in otf_network.nodes[0].tsch.get_slotframe(0).all_cells()
            if c.label == "otf-rx-lane" and c.neighbor == 1
        ]
        coords = {(c.slot_offset, c.channel_offset) for c in cells}
        expected = {
            lane_coordinates(1, index, 32, 8, root.broadcast_slots)
            for index in range(3)
        }
        assert coords == expected

    def test_shrinks_when_child_advertises_fewer_lanes(self, otf_network):
        otf_network.start()
        root = otf_network.nodes[0].scheduler
        root.on_eb_received(eb_packet(source=1, parent=0, lanes=3))
        root.on_eb_received(eb_packet(source=1, parent=0, lanes=1))
        assert root.rx_lane_count(1) == 1

    def test_ignores_ebs_for_other_parents(self, otf_network):
        otf_network.start()
        root = otf_network.nodes[0].scheduler
        root.on_eb_received(eb_packet(source=1, parent=2, lanes=3))
        assert root.rx_lane_count(1) == 0

    def test_stale_child_lanes_removed_on_reparent(self, otf_network):
        otf_network.start()
        root = otf_network.nodes[0].scheduler
        root.on_eb_received(eb_packet(source=1, parent=0, lanes=2))
        assert root.rx_lane_count(1) == 2
        # The child re-parents elsewhere; its next EB retires our Rx lanes.
        root.on_eb_received(eb_packet(source=1, parent=2, lanes=2))
        assert root.rx_lane_count(1) == 0

    def test_eb_fields_advertise_parent_and_lanes(self, otf_network):
        otf_network.start()
        child = otf_network.nodes[1].scheduler
        fields = child.eb_fields()
        assert fields == {"otf_parent": 0, "otf_lanes": 1}
        root = otf_network.nodes[0].scheduler
        assert root.eb_fields() == {}


class TestAllocationTick:
    def test_generation_pressure_grows_lanes(self, otf_network):
        otf_network.start()
        child = otf_network.nodes[1].scheduler
        assert child.tx_lane_count() == 1
        child._packets_generated = 100
        child._allocation_tick()
        assert child.tx_lane_count() > 1
        assert child.tx_lane_count() <= MAX_LANES

    def test_hysteresis_keeps_allocation_on_small_dips(self, otf_network):
        otf_network.start()
        child = otf_network.nodes[1].scheduler
        child._packets_generated = 100
        child._allocation_tick()
        allocated = child.tx_lane_count()
        # Demand drops to one lane: the shrink must overcome the hysteresis
        # margin, so a drop of exactly one lane below current keeps it.
        child._packets_generated = 0
        child._allocation_tick()
        assert child.tx_lane_count() < allocated  # big drop shrinks
        assert child.tx_lane_count() >= 1

    def test_forwarding_demand_counts_child_lanes(self, otf_network):
        otf_network.start()
        child = otf_network.nodes[1].scheduler
        child.on_eb_received(eb_packet(source=2, parent=1, lanes=2))
        child._packets_generated = 0
        child._allocation_tick()
        # 2 child Rx lanes must be forwardable: at least 2 Tx lanes.
        assert child.tx_lane_count() >= 2

    def test_root_never_allocates_tx_lanes(self, otf_network):
        otf_network.start()
        root = otf_network.nodes[0].scheduler
        root._packets_generated = 100
        root._allocation_tick()
        assert root.tx_lane_count() == 0

    def test_counter_only_counts_own_data(self, otf_network):
        otf_network.start()
        child = otf_network.nodes[1].scheduler
        child.on_packet_enqueued(
            Packet(ptype=PacketType.DATA, source=1, destination=0)
        )
        child.on_packet_enqueued(
            Packet(ptype=PacketType.DATA, source=2, destination=0)  # forwarded
        )
        child.on_packet_enqueued(
            Packet(ptype=PacketType.DIO, source=1, destination=-1)  # control
        )
        assert child._packets_generated == 1


class TestEndToEnd:
    def test_light_traffic_delivers(self):
        network = make_registry_network("OTF", star_topology(3), rate_ppm=30)
        metrics = network.run_experiment(warmup_s=10.0, measurement_s=20.0, drain_s=3.0)
        assert metrics.pdr_percent > 80.0
