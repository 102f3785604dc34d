"""Tests for the bounded MAC transmission queue."""

import pytest
from hypothesis import given, strategies as st

from repro.mac.queue import TxQueue
from repro.net.packet import BROADCAST_ADDRESS, Packet, PacketType, make_data_packet


def data_packet(destination=1, source=0):
    packet = make_data_packet(source, destination, created_at=0.0)
    packet.link_destination = destination
    return packet


def control_packet(destination=BROADCAST_ADDRESS, ptype=PacketType.DIO):
    return Packet(
        ptype=ptype,
        source=0,
        destination=destination,
        link_source=0,
        link_destination=destination,
    )


class TestCapacity:
    def test_accepts_until_full(self):
        queue = TxQueue(capacity=3)
        assert all(queue.add(data_packet()) for _ in range(3))
        assert queue.is_full
        assert not queue.add(data_packet())
        assert queue.drops == 1
        assert queue.data_drops == 1

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            TxQueue(capacity=0)

    def test_free_space_and_max_occupancy(self):
        queue = TxQueue(capacity=4)
        queue.add(data_packet())
        queue.add(data_packet())
        assert queue.free_space == 2
        assert queue.max_occupancy == 2

    def test_control_packet_evicts_youngest_data_when_full(self):
        """Schedule/topology maintenance must survive data overload: the
        node evicts for a control frame, then adds it (``Node.enqueue_packet``)."""
        queue = TxQueue(capacity=2)
        first = data_packet(destination=1)
        second = data_packet(destination=2)
        queue.add(first)
        queue.add(second)
        control = control_packet()
        assert queue.evict_for(control) is second
        assert queue.add(control)
        assert queue.data_drops == 1
        remaining = list(queue)
        assert second not in remaining
        assert first in remaining

    def test_full_queue_refuses_a_control_frame_without_eviction(self):
        queue = TxQueue(capacity=1)
        queue.add(data_packet())
        assert not queue.add(control_packet())
        assert queue.drops == 1 and queue.data_drops == 0
        assert queue.evict_for(data_packet()) is None

    def test_control_dropped_when_queue_full_of_control(self):
        queue = TxQueue(capacity=2)
        queue.add(control_packet())
        queue.add(control_packet())
        assert not queue.add(control_packet())
        assert queue.data_drops == 0
        assert queue.drops == 1


class TestOrderingAndLookup:
    def test_fifo_for_data(self):
        queue = TxQueue(capacity=5)
        first = data_packet(destination=1)
        second = data_packet(destination=1)
        queue.add(first)
        queue.add(second)
        assert queue.peek_for(1) is first

    def test_control_prioritized_before_data(self):
        queue = TxQueue(capacity=5)
        data = data_packet(destination=1)
        queue.add(data)
        dao = control_packet(destination=1, ptype=PacketType.DAO)
        queue.add(dao)
        assert queue.peek_for(1) is dao

    def test_peek_for_specific_neighbor(self):
        queue = TxQueue(capacity=5)
        to_one = data_packet(destination=1)
        to_two = data_packet(destination=2)
        queue.add(to_one)
        queue.add(to_two)
        assert queue.peek_for(2) is to_two
        assert queue.peek_for(3) is None

    def test_peek_any_unicast_skips_broadcast(self):
        queue = TxQueue(capacity=5)
        dio = control_packet()
        data = data_packet(destination=4)
        queue.add(dio)
        queue.add(data)
        assert queue.peek_for(None) is data

    def test_peek_broadcast(self):
        queue = TxQueue(capacity=5)
        data = data_packet(destination=4)
        dio = control_packet()
        queue.add(data)
        queue.add(dio)
        assert queue.peek_for(None, broadcast=True) is dio
        assert queue.has_packet_for(None, broadcast=True)

    def test_pending_counters(self):
        queue = TxQueue(capacity=10)
        queue.add(data_packet(destination=1))
        queue.add(data_packet(destination=1))
        queue.add(data_packet(destination=2))
        queue.add(control_packet())
        assert queue.pending_for(1) == 2
        assert queue.pending_for(None) == 3
        assert queue.pending_broadcast() == 1

    def test_data_packets_filter(self):
        queue = TxQueue(capacity=10)
        queue.add(control_packet())
        queue.add(data_packet())
        assert len(queue.data_packets()) == 1


class TestMutation:
    def test_remove(self):
        queue = TxQueue(capacity=5)
        packet = data_packet()
        queue.add(packet)
        assert queue.remove(packet)
        assert not queue.remove(packet)
        assert len(queue) == 0

    def test_retarget_rewrites_link_destination(self):
        queue = TxQueue(capacity=5)
        packets = [data_packet(destination=1) for _ in range(3)]
        for packet in packets:
            queue.add(packet)
        queue.add(data_packet(destination=9))
        assert queue.retarget(1, 2) == 3
        assert queue.pending_for(2) == 3
        assert queue.pending_for(9) == 1

    def test_clear(self):
        queue = TxQueue(capacity=5)
        queue.add(data_packet())
        queue.clear()
        assert len(queue) == 0

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=40))
    def test_occupancy_never_exceeds_capacity(self, capacity, additions):
        queue = TxQueue(capacity=capacity)
        for index in range(additions):
            queue.add(data_packet(destination=index % 3))
        assert len(queue) <= capacity
        assert queue.drops == max(0, additions - capacity)


class TestPtypeCounts:
    def test_contains_ptype_tracks_add_remove_and_eviction(self):
        queue = TxQueue(capacity=2)
        assert not queue.contains_ptype(PacketType.EB)
        data = make_data_packet(1, 2, created_at=0.0)
        data.link_destination = 2
        queue.add(data)
        second = make_data_packet(1, 2, created_at=0.0)
        second.link_destination = 2
        queue.add(second)
        assert queue.contains_ptype(PacketType.DATA)
        # A control frame arriving at a full queue evicts the youngest data
        # packet before it is added; both counts must follow.
        eb = Packet(
            ptype=PacketType.EB,
            source=1,
            destination=BROADCAST_ADDRESS,
            link_source=1,
            link_destination=BROADCAST_ADDRESS,
        )
        assert queue.evict_for(eb) is second
        assert queue.add(eb)
        assert queue.contains_ptype(PacketType.EB)
        assert queue.contains_ptype(PacketType.DATA)
        queue.remove(data)
        assert not queue.contains_ptype(PacketType.DATA)
        queue.clear()
        assert not queue.contains_ptype(PacketType.EB)
