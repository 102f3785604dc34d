"""Tests for the packet model."""


from repro.net.packet import (
    BROADCAST_ADDRESS,
    Packet,
    PacketType,
    make_data_packet,
)


class TestPacketBasics:
    def test_unique_ids(self):
        a = make_data_packet(0, 1, created_at=0.0)
        b = make_data_packet(0, 1, created_at=0.0)
        assert a.packet_id != b.packet_id

    def test_link_source_defaults_to_source(self):
        packet = Packet(ptype=PacketType.DATA, source=3, destination=9)
        assert packet.link_source == 3

    def test_is_broadcast(self):
        dio = Packet(
            ptype=PacketType.DIO,
            source=0,
            destination=BROADCAST_ADDRESS,
            link_destination=BROADCAST_ADDRESS,
        )
        assert dio.is_broadcast
        data = make_data_packet(0, 1, created_at=0.0)
        data.link_destination = 1
        assert not data.is_broadcast

    def test_is_control(self):
        assert not make_data_packet(0, 1, created_at=0.0).is_control
        for ptype in (PacketType.EB, PacketType.DIO, PacketType.DAO, PacketType.SIXP):
            packet = Packet(ptype=ptype, source=0, destination=1)
            assert packet.is_control


class TestPerHopCopies:
    def test_for_next_hop_rewrites_link_addresses(self):
        packet = make_data_packet(source=5, destination=0, created_at=1.0)
        hop = packet.for_next_hop(link_source=5, link_destination=2)
        assert hop.link_source == 5
        assert hop.link_destination == 2
        assert hop.source == 5
        assert hop.destination == 0

    def test_for_next_hop_preserves_identity_and_timing(self):
        packet = make_data_packet(source=5, destination=0, created_at=1.0)
        packet.hops = 2
        packet.retransmissions = 1
        hop = packet.for_next_hop(5, 2)
        assert hop.packet_id == packet.packet_id
        assert hop.created_at == 1.0
        assert hop.hops == 2
        assert hop.retransmissions == 1
        # The copy draws no id of its own: the next packet gets the next one.
        assert make_data_packet(source=5, destination=0, created_at=1.0).packet_id == (
            packet.packet_id + 1
        )

    def test_for_next_hop_does_not_mutate_original(self):
        packet = make_data_packet(source=5, destination=0, created_at=1.0)
        hop = packet.for_next_hop(5, 2)
        hop.hops += 1
        hop.link_destination = 3
        assert packet.hops == 0
        assert packet.link_destination != 3 or packet.link_destination == BROADCAST_ADDRESS


class TestMakeDataPacket:
    def test_fields(self):
        packet = make_data_packet(source=4, destination=0, created_at=2.5, app_seqno=17)
        assert packet.ptype is PacketType.DATA
        assert packet.source == 4
        assert packet.destination == 0
        assert packet.created_at == 2.5
        assert packet.enqueued_at == 2.5
        assert packet.app_seqno == 17
