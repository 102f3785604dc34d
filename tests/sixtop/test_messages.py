"""Tests for the 6P message model: immutable messages carried as objects."""

import pytest

from repro.net.packet import PacketType
from repro.sixtop.messages import (
    ASK_CHANNEL_COMMAND_CODE,
    CellDescriptor,
    SixPCommand,
    SixPMessage,
    SixPMessageType,
    SixPReturnCode,
    make_sixp_packet,
    sixp_message,
)


class TestCommandCodes:
    def test_ask_channel_code_matches_paper(self):
        """Fig. 4: the ASK-CHANNEL command uses code 0x0A."""
        assert ASK_CHANNEL_COMMAND_CODE == 0x0A
        assert SixPCommand.ASK_CHANNEL.value == 0x0A

    def test_rfc8480_codes(self):
        assert SixPCommand.ADD.value == 0x01
        assert SixPCommand.DELETE.value == 0x02


class TestCellDescriptor:
    def test_as_tuple(self):
        assert CellDescriptor(3, 5).as_tuple() == (3, 5)

    def test_hashable_and_equal(self):
        assert CellDescriptor(1, 2) == CellDescriptor(1, 2)
        assert CellDescriptor(1, 2) != CellDescriptor(2, 1)
        assert len({CellDescriptor(1, 2), CellDescriptor(1, 2)}) == 1
        # The hash of the (slot offset, channel offset) pair, as before.
        assert hash(CellDescriptor(1, 2)) == hash((1, 2))
        assert CellDescriptor(slot_offset=4, channel_offset=6).channel_offset == 6


def add_request():
    return SixPMessage(
        message_type=SixPMessageType.REQUEST,
        command=SixPCommand.ADD,
        seqnum=7,
        sf_id=0x0A,
        num_cells=3,
        cell_list=[CellDescriptor(1, 2), CellDescriptor(4, 5)],
        metadata={"purpose": "data"},
    )


class TestImmutableMessage:
    def test_request_keeps_its_fields(self):
        message = add_request()
        assert message.message_type is SixPMessageType.REQUEST
        assert message.command is SixPCommand.ADD
        assert (message.seqnum, message.sf_id, message.num_cells) == (7, 0x0A, 3)
        assert message.cell_list == (CellDescriptor(1, 2), CellDescriptor(4, 5))
        assert dict(message.metadata) == {"purpose": "data"}
        assert message.return_code is None
        assert message.channel_offset is None

    def test_response_keeps_its_fields(self):
        message = SixPMessage(
            message_type=SixPMessageType.RESPONSE,
            command=SixPCommand.ASK_CHANNEL,
            seqnum=1,
            return_code=SixPReturnCode.SUCCESS,
            channel_offset=4,
        )
        assert message.return_code is SixPReturnCode.SUCCESS
        assert message.channel_offset == 4
        assert message.command is SixPCommand.ASK_CHANNEL

    def test_error_response_has_empty_defaults(self):
        message = SixPMessage(
            message_type=SixPMessageType.RESPONSE,
            command=SixPCommand.ADD,
            seqnum=2,
            return_code=SixPReturnCode.ERR_NORES,
        )
        assert message.return_code is SixPReturnCode.ERR_NORES
        assert message.channel_offset is None
        assert message.cell_list == ()
        assert dict(message.metadata) == {}

    def test_cell_list_cannot_change(self):
        message = add_request()
        with pytest.raises(AttributeError):
            message.cell_list.append(CellDescriptor(9, 9))
        with pytest.raises(TypeError):
            message.cell_list[0] = CellDescriptor(9, 9)
        with pytest.raises(AttributeError):
            message.cell_list[0].slot_offset = 9
        assert message.cell_list == (CellDescriptor(1, 2), CellDescriptor(4, 5))

    def test_metadata_is_a_read_only_copy(self):
        metadata = {"purpose": "data"}
        message = SixPMessage(
            message_type=SixPMessageType.REQUEST,
            command=SixPCommand.ADD,
            seqnum=0,
            metadata=metadata,
        )
        with pytest.raises(TypeError):
            message.metadata["owned"] = 2
        with pytest.raises(TypeError):
            del message.metadata["purpose"]
        metadata["owned"] = 2
        assert dict(message.metadata) == {"purpose": "data"}

    def test_fields_cannot_be_reassigned(self):
        message = add_request()
        with pytest.raises(AttributeError):
            message.cell_list = []
        with pytest.raises(AttributeError):
            message.metadata = {}
        with pytest.raises(AttributeError):
            del message.seqnum
        with pytest.raises(AttributeError):
            message.extra = 1
        assert message.seqnum == 7


class TestMakePacket:
    def test_packet_wrapping(self):
        message = SixPMessage(
            message_type=SixPMessageType.REQUEST, command=SixPCommand.ADD, seqnum=0
        )
        packet = make_sixp_packet(3, 9, message, now=1.5)
        assert packet.ptype is PacketType.SIXP
        assert packet.link_source == 3
        assert packet.link_destination == 9
        assert packet.created_at == 1.5
        assert not packet.is_broadcast
        assert sixp_message(packet) is message
