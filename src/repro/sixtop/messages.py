"""6P message model (RFC 8480 subset + the paper's ASK-CHANNEL command).

Real 6P messages are byte-encoded IEs inside 802.15.4 frames; here an
immutable :class:`SixPMessage` rides in a :class:`repro.net.packet.Packet`
with ``ptype == PacketType.SIXP`` and the receiver reads the sender's object
as it is.  The fields mirror the message formats shown in Fig. 4 of the
paper: type (request/response), command code, sequence number, scheduling
function identifier, and -- for ASK-CHANNEL responses -- the channel offset
granted by the parent.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from types import MappingProxyType
from typing import Any, NamedTuple, Optional

from repro.net.packet import Packet, PacketType


#: Command code the paper assigns to ASK-CHANNEL (Fig. 4).
ASK_CHANNEL_COMMAND_CODE = 0x0A


class SixPCommand(Enum):
    """6P command codes used by this reproduction."""

    ADD = 0x01
    DELETE = 0x02
    #: Paper-specific extension: ask the parent for the child-facing channel.
    ASK_CHANNEL = ASK_CHANNEL_COMMAND_CODE


class SixPMessageType(Enum):
    REQUEST = "request"
    RESPONSE = "response"


class SixPReturnCode(Enum):
    """Response codes (RFC 8480 Section 3.2.4 subset)."""

    SUCCESS = "RC_SUCCESS"
    ERR_SEQNUM = "RC_ERR_SEQNUM"
    ERR_CELLLIST = "RC_ERR_CELLLIST"
    ERR_BUSY = "RC_ERR_BUSY"
    ERR_NORES = "RC_ERR_NORES"
    ERR = "RC_ERR"


class CellDescriptor(NamedTuple):
    """A (slot offset, channel offset) pair exchanged inside ADD/DELETE messages."""

    slot_offset: int
    channel_offset: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.slot_offset, self.channel_offset)


class _SixPFields(NamedTuple):
    message_type: SixPMessageType
    command: SixPCommand
    seqnum: int
    #: Scheduling function identifier.
    sf_id: int
    #: Number of cells requested (ADD/DELETE requests).
    num_cells: int
    #: Candidate or granted cells.
    cell_list: tuple[CellDescriptor, ...]
    #: Response code (responses only).
    return_code: Optional[SixPReturnCode]
    #: Channel offset granted by an ASK-CHANNEL response.
    channel_offset: Optional[int]
    #: Additional scheduler-specific fields, read-only.
    metadata: Mapping[str, Any]


class SixPMessage(_SixPFields):
    """A 6P message, immutable once built.

    The cell list is stored as a tuple and the metadata as a read-only copy,
    so the sender, the receiver and a replayed response share one object.
    """

    __slots__ = ()

    def __new__(
        cls,
        message_type: SixPMessageType,
        command: SixPCommand,
        seqnum: int,
        sf_id: int = 0,
        num_cells: int = 0,
        cell_list: Iterable[CellDescriptor] = (),
        return_code: Optional[SixPReturnCode] = None,
        channel_offset: Optional[int] = None,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> SixPMessage:
        return super().__new__(
            cls, message_type, command, seqnum, sf_id, num_cells, tuple(cell_list),
            return_code, channel_offset, MappingProxyType(dict(metadata or {})),
        )


def make_sixp_packet(sender: int, receiver: int, message: SixPMessage, now: float = 0.0) -> Packet:
    """Wrap a 6P message into a unicast link-layer packet (see :func:`sixp_message`)."""
    return Packet(
        ptype=PacketType.SIXP,
        source=sender,
        destination=receiver,
        link_source=sender,
        link_destination=receiver,
        payload={"sixp": message},
        created_at=now,
        size_bytes=40,
    )


def sixp_message(packet: Packet) -> SixPMessage:
    """The message a 6P packet carries: the sender's object itself."""
    return packet.payload["sixp"]
