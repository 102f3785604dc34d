"""Packet model shared by every layer of the simulated stack.

A single :class:`Packet` class covers application data, RPL control traffic
(DIO/DAO), TSCH Enhanced Beacons and 6P transaction messages.  Packets carry
enough bookkeeping (creation time, per-hop enqueue times, retransmission
counts) for the metrics layer to compute the end-to-end delay, PDR and loss
figures reported in the paper without any additional instrumentation inside
the protocol code.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Optional


class PacketType(Enum):
    """The kinds of frames exchanged in a 6TiSCH network."""

    #: Application data generated by the node's sensing application.
    DATA = "data"
    #: TSCH Enhanced Beacon, broadcast periodically for synchronisation and
    #: (in GT-TSCH) to advertise the parent's child-facing channel.
    EB = "eb"
    #: RPL DODAG Information Object (broadcast, Trickle-driven).
    DIO = "dio"
    #: RPL Destination Advertisement Object (unicast towards the root).
    DAO = "dao"
    #: 6top protocol transaction message (ADD/DELETE/ASK-CHANNEL, request or
    #: response), unicast between one-hop neighbours.
    SIXP = "sixp"


#: Packet types that are broadcast (no link-layer ACK expected).
BROADCAST_TYPES = frozenset({PacketType.EB, PacketType.DIO})

#: Destination id used for link-layer broadcast frames.
BROADCAST_ADDRESS = -1

_packet_ids = itertools.count(1)


class Packet:
    """A frame travelling through the simulated network.

    Attributes
    ----------
    ptype:
        Kind of frame (data, EB, DIO, DAO, 6P).
    source:
        Node id of the original creator of the packet.
    destination:
        Final destination node id (for upward data traffic this is the DODAG
        root), or :data:`BROADCAST_ADDRESS` for broadcast frames.
    link_source / link_destination:
        Per-hop (link layer) source and destination, rewritten at each hop.
    payload:
        Free-form dictionary carrying layer-specific fields (e.g. the RPL rank
        inside a DIO, or the cell list inside a 6P ADD request).
    created_at:
        Simulated time (seconds) at which the application created the packet.
    enqueued_at:
        Time the packet last entered a MAC queue (used for per-hop delay).
    hops:
        Number of link-layer hops traversed so far.
    retransmissions:
        Total number of link-layer retransmissions accumulated over all hops.
    """

    __slots__ = (
        "ptype",
        "source",
        "destination",
        "link_source",
        "link_destination",
        "payload",
        "created_at",
        "enqueued_at",
        "hops",
        "retransmissions",
        "size_bytes",
        "packet_id",
        "app_seqno",
    )

    def __init__(
        self,
        ptype: PacketType,
        source: int,
        destination: int,
        link_source: int = -2,
        link_destination: int = BROADCAST_ADDRESS,
        payload: Optional[dict[str, Any]] = None,
        created_at: float = 0.0,
        enqueued_at: float = 0.0,
        hops: int = 0,
        retransmissions: int = 0,
        size_bytes: int = 127,
        packet_id: Optional[int] = None,
        app_seqno: Optional[int] = None,
    ) -> None:
        self.ptype = ptype
        self.source = source
        self.destination = destination
        self.link_source = source if link_source == -2 else link_source
        self.link_destination = link_destination
        self.payload = {} if payload is None else payload
        self.created_at = created_at
        self.enqueued_at = enqueued_at
        self.hops = hops
        self.retransmissions = retransmissions
        self.size_bytes = size_bytes
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        #: Application-level sequence number (set by the traffic generator).
        self.app_seqno = app_seqno

    def _key(self) -> tuple:
        return (
            self.ptype,
            self.source,
            self.destination,
            self.link_source,
            self.link_destination,
            self.payload,
            self.created_at,
            self.enqueued_at,
            self.hops,
            self.retransmissions,
            self.size_bytes,
            self.packet_id,
            self.app_seqno,
        )

    def __eq__(self, other: object) -> bool:
        # Value equality over the constructor fields, matching the dataclass
        # semantics this class had before the __slots__ conversion: queue
        # removal (`deque.remove`) relies on it.
        if other.__class__ is not Packet:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]  # mutable value semantics

    @property
    def is_broadcast(self) -> bool:
        """True when the frame is link-layer broadcast (EB/DIO)."""
        return self.link_destination == BROADCAST_ADDRESS

    @property
    def is_control(self) -> bool:
        """True for any non-application frame (EB, DIO, DAO, 6P)."""
        return self.ptype is not PacketType.DATA

    def for_next_hop(self, link_source: int, link_destination: int) -> "Packet":
        """Return a shallow per-hop copy addressed to the next hop.

        The payload dictionary is shared (control packet payloads are
        read-only after creation), but link addresses and hop counters are
        per-copy so a forwarded packet does not mutate the original object
        still referenced by metrics collectors.
        """
        return Packet(
            ptype=self.ptype,
            source=self.source,
            destination=self.destination,
            link_source=link_source,
            link_destination=link_destination,
            payload=self.payload,
            created_at=self.created_at,
            enqueued_at=self.enqueued_at,
            hops=self.hops,
            retransmissions=self.retransmissions,
            size_bytes=self.size_bytes,
            # The end-to-end identity of the packet, kept across hops so the
            # metrics layer can match deliveries against generations (and
            # no fresh id is drawn for a copy).
            packet_id=self.packet_id,
            app_seqno=self.app_seqno,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Packet(#{self.packet_id} {self.ptype.value} {self.source}->{self.destination} "
            f"link {self.link_source}->{self.link_destination} hops={self.hops})"
        )


def make_data_packet(
    source: int,
    destination: int,
    created_at: float,
    app_seqno: Optional[int] = None,
    size_bytes: int = 127,
) -> Packet:
    """Convenience constructor for application data packets."""
    return Packet(
        ptype=PacketType.DATA,
        source=source,
        destination=destination,
        created_at=created_at,
        enqueued_at=created_at,
        size_bytes=size_bytes,
        app_seqno=app_seqno,
    )
