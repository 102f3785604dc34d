"""Bounded MAC transmission queue.

Zolertia Firefly motes have 32 KB of RAM, which bounds the number of packets a
Contiki-NG node can buffer (``QUEUEBUF_CONF_NUM``).  The paper models this as
the maximum queue length ``QMax``; packets arriving at a full queue are
dropped and counted as *queue loss*, one of the six evaluation metrics
(Figs. 8e, 9e, 10e).  The queue also feeds the GT-TSCH game through the
instantaneous queue length ``q_i(t)`` that enters the EWMA queue metric of
Eq. (6).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import Optional

from repro.net.packet import BROADCAST_ADDRESS, Packet, PacketType


class TxQueue:
    """FIFO transmission queue with a hard capacity.

    Control frames (EB/DIO/DAO/6P) are prioritised over data frames,
    mirroring Contiki-NG's behaviour of keeping the network alive under
    congestion; this does not change the data-plane metrics because control
    traffic is tiny compared to the swept data rates.
    """

    __slots__ = (
        "capacity",
        "_queue",
        "drops",
        "data_drops",
        "max_occupancy",
    )

    def __init__(self, capacity: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._queue: deque[Packet] = deque()
        #: Number of packets dropped because the queue was full.
        self.drops = 0
        #: Number of *data* packets dropped because the queue was full.
        self.data_drops = 0
        #: High-water mark, useful for tests and diagnostics.
        self.max_occupancy = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def free_space(self) -> int:
        return self.capacity - len(self._queue)

    def add(self, packet: Packet) -> bool:
        """Enqueue ``packet``.

        Returns ``True`` on success and ``False`` when the packet was dropped
        because the queue is full (queue loss).  A control frame should meet
        a full queue only after :meth:`evict_for` found no data packet to
        make room, as ``Node.enqueue_packet`` arranges.
        """
        if self.is_full:
            self.drops += 1
            if packet.ptype is PacketType.DATA:
                self.data_drops += 1
            return False
        if packet.is_control:
            # Insert control packets before the first data packet so schedule
            # maintenance is not starved by a deep data backlog.
            for index, queued in enumerate(self._queue):
                if not queued.is_control:
                    rotated = list(self._queue)
                    rotated.insert(index, packet)
                    self._queue = deque(rotated)
                    break
            else:
                self._queue.append(packet)
        else:
            self._queue.append(packet)
        self.max_occupancy = max(self.max_occupancy, len(self._queue))
        return True

    def evict_for(self, packet: Packet) -> Optional[Packet]:
        """Make room in a full queue for control frame ``packet``.

        The youngest queued *data* packet is removed, counted as queue loss
        and returned -- the same policy Contiki-NG applies to keep the
        network alive under overload.  Returns ``None``, removing nothing,
        when the queue has room, ``packet`` is data, or no data packet is
        queued.
        """
        if not (packet.is_control and self.is_full):
            return None
        for queued in reversed(self._queue):
            if not queued.is_control:
                self._queue.remove(queued)
                self.drops += 1
                self.data_drops += 1
                return queued
        return None

    def peek_for(self, neighbor: Optional[int], broadcast: bool = False) -> Optional[Packet]:
        """First packet addressed to ``neighbor`` (or any broadcast frame).

        ``neighbor=None`` matches any unicast packet, which is what shared
        "any neighbor" cells (Orchestra's common cell) use.
        """
        for packet in self._queue:
            if broadcast:
                if packet.link_destination == BROADCAST_ADDRESS:
                    return packet
            else:
                if packet.link_destination == BROADCAST_ADDRESS:
                    continue
                if neighbor is None or packet.link_destination == neighbor:
                    return packet
        return None

    def has_packet_for(self, neighbor: Optional[int], broadcast: bool = False) -> bool:
        return self.peek_for(neighbor, broadcast=broadcast) is not None

    def contains_ptype(self, ptype: PacketType) -> bool:
        """Whether any queued packet has the given type."""
        return any(packet.ptype is ptype for packet in self._queue)

    def remove(self, packet: Packet) -> bool:
        """Remove a specific packet instance (after delivery or drop)."""
        try:
            self._queue.remove(packet)
        except ValueError:
            return False
        return True

    def pending_for(self, neighbor: Optional[int]) -> int:
        """Number of queued unicast packets addressed to ``neighbor``."""
        return sum(
            1
            for packet in self._queue
            if packet.link_destination != BROADCAST_ADDRESS
            and (neighbor is None or packet.link_destination == neighbor)
        )

    def pending_broadcast(self) -> int:
        """Number of queued broadcast frames."""
        return sum(1 for packet in self._queue if packet.link_destination == BROADCAST_ADDRESS)

    def data_packets(self) -> list[Packet]:
        """Queued application-data packets (used by the queue metric)."""
        return [packet for packet in self._queue if packet.ptype is PacketType.DATA]

    def retarget(self, old_neighbor: int, new_neighbor: int) -> int:
        """Re-address queued unicast packets after a parent switch.

        Returns the number of packets re-addressed.  Without this, packets
        already queued towards the old parent would be stranded until the
        retry limit drops them.
        """
        changed = 0
        for packet in self._queue:
            if packet.link_destination == old_neighbor:
                packet.link_destination = new_neighbor
                changed += 1
        return changed

    def __iter__(self) -> Iterable[Packet]:
        return iter(list(self._queue))

    def clear(self) -> None:
        self._queue.clear()
