"""TSCH cells: the unit of scheduling in the CDU matrix.

A cell is a (timeslot offset, channel offset) coordinate in the Channel
Distribution Usage matrix (Fig. 1 of the paper) plus the options describing
how the node uses that coordinate: transmit, receive, shared (contention
based) or broadcast.  GT-TSCH additionally labels each cell with its purpose
-- one of the five timeslot types of Section IV -- which drives the slotframe
creation rules and the priority order between cell types.
"""

from __future__ import annotations

from enum import Enum, Flag, auto
from typing import Optional


class CellOption(Flag):
    """Link options of a TSCH cell (IEEE 802.15.4e / RFC 8480 terminology)."""

    NONE = 0
    TX = auto()
    RX = auto()
    #: Contention-based cell: transmissions use CSMA/CA back-off and several
    #: senders may legitimately target the same cell.
    SHARED = auto()
    #: Cell used for link-layer broadcast frames (EBs, DIOs); no ACK.
    BROADCAST = auto()
    #: Cell is part of every slotframe iteration regardless of pending traffic
    #: (the node keeps its radio on even with nothing to send) -- used for
    #: dedicated RX cells.
    ALWAYS_ON = auto()


class CellPurpose(Enum):
    """GT-TSCH's five timeslot types, in descending priority order (§IV)."""

    BROADCAST = "broadcast"
    UNICAST_6P = "unicast_6p"
    UNICAST_DATA = "unicast_data"
    SHARED = "shared"
    SLEEP = "sleep"

    #: Smaller value = higher priority when several cells share a slot.  Set
    #: once per member below (its declaration index): it is the sort key of
    #: every slotframe bucket insert and of every multi-slotframe merge, so
    #: it is a plain attribute read rather than a computed property.
    priority: int


for _priority, _purpose in enumerate(CellPurpose):
    _purpose.priority = _priority

#: Raw option bits, so the per-cell option tests below are integer
#: operations instead of Python-level ``Flag`` arithmetic.
_TX = CellOption.TX.value
_RX = CellOption.RX.value
_SHARED = CellOption.SHARED.value
_BROADCAST = CellOption.BROADCAST.value


class Cell:
    """One scheduled cell in a slotframe.

    Attributes
    ----------
    slot_offset / channel_offset:
        Coordinates in the CDU matrix.  The channel offset is translated to a
        physical channel through the hopping sequence at transmission time.
    options:
        Combination of :class:`CellOption` flags.
    neighbor:
        Link-layer neighbor this cell is dedicated to (``None`` for broadcast
        or "any neighbor" cells, as in Orchestra's common shared cell).
    purpose:
        GT-TSCH timeslot type; other schedulers may leave the default.
    owner_is_transmitter:
        Convenience flag used by schedulers when mirroring a negotiated cell
        on both link ends.
    """

    __slots__ = (
        "slot_offset",
        "channel_offset",
        "options",
        "neighbor",
        "purpose",
        "slotframe_handle",
        "owner_is_transmitter",
        "label",
        "is_tx",
        "is_rx",
        "is_shared",
        "is_broadcast",
    )

    def __init__(
        self,
        slot_offset: int,
        channel_offset: int,
        options: CellOption,
        neighbor: Optional[int] = None,
        purpose: CellPurpose = CellPurpose.UNICAST_DATA,
        slotframe_handle: int = 0,
        owner_is_transmitter: bool = True,
        label: str = "",
    ) -> None:
        if slot_offset < 0:
            raise ValueError("slot_offset must be non-negative")
        if channel_offset < 0:
            raise ValueError("channel_offset must be non-negative")
        bits = options._value_
        if not bits:
            raise ValueError("a cell must have at least one option")
        self.slot_offset = slot_offset
        self.channel_offset = channel_offset
        self.options = options
        self.neighbor = neighbor
        self.purpose = purpose
        self.slotframe_handle = slotframe_handle
        self.owner_is_transmitter = owner_is_transmitter
        #: Free-form tag for debugging / tests (e.g. "eb", "orchestra-rbs-rx").
        self.label = label
        # Cells are immutable once installed, so the option tests the TSCH
        # engine performs on every planned slot are resolved here once, on
        # the raw option bits, instead of through Flag arithmetic per query.
        self.is_tx = bool(bits & _TX)
        self.is_rx = bool(bits & _RX)
        self.is_shared = bool(bits & _SHARED)
        self.is_broadcast = bool(bits & _BROADCAST)

    def _key(self) -> tuple:
        return (
            self.slot_offset,
            self.channel_offset,
            self.options,
            self.neighbor,
            self.purpose,
            self.slotframe_handle,
            self.owner_is_transmitter,
            self.label,
        )

    def __eq__(self, other: object) -> bool:
        # Value equality over the constructor fields, matching the dataclass
        # semantics this class had before the __slots__ conversion: slotframe
        # removal (`list.remove`) relies on it.
        if other.__class__ is not Cell:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]  # mutable value semantics

    def matches(self, slot_offset: int, channel_offset: Optional[int] = None) -> bool:
        """True when the cell sits at the given CDU coordinates."""
        if self.slot_offset != slot_offset:
            return False
        return channel_offset is None or self.channel_offset == channel_offset

    def coordinate(self) -> tuple:
        """(slot offset, channel offset) pair, e.g. for CDU-matrix rendering."""
        return (self.slot_offset, self.channel_offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        opts = []
        for option in (CellOption.TX, CellOption.RX, CellOption.SHARED, CellOption.BROADCAST):
            if self.options & option:
                opts.append(option.name)
        target = "*" if self.neighbor is None else str(self.neighbor)
        return (
            f"Cell(({self.slot_offset},{self.channel_offset}) {'|'.join(opts)} "
            f"nbr={target} {self.purpose.value})"
        )
