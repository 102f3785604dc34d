"""Autonomous cells: the cells both ends of a link work out without signalling.

The baselines share two kinds of negotiation-free cells, and this module
holds both, so each scheduler keeps only its coordinate function and its
policy (as :class:`~repro.sixtop.negotiation.NegotiationClient` does for 6P):

* **shared cells** (:func:`add_shared_cells`): neighbour-less
  ``TX|RX|SHARED|BROADCAST`` cells every node installs at the same offsets
  -- the RFC 8180 minimal cell, MSF's slot-0 cell, Orchestra's common cell,
  and the cells DeBrAS and OTF spread over their slotframe with
  :func:`spread_offsets`;
* **receiver-based cells** (:class:`AutonomousCells`): every node listens on
  the cell derived from its *own* id and transmits to a neighbour on the
  cell derived from the *neighbour's* id, as in Orchestra (Duquennoy et al.,
  SenSys 2015), RFC 9033's autonomous cells and DeBrAS.

Everything here runs at ``start()`` and on RPL events, never per slot; every
cell goes through ``Slotframe.add_cell`` / ``remove_cell``, which are the
fast kernel's settlement barriers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Optional

from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.mac.slotframe import Slotframe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node

#: Options of a shared cell: anyone sends (with CSMA/CA back-off), everyone listens.
SHARED_OPTIONS = CellOption.TX | CellOption.RX | CellOption.SHARED | CellOption.BROADCAST
#: Options of a node's own receiver-based cell.
LISTEN_OPTIONS = CellOption.RX | CellOption.ALWAYS_ON
#: Options of a receiver-based TX cell: every sender towards one receiver
#: derives the same cell, so it contends.
SEND_OPTIONS = CellOption.TX | CellOption.SHARED


def sax_hash(value: int) -> int:
    """Deterministic 32-bit SAX (shift-and-xor) hash of a node id.

    RFC 9033 derives autonomous cell coordinates from a SAX hash of the
    node's EUI-64; Python's built-in ``hash`` is randomised per process, so a
    hand-rolled deterministic hash is the reproducible model (same reasoning
    as :func:`repro.schedulers.orchestra.orchestra_hash`).
    """
    h = value & 0xFFFFFFFF
    for _ in range(3):
        h = (h ^ (h << 5) ^ (h >> 2)) & 0xFFFFFFFF
        h = (h + 0x9E3779B9) & 0xFFFFFFFF
    return h


def spread_offsets(length: int, count: int) -> tuple[int, ...]:
    """``count`` slot offsets spread evenly over a slotframe of ``length`` (RFC 8180)."""
    return tuple((index * length) // count for index in range(count))


def add_shared_cells(
    slotframe: Slotframe,
    offsets: Iterable[int],
    channel_offset: int,
    label: str,
    purpose: CellPurpose = CellPurpose.BROADCAST,
) -> None:
    """Install one neighbour-less shared cell at each of ``offsets``, in order."""
    for slot in offsets:
        slotframe.add_cell(
            Cell(
                slot_offset=slot,
                channel_offset=channel_offset,
                options=SHARED_OPTIONS,
                neighbor=None,
                purpose=purpose,
                label=label,
            )
        )


class AutonomousCells:
    """One node's receiver-based cells on one slotframe.

    ``coordinates(owner)`` maps a node id to the ``(slot, channel)`` of the
    cell that node listens on; both link ends evaluate it on the receiver's
    id, so they meet without signalling.  ``labels`` names the node's own RX
    cell, its TX cell towards the parent and its TX cells towards children.

    The book holds at most one TX cell towards the preferred parent and one
    per child.  A cell is recorded as ``add_cell`` returns it, so a neighbour
    that is both parent and child shares one cell, as it always has.  Every
    method does nothing while the slotframe does not exist: a warm-start
    preset announces the parent before the scheduler's ``start()``.

    Not a :class:`~repro.schedulers.base.SchedulingFunction`, and no method
    is named ``on_*``: those are the scheduler's protocol-event callbacks,
    which perfbench counts.
    """

    __slots__ = ("handle", "coordinates", "labels", "node", "parent_cell", "child_cells")

    def __init__(
        self,
        handle: int,
        coordinates: Callable[[int], tuple[int, int]],
        labels: tuple[str, str, str],
    ) -> None:
        #: Handle of the slotframe that holds the cells.
        self.handle = handle
        self.coordinates = coordinates
        #: ``(own RX, TX to parent, TX to child)`` cell labels.
        self.labels = labels
        #: Bound by :meth:`listen`, from the scheduler's ``start()``.
        self.node: Optional[Node] = None
        self.parent_cell: Optional[Cell] = None
        self.child_cells: dict[int, Cell] = {}

    def _slotframe(self) -> Optional[Slotframe]:
        node = self.node
        return None if node is None else node.tsch.get_slotframe(self.handle)

    def _add(
        self,
        slotframe: Slotframe,
        owner: int,
        options: CellOption,
        neighbor: Optional[int],
        label: str,
    ) -> Cell:
        """Install a cell at the coordinates ``owner`` listens on."""
        slot, channel = self.coordinates(owner)
        return slotframe.add_cell(
            Cell(
                slot_offset=slot,
                channel_offset=channel,
                options=options,
                neighbor=neighbor,
                purpose=CellPurpose.UNICAST_DATA,
                label=label,
            )
        )

    def listen(self, node: Node) -> None:
        """Bind to ``node`` and install its own always-on RX cell.

        Call it from ``start()``, once the slotframe exists.
        """
        self.node = node
        slotframe = self._slotframe()
        if slotframe is not None:
            self._add(slotframe, node.node_id, LISTEN_OPTIONS, None, self.labels[0])

    def follow(self, parent: Optional[int]) -> Optional[Cell]:
        """Move the TX cell towards the parent to ``parent``'s coordinates.

        Removes the cell towards the previous parent, then installs one
        towards ``parent`` (none when it is None).  Returns the new cell, or
        None when there is no parent or no slotframe yet.
        """
        slotframe = self._slotframe()
        if slotframe is None:
            return None
        if self.parent_cell is not None:
            slotframe.remove_cell(self.parent_cell)
            self.parent_cell = None
        if parent is not None:
            self.parent_cell = self._add(slotframe, parent, SEND_OPTIONS, parent, self.labels[1])
        return self.parent_cell

    def add_child(self, child: int) -> None:
        """Install the TX cell towards ``child`` unless the book has one."""
        if child in self.child_cells:
            return
        slotframe = self._slotframe()
        if slotframe is None:
            return
        self.child_cells[child] = self._add(slotframe, child, SEND_OPTIONS, child, self.labels[2])

    def remove_child(self, child: int) -> None:
        """Remove the TX cell towards ``child``, if the book has one."""
        slotframe = self._slotframe()
        if slotframe is None:
            return
        cell = self.child_cells.pop(child, None)
        if cell is not None:
            slotframe.remove_cell(cell)
