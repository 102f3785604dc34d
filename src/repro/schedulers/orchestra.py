"""Orchestra: the autonomous TSCH scheduler used as the paper's baseline.

Orchestra (Duquennoy et al., SenSys 2015) computes every node's schedule
locally from routing-layer information, with no negotiation.  The Contiki-NG
implementation the paper compares against maintains three slotframes:

* an **EB slotframe**: one Tx cell for the node's own Enhanced Beacons at
  ``hash(node) % L_eb`` and one Rx cell at ``hash(time_source) % L_eb``;
* a **common (broadcast/default) slotframe**: a single shared Tx/Rx cell used
  by every node for RPL broadcast traffic and any frame without a dedicated
  cell;
* a **unicast slotframe**: receiver-based, as in Contiki-NG's default: every
  node listens on the cell derived from its *own* id and transmits to a
  neighbour on the cell derived from the *neighbour's* id.  Because every child of a
  given parent derives the same cell, these cells are contention cells
  (CSMA/CA back-off applies) -- which is exactly why Orchestra degrades under
  load: the per-destination capacity is one cell per slotframe period, shared
  by all senders, regardless of traffic.

Slot and channel offsets are derived with a deterministic hash of the node
id, reproducing Orchestra's collision characteristics (two unrelated nodes
may hash onto the same cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.schedulers.autonomous import AutonomousCells, add_shared_cells
from repro.schedulers.base import SchedulingFunction

#: EB and common slotframe lengths (Contiki-NG defaults).  Contiki's rule of
#: thumb keeps them co-prime with the unicast length, so cells do not
#: systematically overlap.
EB_SLOTFRAME_LENGTH = 41
COMMON_SLOTFRAME_LENGTH = 31
#: Channel offsets reserved for the EB and common slotframes; the unicast
#: cells hash onto the offsets above them.
EB_CHANNEL_OFFSET = 0
COMMON_CHANNEL_OFFSET = 1


def orchestra_hash(value: int) -> int:
    """Deterministic 32-bit integer hash (Knuth multiplicative).

    Python's built-in ``hash`` is randomised per process, which would make
    runs irreproducible; Orchestra itself hashes link-layer addresses, which
    are stable, so a deterministic hash is the faithful model.
    """
    return (value * 2654435761) & 0xFFFFFFFF


@dataclass
class OrchestraConfig:
    """Orchestra's unicast slotframe (Contiki-NG defaults, scaled to the paper).

    The paper sweeps the *unicast* slotframe length over {8, 12, 16, 20}
    (Fig. 10) and notes that for fairness GT-TSCH's single slotframe is set
    to four times Orchestra's unicast slotframe.
    """

    unicast_slotframe_length: int = 8
    #: Number of channel offsets available to the hash (the hopping sequence
    #: length of Table II).
    num_channels: int = 8

    def __post_init__(self) -> None:
        if self.unicast_slotframe_length < 2:
            raise ValueError("unicast_slotframe_length must be at least 2")
        if self.num_channels < 2:
            raise ValueError("Orchestra needs at least 2 channel offsets")


def _eb_slot(owner: int) -> int:
    return orchestra_hash(owner) % EB_SLOTFRAME_LENGTH


class OrchestraScheduler(SchedulingFunction):
    """Autonomous Orchestra scheduling function (receiver-based)."""

    name = "Orchestra"

    #: Slotframe handles, in Contiki's priority order (lower = higher priority).
    EB_HANDLE = 0
    COMMON_HANDLE = 1
    UNICAST_HANDLE = 2

    def __init__(self, config: Optional[OrchestraConfig] = None) -> None:
        super().__init__()
        self.config = config or OrchestraConfig()
        #: The unicast slotframe's receiver-based cells.
        self.autonomous = AutonomousCells(
            self.UNICAST_HANDLE,
            self._unicast_coordinates,
            ("orchestra-rbs-rx", "orchestra-unicast-tx", "orchestra-unicast-tx-child"),
        )
        self._eb_rx_cell: Optional[Cell] = None

    # ------------------------------------------------------------------
    # cell coordinate derivation
    # ------------------------------------------------------------------
    def _unicast_coordinates(self, owner: int) -> tuple:
        """(slot, channel) of the unicast cell derived from ``owner``'s id."""
        length = self.config.unicast_slotframe_length
        slot = orchestra_hash(owner) % length
        channel = 2 + (orchestra_hash(owner) % max(1, self.config.num_channels - 2))
        if channel >= self.config.num_channels:
            channel = self.config.num_channels - 1
        return slot, channel

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        node = self.node
        # EB slotframe: transmit our own EBs on the slot derived from our id.
        eb_sf = node.tsch.add_slotframe(self.EB_HANDLE, EB_SLOTFRAME_LENGTH)
        eb_sf.add_cell(
            Cell(
                slot_offset=_eb_slot(node.node_id),
                channel_offset=EB_CHANNEL_OFFSET,
                options=CellOption.TX | CellOption.BROADCAST,
                neighbor=None,
                purpose=CellPurpose.BROADCAST,
                label="orchestra-eb-tx",
            )
        )

        # Common slotframe: one shared broadcast cell for RPL traffic.
        common_sf = node.tsch.add_slotframe(self.COMMON_HANDLE, COMMON_SLOTFRAME_LENGTH)
        add_shared_cells(common_sf, (0,), COMMON_CHANNEL_OFFSET, "orchestra-common")

        # Unicast slotframe: always listen on our own cell (receiver-based) --
        # the radio cost of this permanent Rx cell is Orchestra's main energy
        # overhead under low load.
        node.tsch.add_slotframe(self.UNICAST_HANDLE, self.config.unicast_slotframe_length)
        self.autonomous.listen(node)

    # ------------------------------------------------------------------
    # RPL events keep the unicast slotframe aligned with the topology
    # ------------------------------------------------------------------
    def on_parent_changed(self, old_parent: Optional[int], new_parent: Optional[int]) -> None:
        eb_sf = self.node.tsch.get_slotframe(self.EB_HANDLE)
        if eb_sf is None:
            return
        self.autonomous.follow(new_parent)
        if self._eb_rx_cell is not None:
            eb_sf.remove_cell(self._eb_rx_cell)
            self._eb_rx_cell = None
        if new_parent is None:
            return

        # Follow the parent's EBs for synchronisation (time-source cell).
        self._eb_rx_cell = eb_sf.add_cell(
            Cell(
                slot_offset=_eb_slot(new_parent),
                channel_offset=EB_CHANNEL_OFFSET,
                options=CellOption.RX,
                neighbor=new_parent,
                purpose=CellPurpose.BROADCAST,
                label="orchestra-eb-rx",
            )
        )

    def on_child_added(self, child: int) -> None:
        # A Tx cell towards the child for downward traffic (hash of its id).
        self.autonomous.add_child(child)

    def on_child_removed(self, child: int) -> None:
        self.autonomous.remove_child(child)
