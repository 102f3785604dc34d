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
from repro.schedulers.base import SchedulingFunction


def orchestra_hash(value: int) -> int:
    """Deterministic 32-bit integer hash (Knuth multiplicative).

    Python's built-in ``hash`` is randomised per process, which would make
    runs irreproducible; Orchestra itself hashes link-layer addresses, which
    are stable, so a deterministic hash is the faithful model.
    """
    return (value * 2654435761) & 0xFFFFFFFF


@dataclass
class OrchestraConfig:
    """Orchestra slotframe sizes (Contiki-NG defaults, scaled to the paper).

    The paper sweeps the *unicast* slotframe length over {8, 12, 16, 20}
    (Fig. 10) and notes that for fairness GT-TSCH's single slotframe is set
    to four times Orchestra's unicast slotframe.  The EB and common slotframe
    lengths follow Contiki's rule of thumb of being co-prime with the unicast
    length so cells do not systematically overlap.
    """

    unicast_slotframe_length: int = 8
    common_slotframe_length: int = 31
    eb_slotframe_length: int = 41
    #: Number of channel offsets available to the hash (the hopping sequence
    #: length of Table II).
    num_channels: int = 8
    #: Channel offsets reserved for the EB and common slotframes.
    eb_channel_offset: int = 0
    common_channel_offset: int = 1

    def __post_init__(self) -> None:
        if self.unicast_slotframe_length < 2:
            raise ValueError("unicast_slotframe_length must be at least 2")
        if self.num_channels < 2:
            raise ValueError("Orchestra needs at least 2 channel offsets")


class OrchestraScheduler(SchedulingFunction):
    """Autonomous Orchestra scheduling function (receiver-based)."""

    name = "Orchestra"
    sf_id = 0x00

    #: Slotframe handles, in Contiki's priority order (lower = higher priority).
    EB_HANDLE = 0
    COMMON_HANDLE = 1
    UNICAST_HANDLE = 2

    def __init__(self, config: Optional[OrchestraConfig] = None) -> None:
        super().__init__()
        self.config = config or OrchestraConfig()
        self._parent_tx_cell: Optional[Cell] = None
        self._child_tx_cells: dict[int, Cell] = {}
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

    def _eb_slot(self, owner: int) -> int:
        return orchestra_hash(owner) % self.config.eb_slotframe_length

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        node = self.node
        # EB slotframe: transmit our own EBs on the slot derived from our id.
        eb_sf = node.tsch.add_slotframe(self.EB_HANDLE, self.config.eb_slotframe_length)
        eb_sf.add_cell(
            Cell(
                slot_offset=self._eb_slot(node.node_id),
                channel_offset=self.config.eb_channel_offset,
                options=CellOption.TX | CellOption.BROADCAST,
                neighbor=None,
                purpose=CellPurpose.BROADCAST,
                label="orchestra-eb-tx",
            )
        )

        # Common slotframe: one shared broadcast cell for RPL traffic.
        common_sf = node.tsch.add_slotframe(
            self.COMMON_HANDLE, self.config.common_slotframe_length
        )
        common_sf.add_cell(
            Cell(
                slot_offset=0,
                channel_offset=self.config.common_channel_offset,
                options=CellOption.TX | CellOption.RX | CellOption.SHARED | CellOption.BROADCAST,
                neighbor=None,
                purpose=CellPurpose.BROADCAST,
                label="orchestra-common",
            )
        )

        # Unicast slotframe: always listen on our own cell (receiver-based) --
        # the radio cost of this permanent Rx cell is Orchestra's main energy
        # overhead under low load.
        unicast_sf = node.tsch.add_slotframe(
            self.UNICAST_HANDLE, self.config.unicast_slotframe_length
        )
        own_slot, own_channel = self._unicast_coordinates(node.node_id)
        unicast_sf.add_cell(
            Cell(
                slot_offset=own_slot,
                channel_offset=own_channel,
                options=CellOption.RX | CellOption.ALWAYS_ON,
                neighbor=None,
                purpose=CellPurpose.UNICAST_DATA,
                label="orchestra-rbs-rx",
            )
        )

    # ------------------------------------------------------------------
    # RPL events keep the unicast slotframe aligned with the topology
    # ------------------------------------------------------------------
    def on_parent_changed(self, old_parent: Optional[int], new_parent: Optional[int]) -> None:
        unicast_sf = self.node.tsch.get_slotframe(self.UNICAST_HANDLE)
        eb_sf = self.node.tsch.get_slotframe(self.EB_HANDLE)
        if unicast_sf is None or eb_sf is None:
            return
        if self._parent_tx_cell is not None:
            unicast_sf.remove_cell(self._parent_tx_cell)
            self._parent_tx_cell = None
        if self._eb_rx_cell is not None:
            eb_sf.remove_cell(self._eb_rx_cell)
            self._eb_rx_cell = None
        if new_parent is None:
            return

        slot, channel = self._unicast_coordinates(new_parent)
        self._parent_tx_cell = unicast_sf.add_cell(
            Cell(
                slot_offset=slot,
                channel_offset=channel,
                options=CellOption.TX | CellOption.SHARED,
                neighbor=new_parent,
                purpose=CellPurpose.UNICAST_DATA,
                label="orchestra-unicast-tx",
            )
        )
        # Follow the parent's EBs for synchronisation (time-source cell).
        self._eb_rx_cell = eb_sf.add_cell(
            Cell(
                slot_offset=self._eb_slot(new_parent),
                channel_offset=self.config.eb_channel_offset,
                options=CellOption.RX,
                neighbor=new_parent,
                purpose=CellPurpose.BROADCAST,
                label="orchestra-eb-rx",
            )
        )

    def on_child_added(self, child: int) -> None:
        unicast_sf = self.node.tsch.get_slotframe(self.UNICAST_HANDLE)
        if unicast_sf is None or child in self._child_tx_cells:
            return
        # Keep a Tx cell towards the child for downward traffic (hash of the
        # child's id).
        slot, channel = self._unicast_coordinates(child)
        self._child_tx_cells[child] = unicast_sf.add_cell(
            Cell(
                slot_offset=slot,
                channel_offset=channel,
                options=CellOption.TX | CellOption.SHARED,
                neighbor=child,
                purpose=CellPurpose.UNICAST_DATA,
                label="orchestra-unicast-tx-child",
            )
        )

    def on_child_removed(self, child: int) -> None:
        unicast_sf = self.node.tsch.get_slotframe(self.UNICAST_HANDLE)
        cell = self._child_tx_cells.pop(child, None)
        if unicast_sf is not None and cell is not None:
            unicast_sf.remove_cell(cell)
