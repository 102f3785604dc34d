"""GT-TSCH slotframe creation (Section IV).

GT-TSCH uses a single slotframe per node with five timeslot types, listed in
descending priority: Broadcast, Unicast-6P, Unicast-Data, Shared, Sleep.
This module computes the deterministic parts of the layout --

* broadcast timeslots uniformly distributed over the slotframe
  (offsets ``{x | x % floor(m/k) == 0}``, Section IV rule 1);
* the shared timeslots reserved at fixed offsets for parent/children
  contention traffic (Section IV rule 4);

-- and installs them into a node's TSCH engine.  Unicast-6P and Unicast-Data
cells are *negotiated* (6P ADD/DELETE), so their placement is handled by
:mod:`repro.core.cell_allocation`; the builder only reports which offsets
are reserved, so that they never hold one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.core.config import GtTschConfig
from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.mac.slotframe import Slotframe


def broadcast_offsets(slotframe_length: int, num_broadcast_cells: int) -> list[int]:
    """Slot offsets of the broadcast timeslots (Section IV rule 1).

    ``j = {x | x in N0, x < m, x % floor(m/k) == 0}`` -- e.g. ``m=20, k=5``
    gives ``{0, 4, 8, 12, 16}``, the example worked in the paper.  When ``m``
    is not a multiple of ``k`` the formula naturally yields a few more
    offsets than ``k``; the first ``k`` are used so exactly ``k`` broadcast
    timeslots exist.
    """
    if num_broadcast_cells < 1 or num_broadcast_cells >= slotframe_length:
        raise ValueError("num_broadcast_cells must be in [1, slotframe_length)")
    spacing = max(1, slotframe_length // num_broadcast_cells)
    offsets = [offset for offset in range(slotframe_length) if offset % spacing == 0]
    return offsets[:num_broadcast_cells]


def shared_offsets(
    slotframe_length: int,
    num_broadcast_cells: int,
    num_shared_cells: int,
    group_owner: int = 0,
) -> list[int]:
    """Slot offsets of the shared timeslots (Section IV rule 4).

    Shared timeslots are "assigned to a node and its children": every
    parent-child group has its own set.  Both ends derive the offsets from the
    *parent's* node id (``group_owner``), so no signalling is needed, and
    different groups land on different offsets, so a node's shared cells
    towards its parent do not systematically collide with the shared cells it
    keeps open for its own children.  Within a group the offsets are spread
    over the non-broadcast slots of the slotframe.
    """
    reserved = set(broadcast_offsets(slotframe_length, num_broadcast_cells))
    candidates = [o for o in range(slotframe_length) if o not in reserved]
    if len(candidates) < num_shared_cells:
        raise ValueError("slotframe too small for the requested number of shared cells")
    # Deterministic per-group rotation (Knuth multiplicative hash) plus an
    # even stride, so the group's shared cells are spread over the slotframe.
    rotation = ((group_owner + 1) * 2654435761 & 0xFFFFFFFF) % len(candidates)
    stride = max(1, len(candidates) // num_shared_cells)
    rotated = candidates[rotation:] + candidates[:rotation]
    chosen: list[int] = []
    for position in range(0, len(rotated), stride):
        chosen.append(rotated[position])
        if len(chosen) == num_shared_cells:
            break
    for candidate in rotated:
        if len(chosen) == num_shared_cells:
            break
        if candidate not in chosen:
            chosen.append(candidate)
    return sorted(chosen)


@lru_cache(maxsize=None)
def broadcast_layout(slotframe_length: int, num_broadcast_cells: int) -> tuple[int, ...]:
    """:func:`broadcast_offsets`, computed once per argument pair and shared as a tuple."""
    return tuple(broadcast_offsets(slotframe_length, num_broadcast_cells))


@lru_cache(maxsize=None)
def shared_layout(
    slotframe_length: int, num_broadcast_cells: int, num_shared_cells: int, group_owner: int
) -> tuple[int, ...]:
    """:func:`shared_offsets`, computed once per argument tuple and shared as a tuple."""
    return tuple(
        shared_offsets(slotframe_length, num_broadcast_cells, num_shared_cells, group_owner)
    )


class GtSlotframeBuilder:
    """Installs the deterministic part of a node's GT-TSCH slotframe."""

    #: Slotframe handle GT-TSCH uses (it runs a single slotframe).
    SLOTFRAME_HANDLE = 0

    def __init__(self, config: GtTschConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def build(self, tsch_engine) -> Slotframe:
        """Create the slotframe and install the broadcast timeslots.

        Every other offset starts in the Sleep state (no cell installed);
        shared cells are added once the node knows the channel of its
        parent-facing link (:meth:`install_shared_cells_towards_parent`) or
        as soon as it can have children (:meth:`install_shared_cells_for_children`).
        """
        slotframe = tsch_engine.add_slotframe(self.SLOTFRAME_HANDLE, self.config.slotframe_length)
        for offset in self.broadcast_cell_offsets():
            # Broadcast timeslots carry *only* broadcast control frames
            # (EB/DIO); unicast traffic stays on shared and dedicated cells so
            # the control plane cannot be crowded out by data (no SHARED flag,
            # hence no unicast fallback on these cells).
            slotframe.add_cell(
                Cell(
                    slot_offset=offset,
                    channel_offset=self.config.broadcast_channel_offset,
                    options=CellOption.TX | CellOption.RX | CellOption.BROADCAST,
                    neighbor=None,
                    purpose=CellPurpose.BROADCAST,
                    label="gt-broadcast",
                )
            )
        return slotframe

    # ------------------------------------------------------------------
    def broadcast_cell_offsets(self) -> tuple[int, ...]:
        """Broadcast-cell offsets of this configuration."""
        return broadcast_layout(self.config.slotframe_length, self.config.num_broadcast_cells)

    def shared_cell_offsets(self, group_owner: int) -> tuple[int, ...]:
        """Shared-cell offsets of the group owned by node ``group_owner``."""
        return shared_layout(
            self.config.slotframe_length,
            self.config.num_broadcast_cells,
            self.config.num_shared_cells,
            group_owner,
        )

    def install_shared_cells_towards_parent(
        self, tsch_engine, parent: int, parent_channel_offset: int
    ) -> list[Cell]:
        """Child side: shared Tx/Rx cells of the parent's group.

        The cells are transmit-capable towards the parent (bootstrap 6P
        requests, overflow data) and receive-capable so that, when the child
        has nothing to send, it hears the parent's 6P responses/requests sent
        in the same group -- Section IV describes shared timeslots as carrying
        "unicast transmission of data/6P packets" in both directions.
        """
        slotframe = tsch_engine.get_slotframe(self.SLOTFRAME_HANDLE)
        cells = []
        for offset in self.shared_cell_offsets(parent):
            cells.append(
                slotframe.add_cell(
                    Cell(
                        slot_offset=offset,
                        channel_offset=parent_channel_offset,
                        options=CellOption.TX | CellOption.RX | CellOption.SHARED,
                        neighbor=parent,
                        purpose=CellPurpose.SHARED,
                        label="gt-shared-up",
                    )
                )
            )
        return cells

    def install_shared_cells_for_children(
        self, tsch_engine, owner: int, child_channel_offset: int
    ) -> list[Cell]:
        """Parent side: shared RX cells on the node's child-facing channel."""
        slotframe = tsch_engine.get_slotframe(self.SLOTFRAME_HANDLE)
        cells = []
        for offset in self.shared_cell_offsets(owner):
            cells.append(
                slotframe.add_cell(
                    Cell(
                        slot_offset=offset,
                        channel_offset=child_channel_offset,
                        options=CellOption.RX | CellOption.SHARED | CellOption.ALWAYS_ON,
                        neighbor=None,
                        purpose=CellPurpose.SHARED,
                        label="gt-shared-down",
                    )
                )
            )
        return cells

    # ------------------------------------------------------------------
    def reserved_offsets(self, group_owners: Optional[list[int]] = None) -> set[int]:
        """Offsets that can never hold negotiated (6P / data) cells.

        ``group_owners`` lists the shared-cell groups this node participates
        in (its own id as a parent, plus its parent's id as a child); the
        broadcast timeslots are always reserved.
        """
        reserved = set(self.broadcast_cell_offsets())
        for owner in group_owners or []:
            reserved.update(self.shared_cell_offsets(owner))
        return reserved
