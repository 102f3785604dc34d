"""Slotframes: periodic groups of cells.

A slotframe of length ``m`` repeats every ``m`` timeslots: the cell scheduled
at slot offset ``o`` is active at every ASN with ``asn % m == o``.  A node may
run several slotframes simultaneously (Orchestra runs three); when cells from
different slotframes coincide at the same ASN, the TSCH engine breaks the tie
by cell purpose priority, then by slotframe handle.

Cells are stored in a dense per-offset lookup table, so :meth:`cells_at` is a
single O(1) index with no allocation.  Each offset's bucket is kept in
planning order (stably sorted by purpose priority), so the TSCH engine plans
a slot from it without sorting.  A parallel per-offset table holds the
*listen entry* (:meth:`listen_at`, the idle-listen decision), which every
mutation recomputes for each offset it touches.  Every empty offset points
at one shared, never-mutated empty list, so a mostly idle schedule costs
lists only for its *used* offsets.  Every mutation first bumps
:attr:`version` and fires :attr:`~Slotframe.on_change` *before* it touches
either table, so the owning TSCH engine can settle the node's deferred
state under the schedule that held until now.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import Optional

from repro.mac.cell import Cell, CellOption, CellPurpose

#: A listen-table entry: ``(purpose priority, channel offset)`` of an offset's
#: first lowest-priority RX cell.
ListenEntry = tuple[int, int]

#: The bucket of every empty offset.  Never mutated: a cell added at an empty
#: offset gets a fresh list, and an offset whose last cell goes points back here.
_EMPTY: list[Cell] = []


def planning_priority(cell: Cell) -> int:
    """Sort key of planning order: GT-TSCH purpose priority, lower first."""
    return cell.purpose.priority


def _listen_entry(bucket: list[Cell]) -> Optional[ListenEntry]:
    """The first RX cell of a bucket, or None."""
    for cell in bucket:
        if cell.is_rx:
            return (cell.purpose.priority, cell.channel_offset)
    return None


class Slotframe:
    """A collection of cells repeating with a fixed period."""

    def __init__(self, handle: int, length: int) -> None:
        if length <= 0:
            raise ValueError("slotframe length must be positive")
        self.handle = handle
        self.length = length
        #: Monotonic mutation counter; bumped by every cell add/remove.
        self.version = 0
        #: Invoked before every mutation applies, while the tables still hold
        #: the old schedule; the owning TSCH engine hooks this to settle the
        #: node's deferred state and then invalidate its derived facts.
        self.on_change: Optional[Callable[[], None]] = None
        #: Dense lookup table: ``_table[offset]`` lists the cells installed at
        #: that slot offset in planning order (stably sorted by purpose
        #: priority, ties in insertion order), or is :data:`_EMPTY`.
        self._table: list[list[Cell]] = [_EMPTY] * length
        #: Listen table: ``_listen[offset]`` is :func:`_listen_entry` of
        #: ``_table[offset]``.  It changes only in the methods that mutate
        #: ``_table``, each of which calls :meth:`_mutated` first.
        self._listen: list[Optional[ListenEntry]] = [None] * length

    def _mutated(self) -> None:
        self.version += 1
        if self.on_change is not None:
            self.on_change()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_cell(self, cell: Cell) -> Cell:
        """Install ``cell`` in this slotframe.

        Raises ``ValueError`` when the slot offset exceeds the slotframe
        length.  Duplicate (slot, channel, neighbor, options) cells are
        ignored and the already-installed cell is returned, which makes
        scheduler code idempotent.
        """
        if cell.slot_offset >= self.length:
            raise ValueError(
                f"slot offset {cell.slot_offset} out of range for slotframe of length {self.length}"
            )
        cell.slotframe_handle = self.handle
        existing = self.find_cell(
            cell.slot_offset, cell.channel_offset, cell.neighbor, cell.options
        )
        if existing is not None:
            return existing
        self._mutated()
        bucket = self._table[cell.slot_offset]
        if bucket:
            # Stable insert: after every cell of equal or lower priority.
            index = len(bucket)
            priority = planning_priority(cell)
            while index and planning_priority(bucket[index - 1]) > priority:
                index -= 1
            bucket.insert(index, cell)
        else:
            bucket = self._table[cell.slot_offset] = [cell]
        self._listen[cell.slot_offset] = _listen_entry(bucket)
        return cell

    def remove_cell(self, cell: Cell) -> bool:
        """Remove a previously installed cell.  Returns True when found."""
        if cell.slot_offset >= self.length:
            return False
        bucket = self._table[cell.slot_offset]
        if cell not in bucket:
            return False
        self._mutated()
        bucket.remove(cell)
        if not bucket:
            self._table[cell.slot_offset] = _EMPTY
        self._listen[cell.slot_offset] = _listen_entry(bucket)
        return True

    def remove_cells_with_neighbor(self, neighbor: int) -> int:
        """Remove every cell dedicated to ``neighbor`` (e.g. after a parent switch)."""
        removed = 0
        for offset, bucket in enumerate(self._table):
            if not bucket:
                continue
            keep = [c for c in bucket if c.neighbor != neighbor]
            if len(keep) < len(bucket):
                if not removed:
                    self._mutated()
                removed += len(bucket) - len(keep)
                self._table[offset] = keep if keep else _EMPTY
                self._listen[offset] = _listen_entry(keep)
        return removed

    def clear(self) -> None:
        """Remove every cell."""
        self._mutated()
        self._table = [_EMPTY] * self.length
        self._listen = [None] * self.length

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cells_at(self, asn: int) -> list[Cell]:
        """Cells active at the given absolute slot number, in planning order.

        Returns the internal per-offset bucket (O(1), no copy); callers must
        treat it as read-only.
        """
        return self._table[asn % self.length]

    def listen_at(self, asn: int) -> Optional[ListenEntry]:
        """Idle-listen entry at ``asn``: ``(priority, channel offset)`` or None.

        The first RX cell in planning order among :meth:`cells_at`, which a
        node with nothing to send listens on; None when no cell there has
        the RX option.
        """
        return self._listen[asn % self.length]

    def cells_at_offset(self, slot_offset: int) -> list[Cell]:
        """Cells installed at a given slot offset (read-only view)."""
        if slot_offset >= self.length:
            return []
        return self._table[slot_offset]

    def find_cell(
        self,
        slot_offset: int,
        channel_offset: Optional[int] = None,
        neighbor: Optional[int] = None,
        options: Optional[CellOption] = None,
    ) -> Optional[Cell]:
        """First cell (in planning order) matching the given attributes, if any."""
        if slot_offset >= self.length:
            return None
        for cell in self._table[slot_offset]:
            if channel_offset is not None and cell.channel_offset != channel_offset:
                continue
            if neighbor is not None and cell.neighbor != neighbor:
                continue
            if options is not None and cell.options != options:
                continue
            return cell
        return None

    def all_cells(self) -> Iterator[Cell]:
        """Iterate over every installed cell (slot order, then planning order)."""
        for bucket in self._table:
            for cell in bucket:
                yield cell

    def cells_with_neighbor(self, neighbor: Optional[int]) -> list[Cell]:
        """All cells dedicated to ``neighbor``."""
        return [cell for cell in self.all_cells() if cell.neighbor == neighbor]

    def used_slot_offsets(self) -> list[int]:
        """Sorted slot offsets that have at least one cell installed."""
        return [offset for offset, bucket in enumerate(self._table) if bucket]

    def free_slot_offsets(self) -> list[int]:
        """Slot offsets with no cell installed (GT-TSCH's sleep timeslots)."""
        return [offset for offset, bucket in enumerate(self._table) if not bucket]

    def count_cells(
        self,
        options: Optional[CellOption] = None,
        neighbor: Optional[int] = None,
        purpose: Optional[CellPurpose] = None,
    ) -> int:
        """Count installed cells matching the given filters."""
        count = 0
        for cell in self.all_cells():
            if options is not None and not (cell.options & options):
                continue
            if neighbor is not None and cell.neighbor != neighbor:
                continue
            if purpose is not None and cell.purpose != purpose:
                continue
            count += 1
        return count

    def occupancy(self) -> float:
        """Fraction of slot offsets with at least one cell installed."""
        return sum(1 for bucket in self._table if bucket) / self.length

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._table)

    def __iter__(self) -> Iterator[Cell]:
        return self.all_cells()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Slotframe(handle={self.handle}, length={self.length}, cells={len(self)})"


def render_cdu_matrix(slotframes: Iterable[Slotframe], num_channels: int) -> list[list[str]]:
    """Render slotframes into a CDU-matrix grid of labels (Fig. 1 style).

    Returns a list of rows indexed by channel offset; each entry is either an
    empty string or a comma-separated list of "(sender,receiver)"-style labels
    built from the cells' neighbor and direction.  Intended for examples,
    documentation and tests -- not used by the protocol machinery.
    """
    length = max(sf.length for sf in slotframes)
    grid = [["" for _ in range(length)] for _ in range(num_channels)]
    for sf in slotframes:
        for cell in sf.all_cells():
            if cell.channel_offset >= num_channels:
                continue
            direction = "Tx" if cell.is_tx else "Rx"
            target = "*" if cell.neighbor is None else str(cell.neighbor)
            tag = f"{direction}->{target}"
            existing = grid[cell.channel_offset][cell.slot_offset]
            grid[cell.channel_offset][cell.slot_offset] = (
                f"{existing},{tag}" if existing else tag
            )
    return grid
