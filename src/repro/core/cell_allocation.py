"""Unicast-Data cell placement (Section V of the paper).

The parent owns the placement of its children's Tx cells (which are the
parent's Rx cells).  Three rules govern the choice of slot offsets:

1. **Tx > Rx** -- a non-root node keeps more Tx cells (towards its parent)
   than Rx cells (from its children) in every slotframe, so its outgoing
   capacity always exceeds its incoming rate and the queue cannot build up
   structurally.
2. **No consecutive Rx** -- at least one Tx timeslot sits between any two
   consecutive Rx timeslots of the slotframe, so received packets can be
   forwarded before the next one arrives (the Fig. 5 example: without this,
   node B's queue overflows before its first Tx opportunity).
3. **Fair interleaving between children** -- a child is not given two
   consecutive Rx timeslots while other children are waiting, which bounds
   the per-hop queueing delay of every child's traffic.

:class:`UnicastCellAllocator` implements the parent-side selection of slot
offsets subject to these rules, given a view of the parent's current
schedule.  It is pure bookkeeping over integers (no simulator state) so the
rules can be property-tested directly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional


class CellAllocationError(RuntimeError):
    """Raised when a request cannot be satisfied at all (no free offsets)."""


@dataclass
class ScheduleView:
    """The slices of a node's schedule the allocation rules need to see."""

    slotframe_length: int
    #: Offsets that can never hold negotiated cells (broadcast + shared).
    reserved_offsets: set[int] = field(default_factory=set)
    #: Offsets of this node's Tx data cells (towards its parent).
    tx_offsets: set[int] = field(default_factory=set)
    #: Offsets of this node's Rx data cells, keyed by child.
    rx_offsets_by_child: dict[int, set[int]] = field(default_factory=dict)
    #: Whether the node is a DODAG root (rule 1 does not constrain roots,
    #: which have no Tx cells at all).
    is_root: bool = False

    def all_rx_offsets(self) -> set[int]:
        merged: set[int] = set()
        for offsets in self.rx_offsets_by_child.values():
            merged |= offsets
        return merged

    def occupied_offsets(self) -> set[int]:
        return self.reserved_offsets | self.tx_offsets | self.all_rx_offsets()

    def free_offsets(self) -> list[int]:
        occupied = self.occupied_offsets()
        return [o for o in range(self.slotframe_length) if o not in occupied]

    def tx_count(self) -> int:
        return len(self.tx_offsets)

    def rx_count(self) -> int:
        return len(self.all_rx_offsets())


class UnicastCellAllocator:
    """Parent-side selection of Rx slot offsets for a child's ADD request."""

    def __init__(self, view: ScheduleView) -> None:
        self.view = view

    # ------------------------------------------------------------------
    # capacity questions
    # ------------------------------------------------------------------
    def rx_budget(self) -> int:
        """How many more Rx cells this node may accept in total (rule 1).

        Roots are only limited by free offsets; other nodes must keep
        ``tx > rx``, i.e. they can accept at most ``tx - rx - 1`` additional
        Rx cells (and never more than the free offsets available).
        """
        free = len(self.view.free_offsets())
        if self.view.is_root:
            return free
        margin = self.view.tx_count() - self.view.rx_count() - 1
        return max(0, min(free, margin))

    # ------------------------------------------------------------------
    # offset selection
    # ------------------------------------------------------------------
    def pick_rx_offsets(
        self, child: int, count: int, allowed: Optional[set[int]] = None
    ) -> list[int]:
        """Choose up to ``count`` offsets for new Rx cells from ``child``.

        The number actually granted is bounded by :meth:`rx_budget`.  Offsets
        are chosen greedily to honour rules 2 and 3: candidates adjacent to
        existing Rx cells (cyclically) are avoided while alternatives exist,
        and candidates adjacent to the same child's existing cells are
        penalised so one child's receptions are spread across the slotframe.

        ``allowed`` restricts the choice to offsets the *requesting child*
        declared free in its 6P CellList (RFC 8480 semantics), which prevents
        granting the child a Tx opportunity in a timeslot where it must
        already receive from its own children -- exactly interference
        problem 1 of Section III.

        Raises :class:`CellAllocationError` when no offset is free at all and
        at least one cell was requested.
        """
        if count <= 0:
            return []
        free = self.view.free_offsets()
        if allowed is not None:
            free = [offset for offset in free if offset in allowed]
        if not free:
            raise CellAllocationError("no free slot offsets left in the slotframe")
        budget = self.rx_budget()
        granted_target = min(count, budget)
        if granted_target == 0:
            return []

        chosen: list[int] = []
        child_existing = set(self.view.rx_offsets_by_child.get(child, set()))
        all_rx = self.view.all_rx_offsets()
        for _ in range(granted_target):
            candidates = [o for o in free if o not in chosen]
            if not candidates:
                break
            best = min(
                candidates,
                key=lambda offset: self._offset_penalty(
                    offset, all_rx | set(chosen), child_existing | set(chosen)
                ),
            )
            chosen.append(best)
        return sorted(chosen)

    def _offset_penalty(
        self, offset: int, rx_offsets: set[int], same_child_offsets: set[int]
    ) -> tuple:
        """Smaller is better.  Encodes rules 2 and 3 as a lexicographic score."""
        length = self.view.slotframe_length
        previous = (offset - 1) % length
        nxt = (offset + 1) % length
        adjacent_to_rx = int(previous in rx_offsets) + int(nxt in rx_offsets)
        # Distance to the closest reception of the same child (larger = better
        # interleaving), negated so that min() prefers the farthest.
        if same_child_offsets:
            distance = min(
                min((offset - other) % length, (other - offset) % length)
                for other in sorted(same_child_offsets)
            )
        else:
            distance = length
        # Prefer offsets right after one of this node's Tx cells so a received
        # packet waits as little as possible before it can be forwarded.
        follows_tx = int(previous in self.view.tx_offsets)
        return (adjacent_to_rx, -distance, -follows_tx, offset)

    # ------------------------------------------------------------------
    def pick_tx_offsets_for_root_child(self, count: int) -> list[int]:
        """Convenience for tests: offsets a root grants, ignoring rule 1."""
        return self.pick_rx_offsets(child=-1, count=count)

    def pick_release_offsets(self, child: int, count: int) -> list[int]:
        """Choose which of a child's Rx cells to delete (6P DELETE).

        Releases the most recently granted offsets first (highest offsets),
        which tends to preserve the interleaving quality of the remaining
        cells.
        """
        existing = sorted(self.view.rx_offsets_by_child.get(child, set()))
        if count <= 0 or not existing:
            return []
        return existing[-count:]


def validate_no_consecutive_rx(
    slotframe_length: int, tx_offsets: Sequence[int], rx_offsets: Sequence[int]
) -> list[str]:
    """Check rule 2 over a complete schedule; returns violations (empty = ok).

    Two Rx cells are "consecutive" when no Tx cell sits between them in the
    cyclic slot order.  Only meaningful for nodes that have at least one Tx
    cell (a root has none and forwards nothing).
    """
    if not rx_offsets or not tx_offsets:
        return []
    violations: list[str] = []
    marks = {}
    for offset in tx_offsets:
        marks[offset % slotframe_length] = "tx"
    for offset in rx_offsets:
        marks[offset % slotframe_length] = marks.get(offset % slotframe_length, "rx")
    ordered = sorted(marks)
    previous_kind: Optional[str] = None
    previous_offset: Optional[int] = None
    # Walk twice around the ring so the wrap-around pair is also checked.
    for offset in ordered + [o + slotframe_length for o in ordered]:
        kind = marks[offset % slotframe_length]
        if kind == "rx" and previous_kind == "rx":
            violations.append(
                f"rx cells at offsets {previous_offset % slotframe_length} and "
                f"{offset % slotframe_length} have no tx cell between them"
            )
        previous_kind = kind
        previous_offset = offset
    # De-duplicate the doubled walk.
    return sorted(set(violations))
