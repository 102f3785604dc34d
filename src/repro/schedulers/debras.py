"""DeBrAS: broadcast-aware autonomous scheduling.

DeBrAS (De-congested Broadcast + Autonomous Scheduling, after Rekik et al.)
keeps Orchestra's negotiation-free autonomous-cell idea but fixes its worst
collision source: autonomous unicast cells that hash onto the slots carrying
broadcast traffic (EBs, DIOs) lose to the higher-priority broadcast cell
every slotframe, silently halving the owner's bandwidth.  DeBrAS therefore

* spreads a configurable number of shared broadcast cells evenly over a
  *single* slotframe (the same spread rule as the paper's 6TiSCH-minimal
  baseline, but alongside unicast cells rather than instead of them), and
* derives each node's autonomous unicast cell from a deterministic hash of
  its id, then **relocates** it away from any congested broadcast slot by
  linear probing to the next broadcast-free slot.

Everything is receiver-based, as in default Orchestra: a node listens on its
own (relocated) cell and transmits towards parent and children on *their*
cells.  Both link ends compute the same relocation from the owner's id
alone, so no signalling is needed -- the scheduler is entirely autonomous
and never touches 6P.

There are no timers and no per-slot hooks, so the fast-kernel settlement
contract is trivially satisfied: the schedule only mutates on RPL topology
events, and each mutation is its own settlement barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.schedulers.autonomous import (
    AutonomousCells,
    add_shared_cells,
    sax_hash,
    spread_offsets,
)
from repro.schedulers.base import SchedulingFunction
from repro.schedulers.registry import register_scheduler

#: Channel offset of the shared broadcast cells; the unicast cells hash onto
#: the offsets above it.
BROADCAST_CHANNEL_OFFSET = 0


@dataclass(frozen=True)
class DebrasConfig:
    """DeBrAS knobs.  Frozen and slotted: it enters the scenario fingerprint.

    No field defaults (``__slots__`` rules out class-level defaults on
    Python 3.9): construct via :func:`debras_config_from` or supply every
    field explicitly.
    """

    __slots__ = ("slotframe_length", "num_channels", "num_broadcast_cells")

    slotframe_length: int
    num_channels: int
    #: Shared broadcast cells spread evenly over the slotframe.
    num_broadcast_cells: int

    def __post_init__(self) -> None:
        if self.slotframe_length < 2:
            raise ValueError("slotframe_length must be at least 2")
        if self.num_channels < 2:
            raise ValueError("DeBrAS needs at least 2 channel offsets")
        if not 1 <= self.num_broadcast_cells < self.slotframe_length:
            raise ValueError(
                "num_broadcast_cells must leave at least one unicast slot"
            )


def debras_config_from(contiki: Any) -> DebrasConfig:
    """Derive a :class:`DebrasConfig` from the experiment-wide config.

    Reuses the GT-TSCH slotframe length and the scenario's broadcast-cell
    budget (``num_broadcast_cells`` also sizes GT-TSCH's broadcast
    slotframe), so the comparison holds the control-plane capacity constant.
    """
    return DebrasConfig(
        slotframe_length=contiki.gt_slotframe_length,
        num_channels=len(contiki.hopping_sequence),
        num_broadcast_cells=contiki.num_broadcast_cells,
    )


class DebrasScheduler(SchedulingFunction):
    """Autonomous receiver-based scheduler with broadcast-slot avoidance."""

    name = "DeBrAS"

    SLOTFRAME_HANDLE = 0

    __slots__ = ("config", "broadcast_slots", "autonomous")

    def __init__(self, config: DebrasConfig) -> None:
        super().__init__()
        self.config = config
        #: Offsets of the shared broadcast cells, in install order.
        self.broadcast_slots = spread_offsets(
            config.slotframe_length, config.num_broadcast_cells
        )
        self.autonomous = AutonomousCells(
            self.SLOTFRAME_HANDLE,
            self._autonomous_cell,
            ("debras-autonomous-rx", "debras-autonomous-tx", "debras-autonomous-tx-child"),
        )

    # ------------------------------------------------------------------
    # cell coordinate derivation (the broadcast-aware part)
    # ------------------------------------------------------------------
    def _autonomous_cell(self, owner: int) -> tuple:
        """(slot, channel) of ``owner``'s autonomous cell, probed off any
        broadcast slot.

        Linear probing is deterministic and uses only the owner's id, so
        sender and receiver agree without signalling.  ``num_broadcast_cells
        < slotframe_length`` guarantees termination.
        """
        h = sax_hash(owner)
        slot = h % self.config.slotframe_length
        while slot in self.broadcast_slots:
            slot = (slot + 1) % self.config.slotframe_length
        channel = 1 + (h >> 16) % (self.config.num_channels - 1)
        return slot, channel

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        node = self.node
        slotframe = node.tsch.add_slotframe(
            self.SLOTFRAME_HANDLE, self.config.slotframe_length
        )
        add_shared_cells(
            slotframe, self.broadcast_slots, BROADCAST_CHANNEL_OFFSET, "debras-broadcast"
        )
        self.autonomous.listen(node)

    # ------------------------------------------------------------------
    # RPL events keep the unicast cells aligned with the topology
    # ------------------------------------------------------------------
    def on_parent_changed(self, old_parent: Optional[int], new_parent: Optional[int]) -> None:
        self.autonomous.follow(new_parent)

    def on_child_added(self, child: int) -> None:
        self.autonomous.add_child(child)

    def on_child_removed(self, child: int) -> None:
        self.autonomous.remove_child(child)


@register_scheduler(DebrasScheduler.name)
def _build_debras(contiki: Any) -> Any:
    """Registry builder: fresh per-node config, like every first-party SF."""
    return lambda node_id, is_root: DebrasScheduler(debras_config_from(contiki))
