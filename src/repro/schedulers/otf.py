"""OTF: on-the-fly bandwidth estimation and cell allocation.

OTF (Palattella et al., "On-the-Fly Bandwidth Reservation for 6TiSCH
Wireless Industrial Networks") sizes each node's Tx bandwidth towards its
parent from a running estimate of outgoing traffic instead of a game
(GT-TSCH) or a fixed hash (Orchestra/DeBrAS).  This implementation models
OTF's allocation policy over sender-based autonomous "lanes":

* lane ``i`` of node ``n`` sits at deterministic hash coordinates of
  ``(n, i)``, so both link ends can compute it without negotiation;
* the sender installs Tx lanes towards its parent and advertises its current
  lane count (and its parent's id) in its Enhanced Beacons; the parent
  mirrors matching Rx lanes when it hears the EB -- EB piggybacking replaces
  OTF's 6top signalling, trading 6P round-trips for EB-period allocation lag;
* a periodic allocation tick re-estimates the required bandwidth from
  (a) packets generated locally since the last tick, (b) the number of Rx
  lanes granted to children (forwarding demand), and (c) current MAC-queue
  pressure; the lane count grows immediately when demand rises and shrinks
  only when it falls more than a hysteresis margin below the allocation
  (OTF's over-provisioning threshold, which damps allocation churn).

Fast-kernel compliance: bandwidth is estimated from event-driven counters
(``on_packet_enqueued``) and queue length sampled at timer ticks -- never
from per-slot hooks -- so the slot-skipping kernel stays bit-identical.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass
from typing import Any, Optional

from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.net.packet import Packet, PacketType
from repro.schedulers.autonomous import add_shared_cells, sax_hash, spread_offsets
from repro.schedulers.base import SchedulingFunction
from repro.schedulers.registry import register_scheduler

#: Upper bound on Tx lanes towards the parent.
MAX_LANES = 6
#: Shrink only when demand falls this many lanes below the allocation
#: (OTF's over-provisioning threshold).
HYSTERESIS_LANES = 1
#: ``(options, label)`` of a lane at its sender and at its receiver.
TX_LANE = (CellOption.TX, "otf-tx-lane")
RX_LANE = (CellOption.RX | CellOption.ALWAYS_ON, "otf-rx-lane")


@dataclass(frozen=True)
class OtfConfig:
    """OTF knobs.  Frozen and slotted: it enters the scenario fingerprint.

    No field defaults (``__slots__`` rules out class-level defaults on
    Python 3.9): construct via :func:`otf_config_from` or supply every field
    explicitly.
    """

    __slots__ = (
        "slotframe_length",
        "num_channels",
        "num_broadcast_cells",
        "allocation_period_s",
    )

    slotframe_length: int
    num_channels: int
    #: Shared broadcast cells spread evenly over the slotframe.  Lane
    #: signalling rides on EBs, so OTF depends on broadcast capacity more
    #: than the receiver-based schedulers do: a parent that cannot hear a
    #: child's EBs never installs the Rx side of its lanes.
    num_broadcast_cells: int
    allocation_period_s: float

    def __post_init__(self) -> None:
        if self.slotframe_length < 2:
            raise ValueError("slotframe_length must be at least 2")
        if self.num_channels < 2:
            raise ValueError("OTF needs at least 2 channel offsets")
        if not 1 <= self.num_broadcast_cells < self.slotframe_length:
            raise ValueError(
                "num_broadcast_cells must leave at least one unicast slot"
            )
        if self.allocation_period_s <= 0:
            raise ValueError("allocation_period_s must be positive")


def otf_config_from(contiki: Any) -> OtfConfig:
    """Derive an :class:`OtfConfig` from the experiment-wide config.

    Same slotframe length and adaptation cadence as GT-TSCH, so the figure
    head-to-heads compare allocation *policies* rather than timer settings.
    """
    return OtfConfig(
        slotframe_length=contiki.gt_slotframe_length,
        num_channels=len(contiki.hopping_sequence),
        num_broadcast_cells=contiki.num_broadcast_cells,
        allocation_period_s=contiki.load_balance_period_s,
    )


def lane_coordinates(
    owner: int,
    index: int,
    slotframe_length: int,
    num_channels: int,
    broadcast_slots: Collection[int] = (),
) -> tuple:
    """(slot, channel) of lane ``index`` of node ``owner``.

    A pure function of the arguments, shared by both link ends: the sender
    installs the Tx side and the parent derives the identical Rx side from
    the EB-advertised lane count.  Lanes linearly probe off the broadcast
    slots (both ends pass the same set, so they still agree) and off slot 0,
    which stays reserved even when it carries no broadcast cell.
    """
    h = sax_hash(((owner & 0xFFFFFF) << 6) ^ (index & 0x3F))
    slot = 1 + h % (slotframe_length - 1)
    while slot in broadcast_slots:
        slot = 1 + (slot % (slotframe_length - 1))
    channel = 1 + (h >> 16) % (num_channels - 1)
    return slot, channel


class OtfScheduler(SchedulingFunction):
    """Queue-pressure-driven bandwidth allocation over autonomous lanes."""

    name = "OTF"

    SLOTFRAME_HANDLE = 0

    __slots__ = (
        "config",
        "broadcast_slots",
        "_tx_lanes",
        "_rx_lanes",
        "_packets_generated",
        "cells_relocated",
    )

    def __init__(self, config: OtfConfig) -> None:
        super().__init__()
        self.config = config
        #: Offsets of the shared broadcast cells, in install order.
        self.broadcast_slots = spread_offsets(
            config.slotframe_length, config.num_broadcast_cells
        )
        #: Tx lanes towards the parent, by lane index order.
        self._tx_lanes: list[Cell] = []
        #: Rx lanes granted to each child, by lane index order.
        self._rx_lanes: dict[int, list[Cell]] = {}
        #: Locally generated DATA packets since the last allocation tick.
        self._packets_generated = 0
        #: Lane installs/removals (schedule churn, GT-TSCH counter semantics).
        self.cells_relocated = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        node = self.node
        slotframe = node.tsch.add_slotframe(
            self.SLOTFRAME_HANDLE, self.config.slotframe_length
        )
        # Spread broadcast cells (minimal/DeBrAS layout).  OTF's lane
        # signalling rides on EBs, so a single shared cell would congest
        # under the whole network's control traffic and starve the Rx-lane
        # reconciliation that makes the dedicated lanes usable.
        add_shared_cells(slotframe, self.broadcast_slots, 0, "otf-shared")
        self.start_rounds(self.config.allocation_period_s, self._allocation_tick, "otf")

    # ------------------------------------------------------------------
    # lane reconciliation (both link ends derive the same coordinates)
    # ------------------------------------------------------------------
    def _set_lanes(
        self,
        lanes: list[Cell],
        owner: int,
        neighbor: int,
        count: int,
        kind: tuple[CellOption, str],
    ) -> None:
        """Grow or shrink ``lanes``, the lanes of ``owner`` shared with
        ``neighbor``, to ``count`` (capped at :data:`MAX_LANES`).

        ``kind`` is :data:`TX_LANE` for this node's own lanes towards its
        parent and :data:`RX_LANE` for a child's lanes towards it.  Lanes
        come and go at the end of the list, so both ends keep the same
        indices.
        """
        slotframe = self.node.tsch.get_slotframe(self.SLOTFRAME_HANDLE)
        if slotframe is None:
            return
        options, label = kind
        count = max(0, min(count, MAX_LANES))
        while len(lanes) > count:
            slotframe.remove_cell(lanes.pop())
            self.cells_relocated += 1
        while len(lanes) < count:
            slot, channel = lane_coordinates(
                owner,
                len(lanes),
                self.config.slotframe_length,
                self.config.num_channels,
                self.broadcast_slots,
            )
            lanes.append(
                slotframe.add_cell(
                    Cell(
                        slot_offset=slot,
                        channel_offset=channel,
                        options=options,
                        neighbor=neighbor,
                        purpose=CellPurpose.UNICAST_DATA,
                        label=label,
                    )
                )
            )
            self.cells_relocated += 1

    def _set_tx_lanes(self, parent: int, count: int) -> None:
        self._set_lanes(self._tx_lanes, self.node.node_id, parent, count, TX_LANE)

    def _set_child_lanes(self, child: int, count: int) -> None:
        lanes = self._rx_lanes.setdefault(child, [])
        self._set_lanes(lanes, child, child, count, RX_LANE)
        if not lanes:
            del self._rx_lanes[child]

    # ------------------------------------------------------------------
    # RPL events
    # ------------------------------------------------------------------
    def on_parent_changed(self, old_parent: Optional[int], new_parent: Optional[int]) -> None:
        self._set_tx_lanes(old_parent if old_parent is not None else 0, 0)
        if new_parent is not None:
            # One default lane immediately; the parent mirrors the same
            # default in ``on_child_added``, so lane 0 works before any EB.
            self._set_tx_lanes(new_parent, 1)

    def on_child_added(self, child: int) -> None:
        if child not in self._rx_lanes:
            self._set_child_lanes(child, 1)

    def on_child_removed(self, child: int) -> None:
        self._set_child_lanes(child, 0)

    # ------------------------------------------------------------------
    # EB piggybacking replaces OTF's 6top lane signalling
    # ------------------------------------------------------------------
    def eb_fields(self) -> dict[str, Any]:
        parent = self.node.rpl.preferred_parent
        if parent is None:
            return {}
        return {"otf_parent": parent, "otf_lanes": len(self._tx_lanes)}

    def on_eb_received(self, packet: Packet) -> None:
        payload = packet.payload or {}
        advertised_parent = payload.get("otf_parent")
        if advertised_parent != self.node.node_id:
            # A former child that re-parented elsewhere stops needing its Rx
            # lanes here; without DAO-based child tracking the EB is the only
            # signal that they went stale.
            if advertised_parent is not None and packet.link_source in self._rx_lanes:
                self._set_child_lanes(packet.link_source, 0)
            return
        lanes = payload.get("otf_lanes")
        if isinstance(lanes, int) and lanes >= 1:
            self._set_child_lanes(packet.link_source, lanes)

    # ------------------------------------------------------------------
    # bandwidth estimation
    # ------------------------------------------------------------------
    def on_packet_enqueued(self, packet: Packet) -> None:
        if packet.ptype is PacketType.DATA and packet.source == self.node.node_id:
            self._packets_generated += 1

    def _allocation_tick(self) -> None:
        node = self.node
        generated = self._packets_generated
        self._packets_generated = 0
        parent = node.rpl.preferred_parent
        if parent is None or node.is_root:
            return
        # Cells per slotframe needed to drain the locally generated traffic
        # observed over the last period (same unit conversion as GT-TSCH's
        # generation term, inlined to keep this package core-import-free).
        slotframe_s = self.config.slotframe_length * node.config.tsch.slot_duration_s
        generation_lanes = math.ceil(
            generated * slotframe_s / self.config.allocation_period_s
        )
        # Forwarding demand: whatever the children may push in, we must be
        # able to push out.
        forwarding_lanes = sum(len(lanes) for lanes in self._rx_lanes.values())
        # Queue pressure: a backlog right now means the estimate is lagging
        # behind reality, so reserve one extra lane to drain it.
        pressure_lane = 1 if node.tsch.data_queue_length() > 0 else 0
        required = max(1, generation_lanes + forwarding_lanes + pressure_lane)
        required = min(required, MAX_LANES)
        current = len(self._tx_lanes)
        if required > current or required < current - HYSTERESIS_LANES:
            self._set_tx_lanes(parent, required)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def relocation_count(self) -> int:
        return self.cells_relocated

    def tx_lane_count(self) -> int:
        return len(self._tx_lanes)

    def rx_lane_count(self, child: int) -> int:
        return len(self._rx_lanes.get(child, ()))


@register_scheduler(OtfScheduler.name)
def _build_otf(contiki: Any) -> Any:
    """Registry builder: fresh per-node config, like every first-party SF."""
    return lambda node_id, is_root: OtfScheduler(otf_config_from(contiki))
