"""The GT-TSCH scheduling function.

This module ties the paper's pieces together into a 6TiSCH scheduling
function that runs on every node of the simulated network:

* **Channel allocation** (Section III): the node learns the channel towards
  its parent from the parent's Enhanced Beacons, obtains its own child-facing
  channel with the 6P ``ASK-CHANNEL`` command, and answers its children's
  ``ASK-CHANNEL`` requests through :class:`repro.core.channel_allocation.ChannelAllocator`.
* **Slotframe creation** (Section IV): a single slotframe with uniformly
  spread broadcast timeslots, a fixed number of Unicast-6P cells per neighbor
  pair, deterministic shared timeslots and everything else asleep.
* **Unicast-Data allocation** (Section V): the parent places children's Tx
  cells with :class:`repro.core.cell_allocation.UnicastCellAllocator`,
  honouring the Tx > Rx, no-consecutive-Rx and fair-interleaving rules.
* **Load balancing** (Section VI): a periodic timer measures the node's
  generation rate, the cells requested by children and the spare capacity,
  and computes ``l^{tx-min}`` (Eq. (1)).
* **The game** (Section VII): the number of cells actually requested from the
  parent is the Nash-equilibrium strategy of Eq. (15), evaluated from the
  node's normalised Rank, the parent-link ETX, and the EWMA queue metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.cell_allocation import (
    CellAllocationError,
    ScheduleView,
    UnicastCellAllocator,
)
from repro.core.channel_allocation import ChannelAllocationError, ChannelAllocator
from repro.core.config import GtTschConfig
from repro.core.game import PlayerState, optimal_tx_cells
from repro.core.load_balancing import (
    LoadObservation,
    QueueMetric,
    compute_minimum_tx_cells,
    generation_cells_per_slotframe,
)
from repro.core.slotframe_builder import GtSlotframeBuilder
from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.net.packet import Packet, PacketType
from repro.schedulers.base import SchedulingFunction
from repro.sim.events import PeriodicTimer
from repro.sixtop.messages import CellDescriptor, SixPCommand, SixPMessage, SixPReturnCode


@dataclass
class _PendingRequest:
    """A 6P request waiting for its turn (one transaction per peer at a time)."""

    command: SixPCommand
    num_cells: int = 0
    cell_list: list[CellDescriptor] = field(default_factory=list)
    purpose: str = "data"


class GtTschScheduler(SchedulingFunction):
    """GT-TSCH: game-theoretic distributed TSCH scheduling function."""

    name = "GT-TSCH"
    sf_id = 0x0A

    def __init__(self, config: Optional[GtTschConfig] = None) -> None:
        super().__init__()
        self.config = config or GtTschConfig()
        self.builder = GtSlotframeBuilder(self.config)
        self.queue_metric = QueueMetric(zeta=self.config.queue_ewma_zeta, q_max=self.config.q_max)
        self.observation = LoadObservation()
        self.channels: Optional[ChannelAllocator] = None

        # Channel state (Section III).
        self.parent_channel_offset: Optional[int] = None
        self.own_child_channel: Optional[int] = None
        #: Child-facing channels heard in EBs from any neighbor (cache so a
        #: parent switch can reuse an already-heard announcement).
        self._eb_channel_cache: dict[int, int] = {}

        # Cell bookkeeping.
        self._tx_data_cells: list[Cell] = []
        self._tx_sixp_cells: list[Cell] = []
        self._rx_cells_by_child: dict[int, list[Cell]] = {}
        self._shared_up_installed = False
        self._shared_down_installed = False

        # Bootstrap / request management.
        self._request_queue: list[_PendingRequest] = []
        self._asked_channel = False
        self._requested_sixp_cells = False
        self._requested_initial_data = False
        self._load_timer: Optional[PeriodicTimer] = None
        #: Data cells requested by each child but not (yet) granted; this is
        #: the ``l^tx_{cs_i}`` term of Eq. (1) -- the demand that must be
        #: propagated up the DODAG before it can be granted downwards.
        self._child_outstanding: dict[int, int] = {}

        #: Diagnostics.
        self.add_requests_sent = 0
        self.delete_requests_sent = 0
        self.cells_granted_to_children = 0
        self.last_game_request = 0
        #: 6P-driven schedule churn: every cell this node installed or
        #: removed as the outcome of a 6P transaction (ADD grants applied on
        #: either side, DELETE removals, consistency-repair GC).  The paper's
        #: game re-evaluates demand every load-balancing period, so sustained
        #: relocations per period measure how far the Nash equilibrium is
        #: from converging (ROADMAP: GT-TSCH convergence investigation).
        self.cells_relocated = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        node = self.node
        self.channels = ChannelAllocator(
            num_channels=min(self.config.num_channels, node.tsch.hopping.num_channels),
            broadcast_offset=self.config.broadcast_channel_offset,
        )
        self.builder.build(node.tsch)

        if node.is_root:
            rng = node.rng_registry.stream(f"gt.channel.{node.node_id}")
            self.own_child_channel = self.channels.pick_own_child_channel(rng)
            self._install_shared_cells_for_children()
        else:
            # Every non-root node opens its child-group shared cells as soon
            # as it owns a child-facing channel (after ASK-CHANNEL succeeds);
            # nothing to do yet.
            pass

        period = self.config.load_balance_period_s
        timer_rng = node.rng_registry.stream(f"gt.timer.{node.node_id}")
        queue = node.event_queue
        self._load_timer = PeriodicTimer(
            queue,
            period,
            self._load_balance_tick,
            start_offset=timer_rng.random() * period,
            label=f"gt-load-balance.{node.node_id}",
            jitter=0.1,
            rng=timer_rng,
            wheel=queue.wheel("gt-load"),
        )
        self._load_timer.start()

    def stop(self) -> None:
        """Cancel the load-balancing timer (node crash teardown)."""
        if self._load_timer is not None:
            self._load_timer.stop()

    # ------------------------------------------------------------------
    # control-plane piggybacking (Section III / VII)
    # ------------------------------------------------------------------
    def eb_fields(self) -> dict[str, Any]:
        """Advertise this node's child-facing channel on its EBs."""
        if self.own_child_channel is None:
            return {}
        return {"child_channel": self.own_child_channel}

    def dio_fields(self) -> dict[str, Any]:
        """Advertise ``l^rx`` (the Rx cells offered to children) on DIOs."""
        return {"l_rx": self.advertised_rx_budget()}

    def advertised_rx_budget(self) -> int:
        """How many additional Rx cells this node is willing to grant.

        The budget is the cell-allocation rule-1 margin minus a safety
        margin, so that a child requesting the full advertisement can always
        be satisfied even if another child asked first within the same DIO
        interval.
        """
        budget = UnicastCellAllocator(self._schedule_view()).rx_budget()
        return max(0, budget - self.config.parent_budget_margin)

    # ------------------------------------------------------------------
    # EB handling: learn the parent-facing channel (Section III)
    # ------------------------------------------------------------------
    def on_eb_received(self, packet: Packet) -> None:
        sender = packet.link_source
        channel = packet.payload.get("child_channel")
        if channel is None:
            return
        self._eb_channel_cache[sender] = channel
        if sender == self.node.rpl.preferred_parent:
            self._learn_parent_channel(channel)

    def _learn_parent_channel(self, channel_offset: int) -> None:
        if self.parent_channel_offset == channel_offset and self._shared_up_installed:
            return
        parent = self.node.rpl.preferred_parent
        if parent is None:
            return
        self.parent_channel_offset = channel_offset
        if self.channels is not None:
            self.channels.parent_facing_offset = channel_offset
        if not self._shared_up_installed:
            self.builder.install_shared_cells_towards_parent(
                self.node.tsch, parent, channel_offset
            )
            self._shared_up_installed = True
        self._bootstrap_with_parent()

    # ------------------------------------------------------------------
    # RPL events
    # ------------------------------------------------------------------
    def on_parent_changed(self, old_parent: Optional[int], new_parent: Optional[int]) -> None:
        if old_parent is not None:
            self._remove_cells_towards(old_parent)
            self.node.tsch.discard_quiet_neighbor(old_parent)
        self.parent_channel_offset = None
        self._shared_up_installed = False
        self._asked_channel = self.own_child_channel is not None
        self._requested_sixp_cells = False
        self._requested_initial_data = False
        self._request_queue.clear()
        if new_parent is not None and new_parent in self._eb_channel_cache:
            self._learn_parent_channel(self._eb_channel_cache[new_parent])

    def on_child_added(self, child: int) -> None:
        """A DAO announced a new child: open a contention path towards it.

        The parent installs shared Tx cells towards the child on its own
        group's shared timeslots so 6P responses (and any downward traffic)
        have a way out before/besides dedicated cells.
        """
        self._install_shared_tx_towards_child(child)

    def _install_shared_tx_towards_child(self, child: int) -> None:
        if self.own_child_channel is None:
            return
        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        if slotframe is None:
            return
        for offset in self.builder.shared_cell_offsets(self.node.node_id):
            slotframe.add_cell(
                Cell(
                    slot_offset=offset,
                    channel_offset=self.own_child_channel,
                    options=CellOption.TX | CellOption.SHARED,
                    neighbor=child,
                    purpose=CellPurpose.SHARED,
                    label="gt-shared-down-tx",
                )
            )

    def on_child_removed(self, child: int) -> None:
        cells = self._rx_cells_by_child.pop(child, [])
        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        for cell in cells:
            slotframe.remove_cell(cell)
        if self.channels is not None:
            self.channels.release_child(child)

    # ------------------------------------------------------------------
    # bootstrap with a (new) parent
    # ------------------------------------------------------------------
    def _bootstrap_with_parent(self) -> None:
        """Queue the startup transactions towards the parent, in order.

        1. ``ASK-CHANNEL`` to obtain this node's child-facing channel;
        2. 6P ``ADD`` for the fixed number of Unicast-6P cells;
        3. 6P ``ADD`` for the initial Unicast-Data cells.
        """
        if not self._asked_channel and self.own_child_channel is None:
            self._asked_channel = True
            self._request_queue.append(_PendingRequest(command=SixPCommand.ASK_CHANNEL))
        if not self._requested_sixp_cells:
            self._requested_sixp_cells = True
            self._request_queue.append(
                _PendingRequest(
                    command=SixPCommand.ADD,
                    num_cells=self.config.sixp_cells_per_neighbor,
                    purpose="6p",
                )
            )
        if not self._requested_initial_data:
            self._requested_initial_data = True
            self._request_queue.append(
                _PendingRequest(
                    command=SixPCommand.ADD,
                    num_cells=self.config.initial_tx_cells,
                    purpose="data",
                )
            )
        self._pump_requests()

    def _pump_requests(self) -> None:
        """Send the next queued 6P request if none is in flight."""
        parent = self.node.rpl.preferred_parent
        if parent is None or not self._request_queue:
            return
        if self.node.sixtop.has_pending_transaction(parent):
            return
        request = self._request_queue.pop(0)
        # While the transaction is open, keep the shared cells towards the
        # parent available for the response (no data transmissions there).
        self.node.tsch.add_quiet_neighbor(parent)
        metadata = {"purpose": request.purpose}
        if request.purpose == "data" and request.command is SixPCommand.ADD:
            # Tell the parent how many data Tx cells we actually hold towards
            # it, so it can detect and garbage-collect Rx cells whose grant
            # response we never received (schedule-consistency repair).
            metadata["owned"] = len(self._tx_data_cells)
        if request.command is SixPCommand.ASK_CHANNEL:
            self.node.sixtop.send_request(
                parent,
                SixPCommand.ASK_CHANNEL,
                callback=self._on_ask_channel_response,
            )
        elif request.command is SixPCommand.ADD:
            self.add_requests_sent += 1
            # RFC 8480 semantics: propose the offsets that are free on *our*
            # side so the parent never grants a timeslot we already use (which
            # would recreate interference problem 1 of Section III).
            candidates = [
                CellDescriptor(offset, 0) for offset in self._schedule_view().free_offsets()
            ]
            self.node.sixtop.send_request(
                parent,
                SixPCommand.ADD,
                num_cells=request.num_cells,
                cell_list=candidates,
                metadata=metadata,
                callback=self._on_add_response,
            )
        elif request.command is SixPCommand.DELETE:
            self.delete_requests_sent += 1
            self.node.sixtop.send_request(
                parent,
                SixPCommand.DELETE,
                num_cells=request.num_cells,
                cell_list=request.cell_list,
                metadata=metadata,
                callback=self._on_delete_response,
            )

    # ------------------------------------------------------------------
    # 6P responder side (the parent's role)
    # ------------------------------------------------------------------
    def on_sixp_request(
        self, peer: int, message: SixPMessage
    ) -> tuple[SixPReturnCode, dict[str, Any]]:
        # Make sure the response has a way back to the requester even when its
        # DAO has not been processed yet (the request itself proves the peer
        # is a child of ours).
        self._install_shared_tx_towards_child(peer)
        if message.command is SixPCommand.ASK_CHANNEL:
            return self._answer_ask_channel(peer)
        if message.command is SixPCommand.ADD:
            return self._answer_add(peer, message)
        if message.command is SixPCommand.DELETE:
            return self._answer_delete(peer, message)
        return SixPReturnCode.ERR, {}

    def _answer_ask_channel(self, peer: int) -> tuple[SixPReturnCode, dict[str, Any]]:
        if self.channels is None or self.own_child_channel is None:
            # We have not obtained our own channel yet; the child will retry.
            return SixPReturnCode.ERR_BUSY, {}
        try:
            granted = self.channels.grant_child_channel(peer)
        except ChannelAllocationError:
            return SixPReturnCode.ERR_NORES, {}
        return SixPReturnCode.SUCCESS, {"channel_offset": granted}

    def _answer_add(self, peer: int, message: SixPMessage) -> tuple[SixPReturnCode, dict[str, Any]]:
        if self.own_child_channel is None:
            return SixPReturnCode.ERR_BUSY, {}
        purpose = message.metadata.get("purpose", "data")
        count = max(1, message.num_cells)
        if purpose == "data" and "owned" in message.metadata:
            self._reconcile_child_cells(peer, int(message.metadata["owned"]))
        view = self._schedule_view()
        allocator = UnicastCellAllocator(view)
        allowed = (
            {descriptor.slot_offset for descriptor in message.cell_list}
            if message.cell_list
            else None
        )
        try:
            if purpose == "6p":
                offsets = [
                    offset
                    for offset in view.free_offsets()
                    if allowed is None or offset in allowed
                ][:count]
            else:
                offsets = allocator.pick_rx_offsets(peer, count, allowed=allowed)
        except CellAllocationError:
            offsets = []
        if purpose == "data":
            # Eq. (1): the child's *requested* cells count towards this node's
            # own demand even when none can be granted right now; the shortfall
            # stays outstanding and is propagated upward (this node requests
            # more Tx cells from its own parent) until the child can be served.
            self.observation.child_requested_cells += count
            self._child_outstanding[peer] = max(0, count - len(offsets))
        if not offsets:
            return SixPReturnCode.ERR_NORES, {}

        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        cell_purpose = CellPurpose.UNICAST_6P if purpose == "6p" else CellPurpose.UNICAST_DATA
        granted: list[CellDescriptor] = []
        for offset in offsets:
            cell = slotframe.add_cell(
                Cell(
                    slot_offset=offset,
                    channel_offset=self.own_child_channel,
                    options=CellOption.RX | CellOption.ALWAYS_ON,
                    neighbor=peer,
                    purpose=cell_purpose,
                    label=f"gt-rx-{purpose}",
                )
            )
            self._rx_cells_by_child.setdefault(peer, []).append(cell)
            granted.append(CellDescriptor(offset, self.own_child_channel))
        self.cells_granted_to_children += len(granted)
        self.cells_relocated += len(granted)
        return SixPReturnCode.SUCCESS, {
            "cell_list": granted,
            "num_cells": len(granted),
            "metadata": {"purpose": purpose},
        }

    def _reconcile_child_cells(self, peer: int, child_owned: int) -> None:
        """Drop Rx data cells the child does not know about.

        When a 6P ADD response is lost, this node has installed Rx cells the
        child never installed as Tx; the child's next request reports how many
        cells it actually owns, and the surplus is released here so the
        schedule does not leak listening cells (and budget) over time.
        """
        cells = [
            cell
            for cell in self._rx_cells_by_child.get(peer, [])
            if cell.purpose is CellPurpose.UNICAST_DATA
        ]
        surplus = len(cells) - child_owned
        if surplus <= 0:
            return
        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        for cell in sorted(cells, key=lambda c: c.slot_offset)[-surplus:]:
            slotframe.remove_cell(cell)
            self._rx_cells_by_child[peer].remove(cell)
            self.cells_relocated += 1

    def _answer_delete(
        self, peer: int, message: SixPMessage
    ) -> tuple[SixPReturnCode, dict[str, Any]]:
        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        my_cells = self._rx_cells_by_child.get(peer, [])
        requested = {descriptor.slot_offset for descriptor in message.cell_list}
        if not requested and message.num_cells > 0:
            requested = {cell.slot_offset for cell in my_cells[-message.num_cells:]}
        removed: list[CellDescriptor] = []
        for cell in list(my_cells):
            if cell.slot_offset in requested:
                slotframe.remove_cell(cell)
                my_cells.remove(cell)
                removed.append(CellDescriptor(cell.slot_offset, cell.channel_offset))
        self.cells_relocated += len(removed)
        return SixPReturnCode.SUCCESS, {"cell_list": removed, "num_cells": len(removed)}

    # ------------------------------------------------------------------
    # 6P initiator-side response handling (the child's role)
    # ------------------------------------------------------------------
    def _on_ask_channel_response(
        self, peer: int, request: SixPMessage, response: Optional[SixPMessage]
    ) -> None:
        self.node.tsch.discard_quiet_neighbor(peer)
        if response is None or response.return_code is not SixPReturnCode.SUCCESS:
            # Timed out or the parent was not ready: retry at the next period.
            self._asked_channel = False
        elif response.channel_offset is not None:
            self.own_child_channel = response.channel_offset
            if self.channels is not None:
                self.channels.child_facing_offset = response.channel_offset
            self._install_shared_cells_for_children()
        self._pump_requests()

    def _on_add_response(
        self, peer: int, request: SixPMessage, response: Optional[SixPMessage]
    ) -> None:
        self.node.tsch.discard_quiet_neighbor(peer)
        purpose = request.metadata.get("purpose", "data")
        if response is None or response.return_code is not SixPReturnCode.SUCCESS:
            if purpose == "6p":
                self._requested_sixp_cells = False
            elif purpose == "data" and not self._tx_data_cells:
                self._requested_initial_data = False
            self._pump_requests()
            return
        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        cell_purpose = CellPurpose.UNICAST_6P if purpose == "6p" else CellPurpose.UNICAST_DATA
        for descriptor in response.cell_list:
            if slotframe.cells_at_offset(descriptor.slot_offset):
                # Between our request and the parent's response we committed
                # this offset to something else (typically an Rx grant to one
                # of our own children).  Skip it: the parent's extra Rx cell
                # becomes an orphan that the next request's ``owned`` count
                # garbage-collects.
                continue
            cell = slotframe.add_cell(
                Cell(
                    slot_offset=descriptor.slot_offset,
                    channel_offset=descriptor.channel_offset,
                    options=CellOption.TX,
                    neighbor=peer,
                    purpose=cell_purpose,
                    label=f"gt-tx-{purpose}",
                )
            )
            if purpose == "6p":
                self._tx_sixp_cells.append(cell)
            else:
                self._tx_data_cells.append(cell)
            self.cells_relocated += 1
        self._pump_requests()

    def _on_delete_response(
        self, peer: int, request: SixPMessage, response: Optional[SixPMessage]
    ) -> None:
        self.node.tsch.discard_quiet_neighbor(peer)
        if response is None or response.return_code is not SixPReturnCode.SUCCESS:
            self._pump_requests()
            return
        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        removed_offsets = {descriptor.slot_offset for descriptor in response.cell_list}
        for cell in list(self._tx_data_cells):
            if cell.slot_offset in removed_offsets:
                slotframe.remove_cell(cell)
                self._tx_data_cells.remove(cell)
                self.cells_relocated += 1
        self._pump_requests()

    # ------------------------------------------------------------------
    # the periodic load-balancing / game round (Sections VI-VII)
    # ------------------------------------------------------------------
    def _load_balance_tick(self) -> None:
        node = self.node
        self.queue_metric.update(node.tsch.data_queue_length())
        parent = node.rpl.preferred_parent

        if parent is None or node.is_root:
            return
        if self.parent_channel_offset is None:
            # We have not heard the parent's EB yet; try the cache and wait.
            if parent in self._eb_channel_cache:
                self._learn_parent_channel(self._eb_channel_cache[parent])
            return

        # Self-healing bootstrap: a timed-out ASK-CHANNEL or 6P-cell request
        # resets its flag, and this re-queues it until it eventually succeeds.
        self._bootstrap_with_parent()

        observation = self.observation.reset()
        generation_ppm = observation.packets_generated * 60.0 / self.config.load_balance_period_s
        l_g = generation_cells_per_slotframe(
            generation_ppm,
            self.config.slotframe_length,
            node.config.tsch.slot_duration_s,
        )
        current_tx = len(self._tx_data_cells)
        current_rx = self.rx_data_cell_count()
        outstanding = sum(self._child_outstanding.values())
        # Eq. (1): the demand is the node's own generation (``l^g``) plus
        # everything its children need to push through it -- the Rx cells
        # already granted plus the child requests that could not be granted
        # yet (``l^tx_{cs}``); the spare capacity is the Tx cells already
        # owned, so the minimum request is the shortfall.
        required_tx = l_g + current_rx + outstanding
        l_tx_min = compute_minimum_tx_cells(required_tx, 0, current_tx)

        l_rx_parent = node.rpl.parent_l_rx()
        upper = max(float(l_rx_parent), float(l_tx_min))
        state = PlayerState(
            l_tx_min=float(l_tx_min),
            l_rx_parent=upper,
            rank_normalised=node.rpl.normalised_rank(),
            etx=node.tsch.etx.etx(parent),
            queue_metric=self.queue_metric.value,
            q_max=float(self.config.q_max),
        )
        request_size = int(optimal_tx_cells(state, self.config.weights))
        self.last_game_request = request_size

        if request_size > 0:
            # Replace any stale queued data-ADD with the freshly computed one
            # so slow 6P rounds do not pile up outdated requests.
            self._request_queue = [
                request
                for request in self._request_queue
                if not (request.command is SixPCommand.ADD and request.purpose == "data")
            ]
            self._request_queue.append(
                _PendingRequest(command=SixPCommand.ADD, num_cells=request_size, purpose="data")
            )
        else:
            # Over-provisioning check: release cells we clearly no longer need.
            surplus = current_tx - required_tx - self.config.overprovision_slack
            if surplus > 0 and self.queue_metric.value < 1.0 and self._tx_data_cells:
                victims = sorted(self._tx_data_cells, key=lambda c: c.slot_offset)[-surplus:]
                self._request_queue.append(
                    _PendingRequest(
                        command=SixPCommand.DELETE,
                        num_cells=len(victims),
                        cell_list=[
                            CellDescriptor(cell.slot_offset, cell.channel_offset)
                            for cell in victims
                        ],
                        purpose="data",
                    )
                )
        self._pump_requests()

    # ------------------------------------------------------------------
    # MAC events
    # ------------------------------------------------------------------
    def on_packet_enqueued(self, packet: Packet) -> None:
        if packet.ptype is PacketType.DATA and packet.source == self.node.node_id:
            self.observation.packets_generated += 1

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _install_shared_cells_for_children(self) -> None:
        if self._shared_down_installed or self.own_child_channel is None:
            return
        self.builder.install_shared_cells_for_children(
            self.node.tsch, self.node.node_id, self.own_child_channel
        )
        self._shared_down_installed = True
        # Children announced (via DAO) before we owned a child-facing channel
        # still need their contention path.
        for child in sorted(self.node.rpl.children):
            self._install_shared_tx_towards_child(child)

    def _remove_cells_towards(self, neighbor: int) -> None:
        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        if slotframe is None:
            return
        slotframe.remove_cells_with_neighbor(neighbor)
        self._tx_data_cells = [c for c in self._tx_data_cells if c.neighbor != neighbor]
        self._tx_sixp_cells = [c for c in self._tx_sixp_cells if c.neighbor != neighbor]

    def _schedule_view(self) -> ScheduleView:
        """Snapshot of this node's schedule for the cell-allocation rules."""
        group_owners = [self.node.node_id]
        parent = self.node.rpl.preferred_parent
        if parent is not None:
            group_owners.append(parent)
        reserved = set(self.builder.reserved_offsets(group_owners))
        for cell in self._tx_sixp_cells:
            reserved.add(cell.slot_offset)
        rx_by_child: dict[int, set[int]] = {}
        for child, cells in self._rx_cells_by_child.items():
            for cell in cells:
                if cell.purpose is CellPurpose.UNICAST_DATA:
                    rx_by_child.setdefault(child, set()).add(cell.slot_offset)
                else:
                    reserved.add(cell.slot_offset)
        return ScheduleView(
            slotframe_length=self.config.slotframe_length,
            reserved_offsets=reserved,
            tx_offsets={cell.slot_offset for cell in self._tx_data_cells},
            rx_offsets_by_child=rx_by_child,
            is_root=self.node.is_root,
        )

    # ------------------------------------------------------------------
    # introspection (used by examples / tests)
    # ------------------------------------------------------------------
    def relocation_count(self) -> int:
        return self.cells_relocated

    def load_balance_period_s(self) -> float:
        return self.config.load_balance_period_s

    def tx_data_cell_count(self) -> int:
        return len(self._tx_data_cells)

    def rx_data_cell_count(self) -> int:
        return sum(
            1
            for cells in self._rx_cells_by_child.values()
            for cell in cells
            if cell.purpose is CellPurpose.UNICAST_DATA
        )

    def children_with_cells(self) -> list[int]:
        return sorted(self._rx_cells_by_child)
