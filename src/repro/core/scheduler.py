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
    QueueMetric,
    compute_minimum_tx_cells,
    generation_cells_per_slotframe,
)
from repro.core.slotframe_builder import GtSlotframeBuilder
from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.net.packet import Packet, PacketType
from repro.schedulers.base import SchedulingFunction
from repro.sixtop.messages import CellDescriptor, SixPCommand, SixPMessage, SixPReturnCode
from repro.sixtop.negotiation import NegotiationClient, SixPRequest, proposed_offsets

#: Options of the shared TX cells a parent keeps towards each child.
SHARED_TX_OPTIONS = CellOption.TX | CellOption.SHARED


class GtTschScheduler(SchedulingFunction):
    """GT-TSCH: game-theoretic distributed TSCH scheduling function."""

    name = "GT-TSCH"

    def __init__(self, config: Optional[GtTschConfig] = None) -> None:
        super().__init__()
        self.config = config or GtTschConfig()
        self.builder = GtSlotframeBuilder(self.config)
        self.queue_metric = QueueMetric(zeta=self.config.queue_ewma_zeta, q_max=self.config.q_max)
        #: Packets the local application generated this load-balancing round.
        self._packets_generated = 0
        self.channels: Optional[ChannelAllocator] = None

        # Channel state (Section III).
        self.parent_channel_offset: Optional[int] = None
        self.own_child_channel: Optional[int] = None
        #: Child-facing channels heard in EBs from any neighbor (cache so a
        #: parent switch can reuse an already-heard announcement).
        self._eb_channel_cache: dict[int, int] = {}

        # Cell bookkeeping.
        self._shared_up_installed = False
        self._shared_down_installed = False
        #: 6P transactions with the parent and the children.  Its books hold
        #: the negotiated Unicast-6P (``"6p"``) and Unicast-Data (``"data"``)
        #: cells, and ``cells_relocated`` counts their churn: the paper's game
        #: re-evaluates demand every load-balancing period, so sustained
        #: relocations per period measure how far the Nash equilibrium is
        #: from converging.
        self.sixp = NegotiationClient(
            self,
            self.builder.SLOTFRAME_HANDLE,
            {"6p": ("gt-tx-6p", "gt-rx-6p"), "data": ("gt-tx-data", "gt-rx-data")},
        )

        # Bootstrap.
        self._asked_channel = False
        self._requested_sixp_cells = False
        self._requested_initial_data = False
        #: Data cells requested by each child but not (yet) granted; this is
        #: the ``l^tx_{cs_i}`` term of Eq. (1) -- the demand that must be
        #: propagated up the DODAG before it can be granted downwards.
        self._child_outstanding: dict[int, int] = {}

        #: Diagnostics.
        self.last_game_request = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        node = self.node
        self.sixp.node = node
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

        self.start_rounds(self.config.load_balance_period_s, self._load_balance_tick, "gt")

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
        if self.node.is_root or self._rule1_margin() > 0:
            budget = UnicastCellAllocator(self._schedule_view()).rx_budget()
        else:
            # Most non-root nodes have spent their margin: the budget is 0
            # without building the view.
            budget = 0
        return max(0, budget - self.config.parent_budget_margin)

    def _rule1_margin(self) -> int:
        """``tx - rx - 1`` over distinct data-cell offsets, counted exactly as
        :class:`ScheduleView` counts them for ``rx_budget``."""
        tx = {cell.slot_offset for cell in self.sixp.tx["data"]}
        rx = {
            cell.slot_offset
            for cells in self.sixp.rx_by_child.values()
            for cell in cells
            if cell.purpose is CellPurpose.UNICAST_DATA
        }
        return len(tx) - len(rx) - 1

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
        self.sixp.switch_parent(old_parent, keep=lambda cell: cell.neighbor != old_parent)
        self.parent_channel_offset = None
        self._shared_up_installed = False
        self._asked_channel = self.own_child_channel is not None
        self._requested_sixp_cells = False
        self._requested_initial_data = False
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
        channel = self.own_child_channel
        slotframe = self.node.tsch.get_slotframe(self.builder.SLOTFRAME_HANDLE)
        if channel is None or slotframe is None:
            return
        for offset in self.builder.shared_cell_offsets(self.node.node_id):
            # Every 6P request re-asserts this path, so look before building.
            if slotframe.find_cell(offset, channel, child, SHARED_TX_OPTIONS) is None:
                slotframe.add_cell(
                    Cell(
                        slot_offset=offset,
                        channel_offset=channel,
                        options=SHARED_TX_OPTIONS,
                        neighbor=child,
                        purpose=CellPurpose.SHARED,
                        label="gt-shared-down-tx",
                    )
                )

    def on_child_removed(self, child: int) -> None:
        self.sixp.release_child(child)
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
        queue = self.sixp.queue
        if not self._asked_channel and self.own_child_channel is None:
            self._asked_channel = True
            queue.append(SixPRequest(SixPCommand.ASK_CHANNEL))
        if not self._requested_sixp_cells:
            self._requested_sixp_cells = True
            queue.append(
                SixPRequest(SixPCommand.ADD, self.config.sixp_cells_per_neighbor, purpose="6p")
            )
        if not self._requested_initial_data:
            self._requested_initial_data = True
            queue.append(SixPRequest(SixPCommand.ADD, self.config.initial_tx_cells))
        self.sixp.pump()

    # ------------------------------------------------------------------
    # negotiation policy (the hooks of repro.sixtop.negotiation)
    # ------------------------------------------------------------------
    def candidate_offsets(self) -> list[int]:
        # RFC 8480 semantics: propose the offsets that are free on *our* side
        # so the parent never grants a timeslot we already use (which would
        # recreate interference problem 1 of Section III).
        return self._schedule_view().free_offsets()

    def request_metadata(self, request: SixPRequest) -> dict[str, Any]:
        if request.command is SixPCommand.ASK_CHANNEL:
            return {}
        metadata: dict[str, Any] = {"purpose": request.purpose}
        if request.purpose == "data" and request.command is SixPCommand.ADD:
            # Tell the parent how many data Tx cells we actually hold towards
            # it, so it can detect and garbage-collect Rx cells whose grant
            # response we never received (schedule-consistency repair).
            metadata["owned"] = len(self.sixp.tx["data"])
        return metadata

    def transaction_settled(self, request: SixPMessage, granted: Optional[SixPMessage]) -> None:
        command = request.command
        if granted is None:
            # Timed out or refused: the next load-balancing tick re-queues
            # the bootstrap step whose flag is reset here.
            if command is SixPCommand.ASK_CHANNEL:
                self._asked_channel = False
            elif command is SixPCommand.ADD:
                purpose = request.metadata.get("purpose", "data")
                if purpose == "6p":
                    self._requested_sixp_cells = False
                elif purpose == "data" and not self.sixp.tx["data"]:
                    self._requested_initial_data = False
        elif command is SixPCommand.ASK_CHANNEL and granted.channel_offset is not None:
            self.own_child_channel = granted.channel_offset
            if self.channels is not None:
                self.channels.child_facing_offset = granted.channel_offset
            self._install_shared_cells_for_children()

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
            return self._grant(peer, message)
        if message.command is SixPCommand.DELETE:
            return self.sixp.answer_delete(peer, message)
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

    def _grant(self, peer: int, message: SixPMessage) -> tuple[SixPReturnCode, dict[str, Any]]:
        """Answer a child's ADD: its Rx offsets under the Section V rules."""
        if self.own_child_channel is None:
            return SixPReturnCode.ERR_BUSY, {}
        purpose = message.metadata.get("purpose", "data")
        count = max(1, message.num_cells)
        if purpose == "data" and "owned" in message.metadata:
            self._reconcile_child_cells(peer, int(message.metadata["owned"]))
        view = self._schedule_view()
        allowed = proposed_offsets(message)
        try:
            if purpose == "6p":
                offsets = [
                    offset
                    for offset in view.free_offsets()
                    if allowed is None or offset in allowed
                ][:count]
            else:
                offsets = UnicastCellAllocator(view).pick_rx_offsets(peer, count, allowed=allowed)
        except CellAllocationError:
            offsets = []
        if purpose == "data":
            # Eq. (1): the child's *requested* cells count towards this node's
            # own demand even when none can be granted right now; the shortfall
            # stays outstanding and is propagated upward (this node requests
            # more Tx cells from its own parent) until the child can be served.
            self._child_outstanding[peer] = max(0, count - len(offsets))
        return self.sixp.answer_add(peer, purpose, offsets, self.own_child_channel)

    def _reconcile_child_cells(self, peer: int, child_owned: int) -> None:
        """Drop Rx data cells the child does not know about.

        When a 6P ADD response is lost, this node has installed Rx cells the
        child never installed as Tx; the child's next request reports how many
        cells it actually owns, and the surplus is released here so the
        schedule does not leak listening cells (and budget) over time.
        """
        cells = [
            cell
            for cell in self.sixp.rx_by_child.get(peer, [])
            if cell.purpose is CellPurpose.UNICAST_DATA
        ]
        surplus = len(cells) - child_owned
        if surplus > 0:
            self.sixp.revoke(peer, sorted(cells, key=lambda c: c.slot_offset)[-surplus:])

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

        generated = self._packets_generated
        self._packets_generated = 0
        generation_ppm = generated * 60.0 / self.config.load_balance_period_s
        l_g = generation_cells_per_slotframe(
            generation_ppm,
            self.config.slotframe_length,
            node.config.tsch.slot_duration_s,
        )
        tx_data = self.sixp.tx["data"]
        current_tx = len(tx_data)
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
            self.sixp.replace_add(request_size)
        else:
            # Over-provisioning check: release cells we clearly no longer need.
            surplus = current_tx - required_tx - self.config.overprovision_slack
            if surplus > 0 and self.queue_metric.value < 1.0 and tx_data:
                victims = sorted(tx_data, key=lambda c: c.slot_offset)[-surplus:]
                self.sixp.queue.append(
                    SixPRequest(
                        SixPCommand.DELETE,
                        len(victims),
                        tuple(CellDescriptor(cell.slot_offset, cell.channel_offset) for cell in victims),
                    )
                )
        self.sixp.pump()

    # ------------------------------------------------------------------
    # MAC events
    # ------------------------------------------------------------------
    def on_packet_enqueued(self, packet: Packet) -> None:
        if packet.ptype is PacketType.DATA and packet.source == self.node.node_id:
            self._packets_generated += 1

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

    def _schedule_view(self) -> ScheduleView:
        """Snapshot of this node's schedule for the cell-allocation rules."""
        group_owners = [self.node.node_id]
        parent = self.node.rpl.preferred_parent
        if parent is not None:
            group_owners.append(parent)
        reserved = self.builder.reserved_offsets(group_owners)
        for cell in self.sixp.tx["6p"]:
            reserved.add(cell.slot_offset)
        rx_by_child: dict[int, set[int]] = {}
        for child, cells in self.sixp.rx_by_child.items():
            for cell in cells:
                if cell.purpose is CellPurpose.UNICAST_DATA:
                    rx_by_child.setdefault(child, set()).add(cell.slot_offset)
                else:
                    reserved.add(cell.slot_offset)
        return ScheduleView(
            slotframe_length=self.config.slotframe_length,
            reserved_offsets=reserved,
            tx_offsets={cell.slot_offset for cell in self.sixp.tx["data"]},
            rx_offsets_by_child=rx_by_child,
            is_root=self.node.is_root,
        )

    # ------------------------------------------------------------------
    # introspection (used by examples / tests)
    # ------------------------------------------------------------------
    def relocation_count(self) -> int:
        return self.sixp.cells_relocated

    def tx_data_cell_count(self) -> int:
        return len(self.sixp.tx["data"])

    def rx_data_cell_count(self) -> int:
        return sum(
            1
            for cells in self.sixp.rx_by_child.values()
            for cell in cells
            if cell.purpose is CellPurpose.UNICAST_DATA
        )
