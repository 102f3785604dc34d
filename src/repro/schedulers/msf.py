"""MSF: the Minimal Scheduling Function (RFC 9033).

The IETF's standards-track answer to the load-adaptation problem GT-TSCH's
game solves, and the adaptive baseline the paper never compares against.
MSF combines one *autonomous* cell pair derived from a SAX-style hash of the
node id (so two neighbours can talk before any negotiation) with *negotiated*
dedicated cells managed over 6P ADD/DELETE transactions, driven by
cell-usage counters against the standard ``MAX_NUMCELLS`` /
``LIM_NUMCELLSUSED_HIGH`` / ``LIM_NUMCELLSUSED_LOW`` thresholds:

* every node installs the RFC 8180 minimal shared cell (slot 0) plus an
  autonomous Rx cell at ``sax(own id)``, and an autonomous shared Tx cell
  towards its parent at ``sax(parent id)``;
* after acquiring a parent it negotiates one dedicated Tx cell (6P ADD);
* a housekeeping timer compares how often the negotiated cells were *used*
  against how many fired, and adds (usage above the high threshold) or
  deletes (below the low threshold) one cell at a time -- evaluating only
  once ``MAX_NUMCELLS`` cell opportunities have elapsed, which is the RFC's
  hysteresis against reacting to bursts.

This is the only scheduler besides GT-TSCH that negotiates over 6P.  Like
GT-TSCH it leaves the transaction mechanics to a
:class:`~repro.sixtop.negotiation.NegotiationClient` and keeps only the
policy, including the timeout/retry path: a timed-out ADD resets the
bootstrap flag and the next housekeeping tick re-queues it (self-healing,
same contract as GT-TSCH's bootstrap).

Fast-kernel compliance: there are **no per-slot hooks**.  Elapsed cell
opportunities are computed arithmetically from the time delta between
housekeeping ticks (each negotiated Tx cell fires once per slotframe), and
cell usage is counted in ``on_tx_done`` -- both event-driven, so the
slot-skipping kernel stays bit-identical to the reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.net.packet import Packet, PacketType
from repro.schedulers.autonomous import AutonomousCells, add_shared_cells, sax_hash
from repro.schedulers.base import SchedulingFunction
from repro.schedulers.registry import register_scheduler
from repro.sixtop.messages import CellDescriptor, SixPCommand, SixPMessage, SixPReturnCode
from repro.sixtop.negotiation import NegotiationClient, SixPRequest, proposed_offsets

#: RFC 9033 Section 5.3 defaults: evaluate the usage ratio every
#: ``MAX_NUMCELLS`` elapsed cell opportunities; add a cell above the high
#: threshold (75%), delete one below the low threshold (25%).
MAX_NUMCELLS = 16
LIM_NUMCELLSUSED_HIGH = 12
LIM_NUMCELLSUSED_LOW = 4
#: Upper bound on negotiated Tx cells towards the parent.
MAX_NEGOTIATED_TX = 8


@dataclass(frozen=True)
class MsfConfig:
    """MSF knobs.  Frozen and slotted: it enters the scenario fingerprint.

    No field defaults (the ``__slots__``/default clash rules out class-level
    defaults on Python 3.9): construct via :func:`msf_config_from` -- the
    registry builder -- or supply every field explicitly.
    """

    __slots__ = ("slotframe_length", "num_channels", "housekeeping_period_s")

    slotframe_length: int
    num_channels: int
    housekeeping_period_s: float

    def __post_init__(self) -> None:
        if self.slotframe_length < 2:
            raise ValueError("slotframe_length must be at least 2")
        if self.num_channels < 2:
            raise ValueError("MSF needs at least 2 channel offsets")
        if self.housekeeping_period_s <= 0:
            raise ValueError("housekeeping_period_s must be positive")


def msf_config_from(contiki: Any) -> MsfConfig:
    """Derive an :class:`MsfConfig` from the experiment-wide protocol config.

    ``contiki`` is duck-typed (any object with ``gt_slotframe_length``,
    ``hopping_sequence`` and ``load_balance_period_s``); the slotframe
    follows the GT-TSCH length so the Fig. 10 fairness sweep scales every
    negotiating scheduler together, and housekeeping runs at the shared
    load-balancing cadence rather than RFC 9033's 60 s default, which would
    never fire inside the paper's measurement windows.
    """
    return MsfConfig(
        slotframe_length=contiki.gt_slotframe_length,
        num_channels=len(contiki.hopping_sequence),
        housekeeping_period_s=contiki.load_balance_period_s,
    )


class MsfScheduler(SchedulingFunction):
    """RFC 9033 Minimal Scheduling Function over autonomous + negotiated cells."""

    name = "MSF"

    SLOTFRAME_HANDLE = 0

    __slots__ = (
        "config",
        "sixp",
        "autonomous",
        "_requested_initial",
        "_num_cells_elapsed",
        "_num_cells_used",
        "_last_tick_now",
    )

    def __init__(self, config: MsfConfig) -> None:
        super().__init__()
        self.config = config
        #: 6P transactions with the parent and the children; its ``"data"``
        #: book holds the negotiated dedicated Tx cells towards the parent.
        self.sixp = NegotiationClient(
            self, self.SLOTFRAME_HANDLE, {"data": ("msf-negotiated-tx", "msf-negotiated-rx")}
        )
        #: Autonomous cells at SAX coordinates (RFC 9033 Section 3): the own
        #: Rx cell, and shared Tx cells towards the parent and the children,
        #: which carry 6P responses and any downward traffic.
        self.autonomous = AutonomousCells(
            self.SLOTFRAME_HANDLE,
            self._autonomous_cell,
            ("msf-autonomous-rx", "msf-autonomous-tx", "msf-autonomous-tx-child"),
        )
        self._requested_initial = False
        #: RFC 9033 usage counters (evaluated by the housekeeping tick).
        self._num_cells_elapsed = 0
        self._num_cells_used = 0
        self._last_tick_now = 0.0

    # ------------------------------------------------------------------
    # autonomous cell coordinates (SAX hash, RFC 9033 Section 3)
    # ------------------------------------------------------------------
    def _autonomous_cell(self, owner: int) -> tuple:
        """(slot, channel) of the autonomous cell derived from ``owner``'s id.

        Slot 0 is reserved for the minimal shared cell and channel 0 for
        broadcast, so both coordinates are mapped into ``[1, ...)``.
        """
        h = sax_hash(owner)
        slot = 1 + h % (self.config.slotframe_length - 1)
        channel = 1 + (h >> 16) % (self.config.num_channels - 1)
        return slot, channel

    def _pair_channel(self, child: int) -> int:
        """Channel offset of cells this node grants to ``child`` (Rx side)."""
        h = sax_hash(((self.node.node_id & 0xFFFF) << 16) ^ (child & 0xFFFFFFFF))
        return 1 + h % (self.config.num_channels - 1)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        node = self.node
        self.sixp.node = node
        slotframe = node.tsch.add_slotframe(
            self.SLOTFRAME_HANDLE, self.config.slotframe_length
        )
        # RFC 8180 minimal shared cell: EBs, DIOs and -- because 6P messages
        # are control traffic -- the 6P bootstrap path before any autonomous
        # or negotiated cell towards the peer exists.
        add_shared_cells(slotframe, (0,), 0, "msf-shared")
        # Autonomous Rx cell at this node's own SAX coordinates: any
        # neighbour can reach us here without negotiation.
        self.autonomous.listen(node)

        self._last_tick_now = node.event_queue.now
        self.start_rounds(self.config.housekeeping_period_s, self._housekeeping_tick, "msf")

    # ------------------------------------------------------------------
    # RPL events
    # ------------------------------------------------------------------
    def on_parent_changed(self, old_parent: Optional[int], new_parent: Optional[int]) -> None:
        # Drops the autonomous Tx cell and every negotiated Tx cell towards
        # the old parent; the book keeps only cells towards the new one.
        self.sixp.switch_parent(old_parent, keep=lambda cell: cell.neighbor == new_parent)
        self._requested_initial = False
        self._num_cells_elapsed = 0
        self._num_cells_used = 0
        # No cell before start(): a warm-start preset must not bootstrap.
        if self.autonomous.follow(new_parent) is not None:
            self._bootstrap_with_parent()

    def on_child_added(self, child: int) -> None:
        self.autonomous.add_child(child)

    def on_child_removed(self, child: int) -> None:
        if self.node.tsch.get_slotframe(self.SLOTFRAME_HANDLE) is None:
            return
        self.autonomous.remove_child(child)
        self.sixp.cells_relocated += self.sixp.release_child(child)

    # ------------------------------------------------------------------
    # 6P initiator side (this node's role as a child)
    # ------------------------------------------------------------------
    def _bootstrap_with_parent(self) -> None:
        """Queue the first negotiated Tx cell (RFC 9033 Section 5.1).

        A timeout resets ``_requested_initial`` and the next housekeeping
        tick lands back here, so the bootstrap self-heals exactly like
        GT-TSCH's.
        """
        if not self._requested_initial and not self.sixp.tx["data"]:
            self._requested_initial = True
            self.sixp.replace_add(1)
        self.sixp.pump()

    # ------------------------------------------------------------------
    # negotiation policy (the hooks of repro.sixtop.negotiation)
    # ------------------------------------------------------------------
    def candidate_offsets(self) -> list[int]:
        """Slot offsets with no cell of ours (slot 0 is the shared cell).

        An ADD proposes them, and a grant to a child picks from them.
        """
        slotframe = self.node.tsch.get_slotframe(self.SLOTFRAME_HANDLE)
        occupied = {cell.slot_offset for cell in slotframe.all_cells()}
        return [
            offset
            for offset in range(1, self.config.slotframe_length)
            if offset not in occupied
        ]

    def request_metadata(self, request: SixPRequest) -> dict[str, Any]:
        return {"purpose": request.purpose}

    def transaction_settled(self, request: SixPMessage, granted: Optional[SixPMessage]) -> None:
        # A timed-out or refused first ADD retries from the next housekeeping
        # tick (via the reset bootstrap flag).
        if granted is None and request.command is SixPCommand.ADD and not self.sixp.tx["data"]:
            self._requested_initial = False

    # ------------------------------------------------------------------
    # 6P responder side (this node's role as a parent)
    # ------------------------------------------------------------------
    def on_sixp_request(
        self, peer: int, message: SixPMessage
    ) -> tuple[SixPReturnCode, dict[str, Any]]:
        # The request proves the peer routes through us; make sure the
        # response has a way back even before its DAO is processed.
        self.autonomous.add_child(peer)
        if message.command is SixPCommand.ADD:
            allowed = proposed_offsets(message)
            offsets = [
                offset
                for offset in self.candidate_offsets()
                if allowed is None or offset in allowed
            ][: max(1, message.num_cells)]
            return self.sixp.answer_add(peer, "data", offsets, self._pair_channel(peer))
        if message.command is SixPCommand.DELETE:
            return self.sixp.answer_delete(peer, message)
        return SixPReturnCode.ERR, {}

    # ------------------------------------------------------------------
    # cell-usage adaptation (RFC 9033 Section 5.1)
    # ------------------------------------------------------------------
    def on_tx_done(self, packet: Packet, success: bool) -> None:
        parent = self.node.rpl.preferred_parent
        if (
            parent is not None
            and packet.ptype is PacketType.DATA
            and packet.link_destination == parent
        ):
            self._num_cells_used += 1

    def _housekeeping_tick(self) -> None:
        node = self.node
        now = node.event_queue.now
        delta_s = now - self._last_tick_now
        self._last_tick_now = now
        parent = node.rpl.preferred_parent
        if parent is None or node.is_root:
            self._num_cells_elapsed = 0
            self._num_cells_used = 0
            return
        # Self-healing bootstrap: a timed-out initial ADD reset its flag.
        self._bootstrap_with_parent()

        # Elapsed negotiated-cell opportunities, computed arithmetically from
        # the tick interval (each cell fires once per slotframe) -- never by
        # counting slots, which the fast kernel skips.
        slot_s = node.config.tsch.slot_duration_s
        elapsed_frames = int(delta_s / (slot_s * self.config.slotframe_length))
        negotiated = self.sixp.tx["data"]
        self._num_cells_elapsed += elapsed_frames * max(1, len(negotiated))
        if self._num_cells_elapsed < MAX_NUMCELLS:
            return
        used = self._num_cells_used
        self._num_cells_elapsed = 0
        self._num_cells_used = 0
        if used >= LIM_NUMCELLSUSED_HIGH and len(negotiated) < MAX_NEGOTIATED_TX:
            self.sixp.replace_add(1)
        elif used <= LIM_NUMCELLSUSED_LOW and len(negotiated) > 1:
            victim = max(negotiated, key=lambda cell: cell.slot_offset)
            self.sixp.queue.append(
                SixPRequest(
                    SixPCommand.DELETE,
                    1,
                    (CellDescriptor(victim.slot_offset, victim.channel_offset),),
                )
            )
        self.sixp.pump()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def relocation_count(self) -> int:
        return self.sixp.cells_relocated

    def negotiated_tx_cell_count(self) -> int:
        return len(self.sixp.tx["data"])

    def negotiated_rx_cell_count(self) -> int:
        return sum(len(cells) for cells in self.sixp.rx_by_child.values())


@register_scheduler(MsfScheduler.name)
def _build_msf(contiki: Any) -> Any:
    """Registry builder: fresh per-node config, like every first-party SF."""
    return lambda node_id, is_root: MsfScheduler(msf_config_from(contiki))
