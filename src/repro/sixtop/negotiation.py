"""The 6P negotiation client: transaction mechanics shared by negotiating SFs.

RFC 8480 splits cell negotiation into 6top transaction mechanics and
scheduling-function (SF) policy.  :class:`NegotiationClient` is the
mechanics half for a node that negotiates cells with its preferred parent
and answers its own children.  It

* holds the initiator's request queue and pumps it: one request at a time
  towards the parent, with the shared cells towards that parent kept quiet
  (no data transmissions) while the transaction is open, so the response
  has a way back -- the quiet-neighbour bracket;
* installs the TX cells an ADD response grants, skipping offsets the node
  committed to something else meanwhile, and removes the ones a DELETE
  response names;
* answers a child's ADD by installing RX cells into a per-child book, and
  answers its DELETE;
* keeps the books (TX cells towards parents per 6P purpose, RX cells per
  child) and the 6P churn counters.

The scheduler owns the client as a plain object and keeps the policy: which
offsets an ADD proposes, what a request carries, which offsets and channel
to grant a child, and what to reset when a transaction fails.  The client
reaches the policy through the hooks of :class:`NegotiationPolicy`, which
the scheduler itself implements.  No hook is named ``on_*``: those names are
the scheduler's protocol-event callbacks, which perfbench counts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Protocol

from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.sixtop.messages import CellDescriptor, SixPCommand, SixPMessage, SixPReturnCode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node

#: Response fields of a 6P answer, as :class:`~repro.sixtop.layer.SixPLayer` reads them.
Answer = tuple[SixPReturnCode, dict[str, Any]]


class SixPRequest(NamedTuple):
    """A request waiting in the queue (one transaction per peer at a time)."""

    command: SixPCommand
    num_cells: int = 0
    #: Cells a DELETE names; an ADD proposes the policy's candidate offsets instead.
    cell_list: tuple[CellDescriptor, ...] = ()
    #: 6P purpose of the cells: ``"6p"`` (Unicast-6P) or ``"data"``.
    purpose: str = "data"


class NegotiationPolicy(Protocol):
    """The hooks a scheduler supplies to its :class:`NegotiationClient`."""

    def candidate_offsets(self) -> Iterable[int]:
        """Slot offsets an ADD request proposes (free on this node's side)."""

    def request_metadata(self, request: SixPRequest) -> dict[str, Any]:
        """The metadata a queued request carries when it is sent."""

    def transaction_settled(self, request: SixPMessage, granted: Optional[SixPMessage]) -> None:
        """A transaction concluded, after the client applied its cells.

        ``granted`` is the successful response, or None when the request
        timed out or was refused: reset what should be retried.  Commands
        other than ADD and DELETE (GT-TSCH's ASK-CHANNEL) are the policy's
        to apply.
        """


def proposed_offsets(message: SixPMessage) -> Optional[set[int]]:
    """Offsets an ADD request proposes, or None when its cell list is empty.

    RFC 8480: the responder grants only offsets the requester declared free.
    """
    if not message.cell_list:
        return None
    return {descriptor.slot_offset for descriptor in message.cell_list}


class NegotiationClient:
    """One node's 6P transactions with its parent and its children."""

    #: Set by the scheduler's ``start``, once it is attached to its node.
    node: Node

    __slots__ = (
        "policy",
        "handle",
        "labels",
        "node",
        "queue",
        "tx",
        "rx_by_child",
        "cells_relocated",
        "add_requests_sent",
        "delete_requests_sent",
    )

    def __init__(
        self, policy: NegotiationPolicy, handle: int, labels: dict[str, tuple[str, str]]
    ) -> None:
        self.policy = policy
        #: Handle of the slotframe that holds the negotiated cells.
        self.handle = handle
        #: ``purpose -> (TX label, RX label)`` of the negotiated cells.
        self.labels = labels
        self.queue: list[SixPRequest] = []
        #: Granted TX cells towards parents, per 6P purpose, in install order.
        self.tx: dict[str, list[Cell]] = {purpose: [] for purpose in labels}
        #: RX cells granted to each child, in grant order.
        self.rx_by_child: dict[int, list[Cell]] = {}
        #: 6P-driven schedule churn: every cell installed or removed as the
        #: outcome of a 6P transaction, on either side.
        self.cells_relocated = 0
        self.add_requests_sent = 0
        self.delete_requests_sent = 0

    # ------------------------------------------------------------------
    # initiator side (this node's role as a child)
    # ------------------------------------------------------------------
    def replace_add(self, num_cells: int, purpose: str = "data") -> None:
        """Queue an ADD, dropping any stale queued ADD of the same purpose.

        Slow 6P rounds then cannot pile up outdated requests.
        """
        self.queue = [
            request
            for request in self.queue
            if not (request.command is SixPCommand.ADD and request.purpose == purpose)
        ]
        self.queue.append(SixPRequest(SixPCommand.ADD, num_cells, purpose=purpose))

    def pump(self) -> None:
        """Send the next queued request if none is in flight towards the parent."""
        node = self.node
        parent = node.rpl.preferred_parent
        if parent is None or not self.queue:
            return
        if node.sixtop.pending_request(parent) is not None:
            return
        request = self.queue.pop(0)
        # While the transaction is open, keep the shared cells towards the
        # parent available for the response (no data transmissions there).
        node.tsch.add_quiet_neighbor(parent)
        metadata = self.policy.request_metadata(request)
        cell_list: Iterable[CellDescriptor] = request.cell_list
        if request.command is SixPCommand.ADD:
            self.add_requests_sent += 1
            # Propose offsets free on our side so the parent never grants a
            # timeslot we already use.
            cell_list = [CellDescriptor(offset, 0) for offset in self.policy.candidate_offsets()]
        elif request.command is SixPCommand.DELETE:
            self.delete_requests_sent += 1
        node.sixtop.send_request(
            parent,
            request.command,
            num_cells=request.num_cells,
            cell_list=cell_list,
            metadata=metadata,
            callback=self._settle,
        )

    def _settle(self, peer: int, request: SixPMessage, response: Optional[SixPMessage]) -> None:
        """Apply a concluded transaction (``response`` None: timed out)."""
        self.node.tsch.discard_quiet_neighbor(peer)
        granted = response
        if granted is not None and granted.return_code is not SixPReturnCode.SUCCESS:
            granted = None
        if granted is not None:
            purpose = request.metadata.get("purpose", "data")
            if request.command is SixPCommand.ADD:
                self._install_granted(peer, purpose, granted)
            elif request.command is SixPCommand.DELETE:
                self._remove_deleted(purpose, granted)
        self.policy.transaction_settled(request, granted)
        self.pump()

    def _install_granted(self, peer: int, purpose: str, response: SixPMessage) -> None:
        slotframe = self.node.tsch.get_slotframe(self.handle)
        book = self.tx[purpose]
        cell_purpose = CellPurpose.UNICAST_6P if purpose == "6p" else CellPurpose.UNICAST_DATA
        label = self.labels[purpose][0]
        for descriptor in response.cell_list:
            if slotframe.cells_at_offset(descriptor.slot_offset):
                # Between our request and the parent's response we committed
                # this offset to something else (typically an RX grant to one
                # of our own children).  Skip it: the parent's RX cell becomes
                # an orphan.  GT-TSCH's ``owned`` count frees surplus RX cells
                # by count; MSF's low-usage DELETE names only the child's own
                # highest TX offset, so an MSF parent keeps the orphan for as
                # long as the child stays.
                continue
            book.append(
                slotframe.add_cell(
                    Cell(
                        slot_offset=descriptor.slot_offset,
                        channel_offset=descriptor.channel_offset,
                        options=CellOption.TX,
                        neighbor=peer,
                        purpose=cell_purpose,
                        label=label,
                    )
                )
            )
            self.cells_relocated += 1

    def _remove_deleted(self, purpose: str, response: SixPMessage) -> None:
        book = self.tx[purpose]
        removed = {descriptor.slot_offset for descriptor in response.cell_list}
        self._remove(book, [cell for cell in book if cell.slot_offset in removed])

    def _remove(self, book: list[Cell], cells: list[Cell]) -> None:
        """Remove ``cells`` from the schedule and from ``book``, in order."""
        slotframe = self.node.tsch.get_slotframe(self.handle)
        for cell in cells:
            slotframe.remove_cell(cell)
            book.remove(cell)
            self.cells_relocated += 1

    def switch_parent(self, old_parent: Optional[int], keep: Callable[[Cell], bool]) -> None:
        """Start over after a parent switch.

        Removes every cell towards ``old_parent`` and ends its quiet-neighbour
        bracket, keeps only the TX book entries ``keep`` accepts, and empties
        the request queue.
        """
        if old_parent is not None:
            self.node.tsch.get_slotframe(self.handle).remove_cells_with_neighbor(old_parent)
            self.node.tsch.discard_quiet_neighbor(old_parent)
        for purpose, cells in self.tx.items():
            self.tx[purpose] = [cell for cell in cells if keep(cell)]
        self.queue.clear()

    # ------------------------------------------------------------------
    # responder side (this node's role as a parent)
    # ------------------------------------------------------------------
    def answer_add(self, peer: int, purpose: str, offsets: list[int], channel: int) -> Answer:
        """Grant ``offsets`` on ``channel`` to ``peer`` as RX cells."""
        if not offsets:
            return SixPReturnCode.ERR_NORES, {}
        slotframe = self.node.tsch.get_slotframe(self.handle)
        book = self.rx_by_child.setdefault(peer, [])
        cell_purpose = CellPurpose.UNICAST_6P if purpose == "6p" else CellPurpose.UNICAST_DATA
        label = self.labels[purpose][1]
        granted: list[CellDescriptor] = []
        for offset in offsets:
            book.append(
                slotframe.add_cell(
                    Cell(
                        slot_offset=offset,
                        channel_offset=channel,
                        options=CellOption.RX | CellOption.ALWAYS_ON,
                        neighbor=peer,
                        purpose=cell_purpose,
                        label=label,
                    )
                )
            )
            granted.append(CellDescriptor(offset, channel))
        self.cells_relocated += len(granted)
        return SixPReturnCode.SUCCESS, {
            "cell_list": granted,
            "num_cells": len(granted),
            "metadata": {"purpose": purpose},
        }

    def answer_delete(self, peer: int, message: SixPMessage) -> Answer:
        """Remove the RX cells a DELETE names (its last ``num_cells`` if it names none)."""
        book = self.rx_by_child.get(peer, [])
        requested = {descriptor.slot_offset for descriptor in message.cell_list}
        if not requested and message.num_cells > 0:
            requested = {cell.slot_offset for cell in book[-message.num_cells:]}
        victims = [cell for cell in book if cell.slot_offset in requested]
        self._remove(book, victims)
        removed = [CellDescriptor(cell.slot_offset, cell.channel_offset) for cell in victims]
        return SixPReturnCode.SUCCESS, {"cell_list": removed, "num_cells": len(removed)}

    def revoke(self, child: int, cells: list[Cell]) -> None:
        """Remove some of the RX cells granted to ``child``."""
        self._remove(self.rx_by_child[child], cells)

    def release_child(self, child: int) -> int:
        """Remove every RX cell granted to a departed child; returns how many.

        Not counted as churn: the caller decides.
        """
        cells = self.rx_by_child.pop(child, [])
        slotframe = self.node.tsch.get_slotframe(self.handle)
        for cell in cells:
            slotframe.remove_cell(cell)
        return len(cells)
