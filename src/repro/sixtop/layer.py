"""Per-node 6P transaction layer.

RFC 8480 defines 6P as a sequence of two-step transactions between
neighbours: the initiator sends a request, the responder answers with a
response carrying a return code and (for ADD/DELETE) the list of cells it
actually granted.  Each direction of each neighbour pair maintains a sequence
number; a transaction that receives no response within the timeout is aborted
and reported to the scheduling function so it can retry.

The layer is transport-agnostic: it hands fully-formed packets to a send
callback (the node enqueues them on the MAC) and is fed received 6P packets by
the node.  Which cells to grant is the scheduling function's decision -- the
layer only runs the transaction bookkeeping.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Optional

from repro.net.packet import Packet
from repro.sim.events import Event, EventQueue
from repro.sixtop.messages import (
    SixPCommand,
    SixPMessage,
    SixPMessageType,
    SixPReturnCode,
    make_sixp_packet,
)

#: Callback signature a scheduling function registers to answer requests:
#: ``handler(peer, message) -> (return_code, response_fields)`` where
#: ``response_fields`` is a dict understood by :class:`SixPMessage`.
RequestHandler = Callable[[int, SixPMessage], tuple[SixPReturnCode, dict[str, Any]]]

#: Callback invoked when a transaction concludes:
#: ``callback(peer, request, response_or_None)`` (``None`` = timeout).
ResponseCallback = Callable[[int, SixPMessage, Optional[SixPMessage]], None]


@dataclass
class SixPConfig:
    """6P layer configuration."""

    #: Scheduling Function Identifier advertised in messages (informational).
    sf_id: int = 1
    #: Seconds to wait for a response before aborting the transaction.
    timeout_s: float = 10.0
    #: Whether a timed-out request may be retried automatically.
    max_retries: int = 1


@dataclass
class SixPTransaction:
    """State of one in-flight request."""

    peer: int
    request: SixPMessage
    callback: Optional[ResponseCallback]
    retries_left: int
    timeout_event: Optional[Event] = None


class SixPLayer:
    """6P transaction state machine for one node."""

    def __init__(
        self,
        node_id: int,
        config: SixPConfig,
        queue: EventQueue,
        send_packet: Callable[[Packet], None],
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.queue = queue
        self._send_packet = send_packet
        #: Next sequence number to use towards each peer.
        self._seqnum_out: dict[int, int] = {}
        #: Last sequence number seen from each peer (duplicate detection).
        self._seqnum_in: dict[int, int] = {}
        #: One in-flight transaction per peer (RFC 8480 allows only one).
        self._pending: dict[int, SixPTransaction] = {}
        #: Last response sent to each peer, replayed when the peer retransmits
        #: a request whose response was lost (RFC 8480 duplicate handling) --
        #: without this, a lost response desynchronises the two schedules.
        self._last_response: dict[int, SixPMessage] = {}
        #: Handler the scheduling function registers for incoming requests.
        self.request_handler: Optional[RequestHandler] = None
        #: Diagnostics.
        self.requests_sent = 0
        self.responses_sent = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # initiator side
    # ------------------------------------------------------------------
    def send_request(
        self,
        peer: int,
        command: SixPCommand,
        num_cells: int = 0,
        cell_list=None,
        metadata: Optional[dict[str, Any]] = None,
        callback: Optional[ResponseCallback] = None,
    ) -> bool:
        """Initiate a transaction towards ``peer``.

        Returns ``False`` when a transaction towards that peer is already in
        flight (the caller should retry later), ``True`` otherwise.
        """
        if peer in self._pending:
            return False
        seqnum = self._seqnum_out.get(peer, 0)
        self._seqnum_out[peer] = (seqnum + 1) % 256
        message = SixPMessage(
            message_type=SixPMessageType.REQUEST,
            command=command,
            seqnum=seqnum,
            sf_id=self.config.sf_id,
            num_cells=num_cells,
            cell_list=list(cell_list or []),
            metadata=dict(metadata or {}),
        )
        transaction = SixPTransaction(
            peer=peer,
            request=message,
            callback=callback,
            retries_left=self.config.max_retries,
        )
        self._pending[peer] = transaction
        self._transmit_request(transaction)
        return True

    def _transmit_request(self, transaction: SixPTransaction) -> None:
        packet = make_sixp_packet(
            self.node_id, transaction.peer, transaction.request, now=self.queue.now
        )
        self.requests_sent += 1
        self._send_packet(packet)
        transaction.timeout_event = self.queue.schedule_in(
            self.config.timeout_s, self._on_timeout, transaction.peer, label="6p-timeout"
        )

    def _on_timeout(self, peer: int) -> None:
        transaction = self._pending.get(peer)
        if transaction is None:
            return
        if transaction.retries_left > 0:
            transaction.retries_left -= 1
            self._transmit_request(transaction)
            return
        self.timeouts += 1
        del self._pending[peer]
        if transaction.callback is not None:
            transaction.callback(peer, transaction.request, None)

    def pending_request(self, peer: int) -> Optional[SixPMessage]:
        """The request of the transaction in flight towards ``peer``, if any."""
        transaction = self._pending.get(peer)
        return None if transaction is None else transaction.request

    # ------------------------------------------------------------------
    # packet reception (called by the node for every SIXP packet)
    # ------------------------------------------------------------------
    def process_packet(self, packet: Packet) -> None:
        message = SixPMessage.from_payload(packet.payload)
        peer = packet.link_source
        if message.message_type is SixPMessageType.REQUEST:
            self._handle_request(peer, message)
        else:
            self._handle_response(peer, message)

    def _handle_request(self, peer: int, message: SixPMessage) -> None:
        # Duplicate detection: a retransmitted request with an already-seen
        # sequence number means our response was lost -- replay the cached
        # response rather than re-applying the command (which would allocate
        # the same cells twice) or rejecting it (which would leave the peer's
        # schedule out of sync with the cells we already installed).
        last_seen = self._seqnum_in.get(peer)
        duplicate = last_seen is not None and last_seen == message.seqnum
        self._seqnum_in[peer] = message.seqnum

        if duplicate:
            cached = self._last_response.get(peer)
            if cached is not None and cached.seqnum == message.seqnum:
                packet = make_sixp_packet(self.node_id, peer, cached, now=self.queue.now)
                self.responses_sent += 1
                self._send_packet(packet)
                return
            return_code, fields = SixPReturnCode.ERR_SEQNUM, {}
        elif self.request_handler is None:
            return_code, fields = SixPReturnCode.ERR, {}
        else:
            return_code, fields = self.request_handler(peer, message)

        response = SixPMessage(
            message_type=SixPMessageType.RESPONSE,
            command=message.command,
            seqnum=message.seqnum,
            sf_id=self.config.sf_id,
            num_cells=fields.get("num_cells", 0),
            cell_list=list(fields.get("cell_list", [])),
            return_code=return_code,
            channel_offset=fields.get("channel_offset"),
            metadata=dict(fields.get("metadata", {})),
        )
        self._last_response[peer] = response
        packet = make_sixp_packet(self.node_id, peer, response, now=self.queue.now)
        self.responses_sent += 1
        self._send_packet(packet)

    def _handle_response(self, peer: int, message: SixPMessage) -> None:
        transaction = self._pending.get(peer)
        if transaction is None:
            return
        if transaction.request.seqnum != message.seqnum:
            # Stale response from an earlier (aborted) transaction.
            return
        if transaction.timeout_event is not None:
            transaction.timeout_event.cancel()
        del self._pending[peer]
        if transaction.callback is not None:
            transaction.callback(peer, transaction.request, message)
