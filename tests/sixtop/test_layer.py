"""Tests for the 6P transaction layer."""

from repro.sim.events import EventQueue
from repro.sixtop.layer import SixPConfig, SixPLayer
from repro.sixtop.messages import (
    CellDescriptor,
    SixPCommand,
    SixPReturnCode,
    sixp_message,
)


class TwoNodeHarness:
    """Two 6P layers connected by an in-memory channel with optional loss."""

    def __init__(self, timeout_s=2.0, max_retries=1):
        self.queue = EventQueue()
        config = SixPConfig(timeout_s=timeout_s, max_retries=max_retries)
        self.outboxes = {1: [], 2: []}
        self.layers = {
            node_id: SixPLayer(
                node_id, config, self.queue, self.outboxes[node_id].append
            )
            for node_id in (1, 2)
        }
        #: Packets to silently drop: set of (sender, kind) where kind is
        #: "request" or "response".
        self.drop = set()

    def deliver_all(self):
        """Move every queued packet to its destination (unless dropped)."""
        moved = True
        while moved:
            moved = False
            for sender, outbox in self.outboxes.items():
                while outbox:
                    packet = outbox.pop(0)
                    kind = sixp_message(packet).message_type.value
                    if (sender, kind) in self.drop:
                        continue
                    self.layers[packet.link_destination].process_packet(packet)
                    moved = True


class TestTransactions:
    def test_successful_add_transaction(self):
        h = TwoNodeHarness()
        granted = [CellDescriptor(5, 3)]
        h.layers[2].request_handler = lambda peer, msg: (
            SixPReturnCode.SUCCESS,
            {"cell_list": granted, "num_cells": 1},
        )
        outcomes = []
        assert h.layers[1].send_request(
            2, SixPCommand.ADD, num_cells=1,
            callback=lambda peer, req, resp: outcomes.append((peer, resp)),
        )
        h.deliver_all()
        assert len(outcomes) == 1
        peer, response = outcomes[0]
        assert peer == 2
        assert response.return_code is SixPReturnCode.SUCCESS
        assert response.cell_list == tuple(granted)
        assert h.layers[1].pending_request(2) is None

    def test_one_transaction_per_peer(self):
        h = TwoNodeHarness()
        h.layers[2].request_handler = lambda peer, msg: (SixPReturnCode.SUCCESS, {})
        assert h.layers[1].send_request(2, SixPCommand.ADD, num_cells=1)
        assert not h.layers[1].send_request(2, SixPCommand.ADD, num_cells=1)
        h.deliver_all()
        assert h.layers[1].send_request(2, SixPCommand.ADD, num_cells=1)

    def test_request_without_handler_rejected(self):
        h = TwoNodeHarness()
        outcomes = []
        h.layers[1].send_request(
            2, SixPCommand.ADD, callback=lambda peer, req, resp: outcomes.append(resp)
        )
        h.deliver_all()
        assert outcomes[0].return_code is SixPReturnCode.ERR

    def test_handler_receives_request_fields(self):
        h = TwoNodeHarness()
        seen = []
        h.layers[2].request_handler = lambda peer, msg: (
            seen.append((peer, msg.command, msg.num_cells, list(msg.cell_list))),
            (SixPReturnCode.SUCCESS, {}),
        )[1]
        h.layers[1].send_request(
            2, SixPCommand.DELETE, num_cells=2, cell_list=[CellDescriptor(1, 1)]
        )
        h.deliver_all()
        assert seen == [(1, SixPCommand.DELETE, 2, [CellDescriptor(1, 1)])]

    def test_responder_reads_the_senders_message_object(self):
        h = TwoNodeHarness()
        seen = []
        h.layers[2].request_handler = lambda peer, msg: (
            seen.append(msg),
            (SixPReturnCode.SUCCESS, {"cell_list": [CellDescriptor(5, 3)]}),
        )[1]
        outcomes = []
        h.layers[1].send_request(
            2, SixPCommand.ADD, num_cells=1, cell_list=[CellDescriptor(5, 0)],
            metadata={"purpose": "data"},
            callback=lambda peer, req, resp: outcomes.append((req, resp)),
        )
        request = h.layers[1].pending_request(2)
        response_packets = h.outboxes[2]
        h.layers[2].process_packet(h.outboxes[1].pop(0))
        response = sixp_message(response_packets[0])
        h.deliver_all()
        assert seen == [request] and seen[0] is request
        assert request.cell_list == (CellDescriptor(5, 0),)
        assert dict(request.metadata) == {"purpose": "data"}
        assert outcomes[0][0] is request and outcomes[0][1] is response
        assert response.cell_list == (CellDescriptor(5, 3),)

    def test_sequence_numbers_increment(self):
        h = TwoNodeHarness()
        seqnums = []
        h.layers[2].request_handler = lambda peer, msg: (
            seqnums.append(msg.seqnum),
            (SixPReturnCode.SUCCESS, {}),
        )[1]
        for _ in range(3):
            h.layers[1].send_request(2, SixPCommand.ADD, num_cells=1)
            h.deliver_all()
        assert seqnums == [0, 1, 2]


class TestTimeoutsAndRetries:
    def test_timeout_reports_none(self):
        h = TwoNodeHarness(timeout_s=1.0, max_retries=0)
        outcomes = []
        h.layers[1].send_request(
            2, SixPCommand.ADD, callback=lambda peer, req, resp: outcomes.append(resp)
        )
        # Never deliver anything; let the timeout fire.
        h.queue.run_until(5.0)
        assert outcomes == [None]
        assert h.layers[1].timeouts == 1
        assert h.layers[1].pending_request(2) is None

    def test_retry_after_timeout_succeeds(self):
        h = TwoNodeHarness(timeout_s=1.0, max_retries=1)
        h.layers[2].request_handler = lambda peer, msg: (SixPReturnCode.SUCCESS, {})
        outcomes = []
        h.layers[1].send_request(
            2, SixPCommand.ADD, callback=lambda peer, req, resp: outcomes.append(resp)
        )
        # First transmission lost; the retry (after 1 s) is delivered.
        h.outboxes[1].clear()
        h.queue.run_until(1.5)
        h.deliver_all()
        assert len(outcomes) == 1
        assert outcomes[0] is not None
        assert outcomes[0].return_code is SixPReturnCode.SUCCESS

    def test_lost_response_replayed_on_duplicate_request(self):
        """RFC 8480 duplicate handling: the responder must not re-apply the
        command nor reject the retry -- it replays the cached response."""
        h = TwoNodeHarness(timeout_s=1.0, max_retries=1)
        calls = []
        h.layers[2].request_handler = lambda peer, msg: (
            calls.append(msg.seqnum),
            (SixPReturnCode.SUCCESS, {"cell_list": [CellDescriptor(7, 1)]}),
        )[1]
        outcomes = []
        h.layers[1].send_request(
            2, SixPCommand.ADD, num_cells=1,
            callback=lambda peer, req, resp: outcomes.append(resp),
        )
        # Deliver the request but lose the response.
        h.drop.add((2, "response"))
        h.deliver_all()
        h.drop.clear()
        # Let the initiator time out and retransmit the same seqnum.
        h.queue.run_until(1.5)
        h.deliver_all()
        assert len(calls) == 1, "the command must be applied exactly once"
        assert outcomes and outcomes[0].cell_list == (CellDescriptor(7, 1),)

    def test_duplicate_request_replays_the_cached_response_object(self):
        h = TwoNodeHarness(timeout_s=1.0, max_retries=1)
        h.layers[2].request_handler = lambda peer, msg: (
            SixPReturnCode.SUCCESS,
            {"cell_list": [CellDescriptor(7, 1)], "num_cells": 1},
        )
        outcomes = []
        h.layers[1].send_request(
            2, SixPCommand.ADD, num_cells=1,
            callback=lambda peer, req, resp: outcomes.append(resp),
        )
        h.layers[2].process_packet(h.outboxes[1].pop(0))
        lost = sixp_message(h.outboxes[2].pop(0))
        h.queue.run_until(1.5)  # the initiator retransmits the same seqnum
        retry = h.outboxes[1].pop(0)
        assert sixp_message(retry).seqnum == lost.seqnum
        h.layers[2].process_packet(retry)
        replayed = h.outboxes[2][0]
        assert sixp_message(replayed) is lost
        assert h.layers[2].responses_sent == 2
        h.deliver_all()
        assert outcomes == [lost]

    def test_stale_response_ignored(self):
        h = TwoNodeHarness(timeout_s=1.0, max_retries=0)
        h.layers[2].request_handler = lambda peer, msg: (SixPReturnCode.SUCCESS, {})
        outcomes = []
        h.layers[1].send_request(
            2, SixPCommand.ADD, callback=lambda peer, req, resp: outcomes.append(resp)
        )
        # Capture the in-flight response, let the transaction time out, then
        # start a new transaction and replay the stale response.
        h.deliver_all_requests_only = None
        request_packet = h.outboxes[1].pop(0)
        h.layers[2].process_packet(request_packet)
        stale_response = h.outboxes[2].pop(0)
        h.queue.run_until(2.0)  # transaction 0 times out
        assert outcomes == [None]
        h.layers[1].send_request(
            2, SixPCommand.ADD, callback=lambda peer, req, resp: outcomes.append(resp)
        )
        h.layers[1].process_packet(stale_response)
        assert len(outcomes) == 1  # stale response did not complete the new transaction
