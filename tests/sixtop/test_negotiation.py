"""The 6P negotiation client: a scheduler built on policy alone, and the
consistency of the books GT-TSCH and MSF keep through it."""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import GT_TSCH, MSF, traffic_load_scenario
from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.net.network import Network
from repro.net.topology import line_topology
from repro.schedulers.base import SchedulingFunction
from repro.sixtop.messages import CellDescriptor, SixPCommand, SixPReturnCode, sixp_message
from repro.sixtop.negotiation import NegotiationClient, SixPRequest, proposed_offsets
from tests.golden.cells import cell_id, run_cell


def mismatches(nodes):
    """Where the negotiated books of parents and children disagree.

    Returns ``(dangling, deleting, orphans)``: the ``(child, parent, slot
    offset)`` of every negotiated TX cell whose parent's book holds no RX
    twin (same slot and channel offset) for that child; how many of those a
    DELETE still in flight in the child's 6P layer names; and the number of
    RX cells whose child holds no TX twin towards the parent.
    """
    clients = {node_id: node.scheduler.sixp for node_id, node in nodes.items()}
    tx = {
        (node_id, cell.neighbor, cell.slot_offset, cell.channel_offset)
        for node_id, client in clients.items()
        for cells in client.tx.values()
        for cell in cells
    }
    rx = {
        (child, node_id, cell.slot_offset, cell.channel_offset)
        for node_id, client in clients.items()
        for child, cells in client.rx_by_child.items()
        for cell in cells
    }
    dangling = sorted(key[:3] for key in tx - rx)
    deleting = 0
    for child, parent, offset in dangling:
        request = nodes[child].sixtop.pending_request(parent)
        if request is not None and request.command is SixPCommand.DELETE:
            deleting += offset in {descriptor.slot_offset for descriptor in request.cell_list}
    return dangling, deleting, len(rx - tx)


class FixedCellsScheduler(SchedulingFunction):
    """A third negotiating scheduler: fixed candidate offsets, one channel.

    It supplies only policy; the client runs every transaction.
    """

    name = "fixed-cells"
    HANDLE = 0
    OFFSETS = (5, 9, 13)
    CHANNEL = 3

    def __init__(self) -> None:
        super().__init__()
        self.sixp = NegotiationClient(self, self.HANDLE, {"data": ("fixed-tx", "fixed-rx")})
        self.failed = 0

    def start(self) -> None:
        self.sixp.node = self.node
        slotframe = self.node.tsch.add_slotframe(self.HANDLE, 16)
        # One shared cell carries EBs, DIOs and the 6P messages themselves.
        slotframe.add_cell(
            Cell(
                slot_offset=0,
                channel_offset=0,
                options=CellOption.TX | CellOption.RX | CellOption.SHARED | CellOption.BROADCAST,
                purpose=CellPurpose.BROADCAST,
            )
        )

    def on_parent_changed(self, old_parent, new_parent) -> None:
        # A warm start announces the parent once before start(), too.
        if self.node.tsch.get_slotframe(self.HANDLE) is None:
            return
        self.sixp.switch_parent(old_parent, keep=lambda cell: cell.neighbor == new_parent)
        if new_parent is not None:
            self.sixp.queue.append(SixPRequest(SixPCommand.ADD, 2))
            self.sixp.pump()

    def on_sixp_request(self, peer, message):
        if message.command is SixPCommand.ADD:
            allowed = proposed_offsets(message)
            offsets = [o for o in self.candidate_offsets() if allowed is None or o in allowed]
            return self.sixp.answer_add(peer, "data", offsets[: message.num_cells], self.CHANNEL)
        if message.command is SixPCommand.DELETE:
            return self.sixp.answer_delete(peer, message)
        return SixPReturnCode.ERR, {}

    def candidate_offsets(self):
        slotframe = self.node.tsch.get_slotframe(self.HANDLE)
        return [offset for offset in self.OFFSETS if not slotframe.cells_at_offset(offset)]

    def request_metadata(self, request):
        return {"purpose": request.purpose}

    def transaction_settled(self, request, granted):
        self.failed += granted is None


class TestPolicyOnlyScheduler:
    def _books(self, network):
        parent, child = network.nodes[0].scheduler, network.nodes[1].scheduler
        tx = [(cell.slot_offset, cell.channel_offset) for cell in child.sixp.tx["data"]]
        rx = [(cell.slot_offset, cell.channel_offset) for cell in parent.sixp.rx_by_child[1]]
        return tx, rx

    def test_adds_and_deletes_cells_and_both_books_mirror(self):
        network = Network(seed=3)
        network.build_from_topology(
            line_topology(2), scheduler_factory=lambda node_id, is_root: FixedCellsScheduler()
        )
        network.start()
        network.run_seconds(10.0)
        parent, child = network.nodes[0].scheduler, network.nodes[1].scheduler
        assert self._books(network) == ([(5, 3), (9, 3)], [(5, 3), (9, 3)])
        installed = [
            (cell.slot_offset, cell.is_tx, cell.neighbor)
            for cell in network.nodes[1].tsch.all_cells()
            if cell.label == "fixed-tx"
        ]
        assert installed == [(5, True, 0), (9, True, 0)]

        child.sixp.queue.append(SixPRequest(SixPCommand.DELETE, 1, (CellDescriptor(9, 3),)))
        child.sixp.pump()
        network.run_seconds(10.0)
        assert self._books(network) == ([(5, 3)], [(5, 3)])
        rx_offsets = [cell.slot_offset for cell in network.nodes[0].tsch.all_cells() if cell.is_rx]
        assert rx_offsets == [0, 5]
        assert (child.sixp.add_requests_sent, child.sixp.delete_requests_sent) == (1, 1)
        assert child.sixp.cells_relocated == parent.sixp.cells_relocated == 3
        assert child.failed == 0
        assert mismatches(network.nodes) == ([], 0, 0)


#: ``(scheduler, rate ppm, seed) -> (dangling, deleting, orphans)`` at the close
#: of a Fig. 8 cell with the scenario's default windows.
CONSISTENCY = {
    (GT_TSCH, 30.0, 1): ([], 0, 0),
    (GT_TSCH, 30.0, 4): ([], 0, 0),
    (GT_TSCH, 165.0, 1): ([], 0, 1),
    # The ``owned`` repair frees RX data cells by count, highest offset first,
    # so it can free a live twin and keep the orphan.
    (GT_TSCH, 165.0, 4): ([(8, 7, 30)], 0, 2),
    (MSF, 30.0, 1): ([], 0, 2),
    (MSF, 30.0, 4): ([], 0, 0),
    # The parent has answered this DELETE; its response is still on the way.
    (MSF, 165.0, 1): ([(12, 8, 26)], 1, 3),
    (MSF, 165.0, 4): ([], 0, 4),
}


@pytest.mark.parametrize("cell", list(CONSISTENCY), ids=lambda c: f"{c[0]}-{c[1]:g}ppm-s{c[2]}")
def test_negotiated_books_at_window_close(cell):
    scheduler, rate_ppm, seed = cell
    scenario = traffic_load_scenario(rate_ppm, scheduler, seed=seed)
    network = scenario.build_network()
    network.run_experiment(scenario.warmup_s, scenario.measurement_s)
    assert mismatches(network.nodes) == CONSISTENCY[cell]


#: Cells whose rarest 6P paths run only in the drain, after the metrics
#: froze, so no digest can show a fault there; the books can.  The golden
#: ``load165/GT-TSCH/s2`` runs a GT-TSCH DELETE at both ends.  In
#: ``dynamic/MSF/s7`` an ADD response arrives from a former parent at an
#: offset already taken, and in ``s9`` one installs a TX cell towards it.
DRAIN_PATHS = {
    ("load165", GT_TSCH, 2): ([], 0, 1),
    ("dynamic", MSF, 7): ([], 0, 1),
    ("dynamic", MSF, 9): ([], 0, 0),
}


@pytest.mark.parametrize("cell", list(DRAIN_PATHS), ids=lambda c: cell_id(*c))
def test_negotiated_books_after_drain_only_paths(cell):
    network, _ = run_cell(*cell, fast=True)
    assert mismatches(network.nodes) == DRAIN_PATHS[cell]


# ----------------------------------------------------------------------
# Known 6P consistency faults.  Each test asserts the fault's symptom, not a
# fix, so it starts passing (and, being strict, fails as XPASS) once the
# fault is mended; then drop its marker.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gt_165ppm_seed4():
    """``traffic_load_scenario(165, GT-TSCH, seed=4)`` run to window close,
    with every ADD grant made at an offset where the child holds a cell."""
    scenario = traffic_load_scenario(165.0, GT_TSCH, seed=4)
    network = scenario.build_network()
    clashes = []
    answer_add = NegotiationClient.answer_add

    def record_answer(self, peer, purpose, offsets, channel):
        child = network.nodes[peer].tsch.get_slotframe(self.handle)
        for offset in offsets:
            if child.cells_at_offset(offset):
                clashes.append((network.events.now, self.node.node_id, peer, offset))
        return answer_add(self, peer, purpose, offsets, channel)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NegotiationClient, "answer_add", record_answer)
        network.run_experiment(scenario.warmup_s, scenario.measurement_s)
    return network, clashes


@pytest.mark.xfail(
    strict=True,
    reason="an ADD with an empty cell list is granted anywhere: parent 7 grants "
    "child 8 its own shared offset 18 at 27.6 s, then offset 31, where 8 already "
    "receives, in every round from 31.1 s",
)
def test_no_add_grants_an_offset_the_child_already_uses(gt_165ppm_seed4):
    _, clashes = gt_165ppm_seed4
    assert clashes == []


@pytest.mark.xfail(
    strict=True,
    reason="the owned-count repair frees RX data cells highest offset first, "
    "so child 8's TX cell at offset 30 towards parent 7 loses its twin",
)
def test_every_tx_cell_has_its_rx_twin_at_window_close(gt_165ppm_seed4):
    network, _ = gt_165ppm_seed4
    dangling, deleting, _ = mismatches(network.nodes)
    assert len(dangling) == deleting, f"TX cells without an RX twin: {dangling}"


@pytest.mark.xfail(
    strict=True,
    reason="an ADD response from a former parent still installs TX cells towards it",
)
def test_add_response_after_a_parent_switch_installs_nothing_towards_the_old_parent():
    network = Network(seed=3)
    network.build_from_topology(
        line_topology(2), scheduler_factory=lambda node_id, is_root: FixedCellsScheduler()
    )
    network.start()
    network.run_seconds(10.0)
    parent, child = network.nodes[0], network.nodes[1]
    assert [cell.slot_offset for cell in child.scheduler.sixp.tx["data"]] == [5, 9]
    child.scheduler.sixp.queue.append(SixPRequest(SixPCommand.DELETE, 1, (CellDescriptor(9, 3),)))
    child.scheduler.sixp.pump()
    network.run_seconds(10.0)
    # Carry the next transaction by hand, so the child can switch parents
    # while the parent's response is on the way.
    sent = {0: [], 1: []}
    for node_id, node in network.nodes.items():
        node.sixtop._send_packet = sent[node_id].append
    child.scheduler.sixp.queue.append(SixPRequest(SixPCommand.ADD, 1))
    child.scheduler.sixp.pump()
    parent.sixtop.process_packet(sent[1].pop())
    (response,) = sent[0]
    assert [d.slot_offset for d in sixp_message(response).cell_list] == [9]
    child.rpl.preferred_parent = None
    child.scheduler.on_parent_changed(0, None)
    child.sixtop.process_packet(response)
    towards_old_parent = [cell.slot_offset for cell in child.tsch.all_cells() if cell.neighbor == 0]
    assert towards_old_parent == []
