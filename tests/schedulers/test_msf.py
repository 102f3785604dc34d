"""Tests for the MSF (RFC 9033) scheduling function."""

import pytest

from repro.net.topology import star_topology
from repro.schedulers.autonomous import sax_hash
from repro.schedulers.msf import (
    LIM_NUMCELLSUSED_HIGH,
    LIM_NUMCELLSUSED_LOW,
    MAX_NUMCELLS,
    MsfConfig,
    MsfScheduler,
    msf_config_from,
)
from repro.sixtop.messages import (
    CellDescriptor,
    SixPCommand,
    SixPMessage,
    SixPMessageType,
    SixPReturnCode,
    make_sixp_packet,
)

from tests.conftest import make_registry_network


def make_config(**overrides):
    fields = dict(
        slotframe_length=32,
        num_channels=8,
        housekeeping_period_s=2.0,
    )
    fields.update(overrides)
    return MsfConfig(**fields)


def add_request(num_cells=1, cell_list=()):
    return SixPMessage(
        message_type=SixPMessageType.REQUEST,
        command=SixPCommand.ADD,
        seqnum=0,
        num_cells=num_cells,
        cell_list=list(cell_list),
    )


def add_response(cell_list, return_code=SixPReturnCode.SUCCESS):
    return SixPMessage(
        message_type=SixPMessageType.RESPONSE,
        command=SixPCommand.ADD,
        seqnum=0,
        num_cells=len(cell_list),
        cell_list=list(cell_list),
        return_code=return_code,
    )


@pytest.fixture
def msf_network():
    return make_registry_network("MSF", star_topology(3))


class TestSaxHash:
    def test_deterministic(self):
        assert sax_hash(42) == sax_hash(42)

    def test_32bit_range(self):
        assert 0 <= sax_hash(123456789) < 2**32

    def test_spreads_values(self):
        assert len({sax_hash(i) % 31 for i in range(50)}) > 5


class TestMsfConfig:
    def test_from_contiki_follows_shared_knobs(self):
        class Contiki:
            gt_slotframe_length = 32
            hopping_sequence = (15, 20, 25, 26)
            load_balance_period_s = 4.0

        config = msf_config_from(Contiki())
        assert config.slotframe_length == 32
        assert config.num_channels == 4
        assert config.housekeeping_period_s == 4.0

    def test_threshold_ordering_enforced(self):
        # RFC 9033 Section 5.3: 25% and 75% of MAX_NUMCELLS.
        assert 0 <= LIM_NUMCELLSUSED_LOW < LIM_NUMCELLSUSED_HIGH <= MAX_NUMCELLS
        assert (LIM_NUMCELLSUSED_LOW, LIM_NUMCELLSUSED_HIGH, MAX_NUMCELLS) == (4, 12, 16)
        with pytest.raises(ValueError):
            make_config(housekeeping_period_s=0.0)

    def test_needs_room_for_unicast(self):
        with pytest.raises(ValueError):
            make_config(slotframe_length=1)
        with pytest.raises(ValueError):
            make_config(num_channels=1)


class TestSlotframeSetup:
    def test_minimal_shared_cell_and_autonomous_rx(self, msf_network):
        msf_network.start()
        node = msf_network.nodes[1]
        slotframe = node.tsch.get_slotframe(MsfScheduler.SLOTFRAME_HANDLE)
        shared = [c for c in slotframe.all_cells() if c.is_broadcast]
        assert len(shared) == 1
        assert shared[0].slot_offset == 0 and shared[0].is_shared
        own_slot, own_channel = node.scheduler._autonomous_cell(1)
        rx = [c for c in slotframe.all_cells() if c.label == "msf-autonomous-rx"]
        assert [(c.slot_offset, c.channel_offset) for c in rx] == [(own_slot, own_channel)]

    def test_autonomous_coordinates_avoid_slot0_and_channel0(self):
        config = make_config()
        scheduler = MsfScheduler(config)
        for owner in range(100):
            h = sax_hash(owner)
            slot = 1 + h % (config.slotframe_length - 1)
            channel = 1 + (h >> 16) % (config.num_channels - 1)
            assert 1 <= slot < config.slotframe_length
            assert 1 <= channel < config.num_channels
            assert scheduler._autonomous_cell(owner) == (slot, channel)

    def test_parent_change_installs_autonomous_tx_at_parent_coords(self, msf_network):
        msf_network.start()
        node = msf_network.nodes[1]
        slotframe = node.tsch.get_slotframe(MsfScheduler.SLOTFRAME_HANDLE)
        tx = [c for c in slotframe.all_cells() if c.label == "msf-autonomous-tx"]
        assert len(tx) == 1
        assert tx[0].neighbor == 0 and tx[0].is_shared
        assert (tx[0].slot_offset, tx[0].channel_offset) == node.scheduler._autonomous_cell(0)


class TestResponder:
    def test_add_grants_requested_free_offset(self, msf_network):
        msf_network.start()
        root = msf_network.nodes[0].scheduler
        free = root.candidate_offsets()
        wanted = free[0]
        code, fields = root.on_sixp_request(1, add_request(1, [CellDescriptor(wanted, 0)]))
        assert code is SixPReturnCode.SUCCESS
        assert [d.slot_offset for d in fields["cell_list"]] == [wanted]
        assert root.negotiated_rx_cell_count() == 1
        # The grant also ensured a downward response path to the child.
        slotframe = msf_network.nodes[0].tsch.get_slotframe(0)
        assert [c for c in slotframe.all_cells() if c.label == "msf-autonomous-tx-child"]

    def test_add_without_free_candidates_returns_norres(self, msf_network):
        msf_network.start()
        root = msf_network.nodes[0].scheduler
        taken = next(iter(root.candidate_offsets()))
        root.on_sixp_request(1, add_request(1, [CellDescriptor(taken, 0)]))
        code, fields = root.on_sixp_request(2, add_request(1, [CellDescriptor(taken, 0)]))
        assert code is SixPReturnCode.ERR_NORES
        assert fields == {}

    def test_delete_removes_granted_cells(self, msf_network):
        msf_network.start()
        root = msf_network.nodes[0].scheduler
        _, fields = root.on_sixp_request(1, add_request(1))
        granted = fields["cell_list"]
        delete = SixPMessage(
            message_type=SixPMessageType.REQUEST,
            command=SixPCommand.DELETE,
            seqnum=1,
            num_cells=1,
            cell_list=list(granted),
        )
        code, fields = root.on_sixp_request(1, delete)
        assert code is SixPReturnCode.SUCCESS
        assert [d.slot_offset for d in fields["cell_list"]] == [
            d.slot_offset for d in granted
        ]
        assert root.negotiated_rx_cell_count() == 0

    def test_unsupported_command_errs(self, msf_network):
        msf_network.start()
        root = msf_network.nodes[0].scheduler
        ask = SixPMessage(
            message_type=SixPMessageType.REQUEST,
            command=SixPCommand.ASK_CHANNEL,
            seqnum=0,
        )
        assert root.on_sixp_request(1, ask) == (SixPReturnCode.ERR, {})


class TestUsageAdaptation:
    def _install_negotiated(self, network, offsets):
        """Answer node 1's bootstrap ADD (seqnum 0) with ``offsets``, as its
        parent's 6P layer would; returns node 1's scheduler."""
        descriptors = [CellDescriptor(offset, 3) for offset in offsets]
        network.nodes[1].sixtop.process_packet(make_sixp_packet(0, 1, add_response(descriptors)))
        return network.nodes[1].scheduler

    def test_high_usage_queues_add(self, msf_network):
        msf_network.start()
        child = self._install_negotiated(msf_network, [10])
        child._num_cells_elapsed = MAX_NUMCELLS
        child._num_cells_used = LIM_NUMCELLSUSED_HIGH
        before = child.sixp.add_requests_sent
        child._housekeeping_tick()
        queued = any(r.command is SixPCommand.ADD for r in child.sixp.queue)
        assert queued or child.sixp.add_requests_sent > before
        # Counters reset after an evaluation (the RFC's sliding window).
        assert child._num_cells_elapsed == 0 and child._num_cells_used == 0

    def test_low_usage_deletes_highest_offset_cell(self, msf_network):
        msf_network.start()
        child = self._install_negotiated(msf_network, [10, 20])
        child._num_cells_elapsed = MAX_NUMCELLS
        child._num_cells_used = LIM_NUMCELLSUSED_LOW
        before = child.sixp.delete_requests_sent
        child._housekeeping_tick()
        assert child.sixp.delete_requests_sent == before + 1
        request = msf_network.nodes[1].sixtop.pending_request(0)
        assert request.command is SixPCommand.DELETE
        assert [d.slot_offset for d in request.cell_list] == [20]

    def test_no_evaluation_before_the_usage_window_elapses(self, msf_network):
        msf_network.start()
        child = self._install_negotiated(msf_network, [10])
        child._num_cells_elapsed = MAX_NUMCELLS - 2
        child._num_cells_used = LIM_NUMCELLSUSED_HIGH
        before = child.sixp.add_requests_sent
        child._housekeeping_tick()
        assert not child.sixp.queue
        assert child.sixp.add_requests_sent == before

    def test_last_negotiated_cell_never_deleted(self, msf_network):
        msf_network.start()
        child = self._install_negotiated(msf_network, [10])
        child._num_cells_elapsed = MAX_NUMCELLS
        child._num_cells_used = 0
        before = child.sixp.delete_requests_sent
        child._housekeeping_tick()
        assert not [r for r in child.sixp.queue if r.command is SixPCommand.DELETE]
        assert child.sixp.delete_requests_sent == before


class TestTimeoutSelfHealing:
    def test_timed_out_add_rebootstraps_on_next_tick(self, msf_network):
        msf_network.start()
        child = msf_network.nodes[1].scheduler
        assert child._requested_initial  # bootstrap queued on parent change
        # The client reports the bootstrap ADD as timed out.
        child.transaction_settled(add_request(1), None)
        assert not child._requested_initial
        child._housekeeping_tick()
        assert child._requested_initial


class TestEndToEnd:
    def test_negotiates_dedicated_cells_over_sixp(self):
        network = make_registry_network("MSF", star_topology(3), rate_ppm=60)
        network.run_seconds(20.0)
        negotiated = sum(
            node.scheduler.negotiated_tx_cell_count()
            for node in network.nodes.values()
        )
        assert negotiated >= 1
        assert any(n.sixtop.requests_sent > 0 for n in network.nodes.values())

    def test_light_traffic_delivers(self):
        network = make_registry_network("MSF", star_topology(3), rate_ppm=30)
        metrics = network.run_experiment(warmup_s=10.0, measurement_s=20.0, drain_s=3.0)
        assert metrics.pdr_percent > 80.0
