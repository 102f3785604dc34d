"""Tests for the GT-TSCH scheduling function integrated with the node stack."""

from collections import Counter

import pytest

import repro.core.slotframe_builder as slotframe_builder
from repro.experiments.scenarios import GT_TSCH, scale_scenario
from repro.mac.cell import Cell, CellPurpose
from repro.mac.slotframe import Slotframe
from repro.mac.tsch import ScheduleProfile
from repro.net.topology import line_topology, star_topology
from repro.sixtop.messages import CellDescriptor, SixPCommand, SixPMessage, SixPMessageType, SixPReturnCode

from tests.conftest import make_gt_network


def add_request(num_cells, purpose="data", cell_list=None, owned=None, seqnum=0):
    metadata = {"purpose": purpose}
    if owned is not None:
        metadata["owned"] = owned
    return SixPMessage(
        message_type=SixPMessageType.REQUEST,
        command=SixPCommand.ADD,
        seqnum=seqnum,
        num_cells=num_cells,
        cell_list=list(cell_list or []),
        metadata=metadata,
    )


class TestStartup:
    def test_root_builds_slotframe_and_picks_channel(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        scheduler = root.scheduler
        assert scheduler.own_child_channel is not None
        assert scheduler.own_child_channel != scheduler.config.broadcast_channel_offset
        slotframe = root.tsch.get_slotframe(0)
        assert slotframe.length == scheduler.config.slotframe_length
        assert slotframe.count_cells(purpose=CellPurpose.BROADCAST) == scheduler.config.num_broadcast_cells
        assert slotframe.count_cells(purpose=CellPurpose.SHARED) == scheduler.config.num_shared_cells

    def test_non_root_waits_for_parent_channel(self, gt_star_network):
        gt_star_network.start()
        leaf = gt_star_network.nodes[1]
        assert leaf.scheduler.own_child_channel is None
        assert leaf.scheduler.parent_channel_offset is None

    def test_eb_fields_advertise_child_channel(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        leaf = gt_star_network.nodes[1]
        assert root.scheduler.eb_fields() == {"child_channel": root.scheduler.own_child_channel}
        assert leaf.scheduler.eb_fields() == {}

    def test_dio_fields_advertise_l_rx(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        fields = root.scheduler.dio_fields()
        assert fields["l_rx"] > 0


class TestChannelLearningAndBootstrap:
    def test_eb_reception_triggers_bootstrap(self, gt_star_network):
        gt_star_network.start()
        gt_star_network.run_seconds(10.0)
        for node_id in (1, 2, 3):
            scheduler = gt_star_network.nodes[node_id].scheduler
            assert scheduler.parent_channel_offset == gt_star_network.nodes[0].scheduler.own_child_channel
            assert scheduler.own_child_channel is not None

    def test_siblings_get_distinct_child_channels(self, gt_star_network):
        gt_star_network.start()
        gt_star_network.run_seconds(15.0)
        channels = {
            gt_star_network.nodes[node_id].scheduler.own_child_channel for node_id in (1, 2, 3)
        }
        assert None not in channels
        assert len(channels) == 3

    def test_shared_cells_installed_towards_parent(self, gt_star_network):
        gt_star_network.start()
        gt_star_network.run_seconds(10.0)
        leaf = gt_star_network.nodes[1]
        shared = [
            cell
            for cell in leaf.tsch.all_cells()
            if cell.purpose is CellPurpose.SHARED and cell.neighbor == 0
        ]
        assert shared
        assert all(cell.is_tx for cell in shared)

    def test_sixp_cells_negotiated(self, gt_star_network):
        gt_star_network.start()
        gt_star_network.run_seconds(15.0)
        leaf = gt_star_network.nodes[1]
        root = gt_star_network.nodes[0]
        tx_6p = [
            cell
            for cell in leaf.tsch.all_cells()
            if cell.purpose is CellPurpose.UNICAST_6P and cell.is_tx
        ]
        assert len(tx_6p) == leaf.scheduler.config.sixp_cells_per_neighbor
        # The parent installed the matching Rx cells.
        rx_6p = [
            cell
            for cell in root.tsch.all_cells()
            if cell.purpose is CellPurpose.UNICAST_6P and cell.neighbor == 1
        ]
        assert {c.slot_offset for c in rx_6p} == {c.slot_offset for c in tx_6p}


class TestSixPResponder:
    def test_ask_channel_before_own_channel_is_busy(self, gt_star_network):
        gt_star_network.start()
        leaf = gt_star_network.nodes[1]
        code, fields = leaf.scheduler.on_sixp_request(
            5,
            SixPMessage(
                message_type=SixPMessageType.REQUEST,
                command=SixPCommand.ASK_CHANNEL,
                seqnum=0,
            ),
        )
        assert code is SixPReturnCode.ERR_BUSY

    def test_ask_channel_grant(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        code, fields = root.scheduler.on_sixp_request(
            1,
            SixPMessage(
                message_type=SixPMessageType.REQUEST,
                command=SixPCommand.ASK_CHANNEL,
                seqnum=0,
            ),
        )
        assert code is SixPReturnCode.SUCCESS
        granted = fields["channel_offset"]
        assert granted != root.scheduler.own_child_channel
        assert granted != root.scheduler.config.broadcast_channel_offset

    def test_add_grants_cells_on_own_channel(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        code, fields = root.scheduler.on_sixp_request(1, add_request(2))
        assert code is SixPReturnCode.SUCCESS
        assert fields["num_cells"] == 2
        for descriptor in fields["cell_list"]:
            assert descriptor.channel_offset == root.scheduler.own_child_channel
        assert root.scheduler.rx_data_cell_count() == 2

    def test_add_respects_candidate_cell_list(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        candidates = [CellDescriptor(5, 0), CellDescriptor(6, 0)]
        code, fields = root.scheduler.on_sixp_request(
            1, add_request(2, cell_list=candidates)
        )
        assert code is SixPReturnCode.SUCCESS
        assert {d.slot_offset for d in fields["cell_list"]} <= {5, 6}

    def test_add_records_outstanding_demand_when_budget_short(self, gt_star_network):
        gt_star_network.start()
        leaf = gt_star_network.nodes[1]
        leaf.scheduler.own_child_channel = 5  # pretend ASK-CHANNEL completed
        # A leaf with no Tx cells has budget 0 -> cannot grant, records demand.
        code, fields = leaf.scheduler.on_sixp_request(9, add_request(3))
        assert code is SixPReturnCode.ERR_NORES
        assert leaf.scheduler._child_outstanding[9] == 3

    def test_reconciliation_drops_orphan_cells(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        code, fields = root.scheduler.on_sixp_request(1, add_request(3, owned=0, seqnum=0))
        assert code is SixPReturnCode.SUCCESS
        assert root.scheduler.rx_data_cell_count() == 3
        # The child reports that it owns none of them (response was lost).
        code, fields = root.scheduler.on_sixp_request(1, add_request(1, owned=0, seqnum=1))
        assert code is SixPReturnCode.SUCCESS
        # Orphans were garbage-collected before the new grant.
        assert root.scheduler.rx_data_cell_count() == 1

    def test_delete_removes_cells(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]
        _, fields = root.scheduler.on_sixp_request(1, add_request(2))
        offsets = [d.slot_offset for d in fields["cell_list"]]
        code, fields = root.scheduler.on_sixp_request(
            1,
            SixPMessage(
                message_type=SixPMessageType.REQUEST,
                command=SixPCommand.DELETE,
                seqnum=1,
                num_cells=1,
                cell_list=[CellDescriptor(offsets[0], 0)],
                metadata={"purpose": "data"},
            ),
        )
        assert code is SixPReturnCode.SUCCESS
        assert root.scheduler.rx_data_cell_count() == 1

    def test_unknown_command_rejected(self, gt_star_network):
        gt_star_network.start()
        root = gt_star_network.nodes[0]

        class FakeCommand:
            pass

        # Messages are immutable, so the unknown command is built in.
        message = SixPMessage(message_type=SixPMessageType.REQUEST, command="bogus", seqnum=0)
        code, _ = root.scheduler.on_sixp_request(1, message)
        assert code is SixPReturnCode.ERR


class TestDataPlaneConvergence:
    def test_leaf_obtains_tx_data_cells_under_traffic(self):
        network = make_gt_network(star_topology(3), rate_ppm=120)
        network.run_seconds(25.0)
        for node_id in (1, 2, 3):
            assert network.nodes[node_id].scheduler.tx_data_cell_count() >= 1

    def test_tx_exceeds_rx_on_forwarding_nodes(self):
        network = make_gt_network(line_topology(4, spacing=25.0), rate_ppm=120)
        network.run_seconds(40.0)
        for node_id in (1, 2):
            scheduler = network.nodes[node_id].scheduler
            if scheduler.rx_data_cell_count() > 0:
                assert scheduler.tx_data_cell_count() > scheduler.rx_data_cell_count()

    def test_parent_and_child_schedules_stay_consistent(self):
        network = make_gt_network(star_topology(3), rate_ppm=120)
        network.run_seconds(30.0)
        root = network.nodes[0]
        for child_id in (1, 2, 3):
            child = network.nodes[child_id]
            child_tx_offsets = {
                cell.slot_offset
                for cell in child.tsch.all_cells()
                if cell.purpose is CellPurpose.UNICAST_DATA and cell.is_tx
            }
            root_rx_offsets = {
                cell.slot_offset
                for cell in root.tsch.all_cells()
                if cell.purpose is CellPurpose.UNICAST_DATA and cell.neighbor == child_id
            }
            # Every Tx cell of the child has a matching Rx cell at the root
            # (the converse may transiently not hold while a grant is in flight).
            assert child_tx_offsets <= root_rx_offsets

    def test_no_conflicting_allocation_at_one_node(self):
        """A node never holds two negotiated cells at the same slot offset."""
        network = make_gt_network(line_topology(4, spacing=25.0), rate_ppm=165)
        network.run_seconds(40.0)
        for node in network.nodes.values():
            negotiated = [
                cell
                for cell in node.tsch.all_cells()
                if cell.purpose in (CellPurpose.UNICAST_DATA, CellPurpose.UNICAST_6P)
            ]
            offsets = [cell.slot_offset for cell in negotiated]
            assert len(offsets) == len(set(offsets))

    def test_parent_switch_cleans_old_cells(self, gt_star_network):
        gt_star_network.start()
        gt_star_network.run_seconds(20.0)
        leaf = gt_star_network.nodes[1]
        assert leaf.scheduler.tx_data_cell_count() >= 0
        # Mimic what RPL does on a real switch before notifying the scheduler.
        leaf.rpl.preferred_parent = 2
        leaf.scheduler.on_parent_changed(0, 2)
        remaining_to_old_parent = [
            cell for cell in leaf.tsch.all_cells() if cell.neighbor == 0
        ]
        assert remaining_to_old_parent == []
        assert leaf.scheduler.parent_channel_offset in (None, leaf.scheduler._eb_channel_cache.get(2))

    def test_load_balance_requests_only_when_needed(self, gt_star_network):
        gt_star_network.start()
        gt_star_network.run_seconds(20.0)
        leaf = gt_star_network.nodes[2]
        # No traffic at all: the game should not keep requesting cells.
        assert leaf.scheduler.last_game_request <= 1


class TestControlPlaneWorkOnce:
    """GT-TSCH's control plane does each piece of work once.

    A short 100-node cell counts the work that changes no decision: cells
    built only to be dropped as duplicates, shared-offset layouts computed
    again, and schedule profiles.  Work counts, not clocks, so the gates are
    exact.
    """

    #: ``ScheduleProfile`` builds in the cell below.  Each mutated schedule
    #: still gets its rebuild; the rebuild just costs less.
    PROFILE_BUILDS = 205

    @pytest.fixture(scope="class")
    def work(self):
        counts: Counter = Counter()
        layouts: Counter = Counter()
        build_cell = Cell.__init__
        add_cell = Slotframe.add_cell
        build_profile = ScheduleProfile.__init__
        compute_layout = slotframe_builder.shared_offsets

        def record_cell(self, *args, **kwargs):
            build_cell(self, *args, **kwargs)
            if self.label == "gt-shared-down-tx":
                counts["shared_tx_built"] += 1

        def record_add(self, cell):
            installed = add_cell(self, cell)
            if cell.label == "gt-shared-down-tx":
                counts["shared_tx_installed"] += installed is cell
            return installed

        def record_profile(self, *args):
            counts["profiles"] += 1
            build_profile(self, *args)

        def record_layout(*args):
            layouts[args] += 1
            return compute_layout(*args)

        slotframe_builder.shared_layout.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Cell, "__init__", record_cell)
                patch.setattr(Slotframe, "add_cell", record_add)
                patch.setattr(ScheduleProfile, "__init__", record_profile)
                patch.setattr(slotframe_builder, "shared_offsets", record_layout)
                scenario = scale_scenario(100, GT_TSCH, warmup_s=5.0, measurement_s=5.0)
                network = scenario.build_network()
                network.run_experiment(scenario.warmup_s, scenario.measurement_s)
        finally:
            slotframe_builder.shared_layout.cache_clear()
        return counts, layouts

    def test_every_shared_tx_cell_built_is_installed(self, work):
        counts, _ = work
        assert counts["shared_tx_installed"] > 0
        assert counts["shared_tx_built"] == counts["shared_tx_installed"]

    def test_each_shared_layout_is_computed_once(self, work):
        _, layouts = work
        assert layouts, "the cell computed no shared-cell layout"
        repeated = {key: n for key, n in layouts.items() if n > 1}
        assert not repeated, (
            f"{len(repeated)} layouts computed more than once: {sorted(repeated.items())[:3]}"
        )

    def test_every_profile_rebuild_still_happens(self, work):
        counts, _ = work
        assert counts["profiles"] == self.PROFILE_BUILDS
