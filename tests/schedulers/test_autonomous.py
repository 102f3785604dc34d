"""Tests for the autonomous-cell toolkit shared by the baseline schedulers."""

import pathlib
import re

import pytest

from repro.mac.cell import CellOption, CellPurpose
from repro.mac.slotframe import Slotframe
from repro.net.topology import star_topology
from repro.schedulers import registry
from repro.schedulers.autonomous import SHARED_OPTIONS, add_shared_cells, spread_offsets

from tests.conftest import make_registry_network

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "schedulers.md"


class TestSpreadOffsets:
    def test_spreads_evenly(self):
        assert spread_offsets(32, 4) == (0, 8, 16, 24)
        assert spread_offsets(32, 1) == (0,)
        assert spread_offsets(7, 3) == (0, 2, 4)


class TestAddSharedCells:
    def test_installs_neighbourless_shared_cells_in_order(self):
        slotframe = Slotframe(0, 16)
        add_shared_cells(slotframe, (0, 8), 2, "shared")
        cells = list(slotframe.all_cells())
        assert [(c.slot_offset, c.channel_offset) for c in cells] == [(0, 2), (8, 2)]
        for cell in cells:
            assert cell.options == SHARED_OPTIONS and cell.neighbor is None
            assert cell.purpose is CellPurpose.BROADCAST and cell.label == "shared"


def labelled(node, scheduler, label):
    slotframe = node.tsch.get_slotframe(scheduler.autonomous.handle)
    return [cell for cell in slotframe.all_cells() if cell.label == label]


@pytest.mark.parametrize("name", ["Orchestra", "MSF", "DeBrAS"])
class TestAutonomousCellsContract:
    """Every receiver-based baseline keeps its cells in one ``AutonomousCells``."""

    def test_nothing_before_start(self, name):
        # The warm-start preset already announced node 1's parent.
        network = make_registry_network(name, star_topology(3))
        node = network.nodes[1]
        book = node.scheduler.autonomous
        assert node.rpl.preferred_parent == 0
        assert book.follow(2) is None
        book.add_child(3)
        book.remove_child(3)
        assert node.tsch.all_cells() == []
        assert (book.parent_cell, book.child_cells) == (None, {})
        assert node.sixtop.requests_sent == 0

    def test_listens_on_its_own_coordinates(self, name):
        network = make_registry_network(name, star_topology(3))
        network.start()
        node = network.nodes[2]
        book = node.scheduler.autonomous
        [own] = labelled(node, node.scheduler, book.labels[0])
        assert (own.slot_offset, own.channel_offset) == book.coordinates(2)
        assert own.options == CellOption.RX | CellOption.ALWAYS_ON and own.neighbor is None

    def test_parent_switch_moves_the_single_tx_cell(self, name):
        network = make_registry_network(name, star_topology(3))
        network.start()
        node = network.nodes[1]
        book = node.scheduler.autonomous
        [towards_root] = labelled(node, node.scheduler, book.labels[1])
        assert towards_root is book.parent_cell and towards_root.neighbor == 0
        assert (towards_root.slot_offset, towards_root.channel_offset) == book.coordinates(0)

        node.scheduler.on_parent_changed(0, 3)
        [moved] = labelled(node, node.scheduler, book.labels[1])
        assert moved is book.parent_cell and moved.neighbor == 3
        assert (moved.slot_offset, moved.channel_offset) == book.coordinates(3)
        assert moved.options == CellOption.TX | CellOption.SHARED

        node.scheduler.on_parent_changed(3, None)
        assert labelled(node, node.scheduler, book.labels[1]) == []
        assert book.parent_cell is None

    def test_children_are_added_once_and_removed(self, name):
        network = make_registry_network(name, star_topology(3))
        network.start()
        root = network.nodes[0]
        book = root.scheduler.autonomous
        root.scheduler.on_child_added(2)
        root.scheduler.on_child_added(2)
        [towards_child] = labelled(root, root.scheduler, book.labels[2])
        assert book.child_cells == {2: towards_child} and towards_child.neighbor == 2
        assert (towards_child.slot_offset, towards_child.channel_offset) == book.coordinates(2)

        root.scheduler.on_child_removed(2)
        assert labelled(root, root.scheduler, book.labels[2]) == []
        assert book.child_cells == {}


class TestWorkedExample:
    """The third-party example of ``docs/schedulers.md`` runs as written."""

    def test_example_delivers_in_a_short_cell(self):
        text = DOCS.read_text()
        section = text[text.index("## Writing a third-party scheduler"):]
        source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace: dict = {"__name__": "striped_example"}
        exec(compile(source, str(DOCS), "exec"), namespace)
        name = namespace["StripedScheduler"].name
        try:
            assert name in registry.available()
            network = make_registry_network(name, star_topology(3), rate_ppm=30)
            metrics = network.run_experiment(warmup_s=10.0, measurement_s=20.0, drain_s=3.0)
            assert metrics.pdr_percent > 80.0
            labels = {cell.label for cell in network.nodes[0].tsch.all_cells()}
            assert labels == {"striped-shared", "striped-rx", "striped-tx-child"}
        finally:
            registry._REGISTRY.pop(name, None)
        assert name not in registry.available()
