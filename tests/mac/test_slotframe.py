"""Tests for slotframes and CDU-matrix rendering."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.mac.slotframe import _EMPTY, Slotframe, render_cdu_matrix


def tx_cell(slot, channel=0, neighbor=None):
    return Cell(slot_offset=slot, channel_offset=channel, options=CellOption.TX, neighbor=neighbor)


class TestSlotframeBasics:
    def test_requires_positive_length(self):
        with pytest.raises(ValueError):
            Slotframe(0, 0)

    def test_add_and_len(self):
        sf = Slotframe(0, 10)
        sf.add_cell(tx_cell(1))
        sf.add_cell(tx_cell(2))
        assert len(sf) == 2

    def test_add_rejects_out_of_range_offset(self):
        sf = Slotframe(0, 10)
        with pytest.raises(ValueError):
            sf.add_cell(tx_cell(10))

    def test_duplicate_add_is_idempotent(self):
        sf = Slotframe(0, 10)
        first = sf.add_cell(tx_cell(1, neighbor=5))
        second = sf.add_cell(tx_cell(1, neighbor=5))
        assert first is second
        assert len(sf) == 1

    def test_add_sets_handle(self):
        sf = Slotframe(3, 10)
        cell = sf.add_cell(tx_cell(1))
        assert cell.slotframe_handle == 3


class TestSlotframeQueries:
    def test_cells_at_wraps_with_asn(self):
        sf = Slotframe(0, 7)
        cell = sf.add_cell(tx_cell(3))
        assert sf.cells_at(3) == [cell]
        assert sf.cells_at(10) == [cell]
        assert sf.cells_at(4) == []

    def test_find_cell_filters(self):
        sf = Slotframe(0, 10)
        a = sf.add_cell(tx_cell(1, channel=2, neighbor=7))
        assert sf.find_cell(1) is a
        assert sf.find_cell(1, channel_offset=2) is a
        assert sf.find_cell(1, neighbor=7) is a
        assert sf.find_cell(1, neighbor=8) is None
        assert sf.find_cell(2) is None

    def test_cells_with_neighbor(self):
        sf = Slotframe(0, 10)
        sf.add_cell(tx_cell(1, neighbor=7))
        sf.add_cell(tx_cell(2, neighbor=8))
        sf.add_cell(tx_cell(3, neighbor=7))
        assert [c.slot_offset for c in sf.cells_with_neighbor(7)] == [1, 3]

    def test_used_and_free_offsets(self):
        sf = Slotframe(0, 5)
        sf.add_cell(tx_cell(1))
        sf.add_cell(tx_cell(3))
        assert sf.used_slot_offsets() == [1, 3]
        assert sf.free_slot_offsets() == [0, 2, 4]

    def test_count_cells_by_option_and_purpose(self):
        sf = Slotframe(0, 10)
        sf.add_cell(Cell(1, 0, CellOption.TX, neighbor=5, purpose=CellPurpose.UNICAST_DATA))
        sf.add_cell(Cell(2, 0, CellOption.RX, neighbor=5, purpose=CellPurpose.UNICAST_DATA))
        sf.add_cell(Cell(3, 0, CellOption.RX, neighbor=6, purpose=CellPurpose.UNICAST_6P))
        assert sf.count_cells(options=CellOption.RX) == 2
        assert sf.count_cells(neighbor=5) == 2
        assert sf.count_cells(purpose=CellPurpose.UNICAST_6P) == 1

    def test_occupancy(self):
        sf = Slotframe(0, 10)
        sf.add_cell(tx_cell(0))
        sf.add_cell(tx_cell(5))
        assert sf.occupancy() == pytest.approx(0.2)


class TestSlotframeRemoval:
    def test_remove_cell(self):
        sf = Slotframe(0, 10)
        cell = sf.add_cell(tx_cell(1))
        assert sf.remove_cell(cell)
        assert len(sf) == 0
        assert not sf.remove_cell(cell)

    def test_remove_cells_with_neighbor(self):
        sf = Slotframe(0, 10)
        sf.add_cell(tx_cell(1, neighbor=7))
        sf.add_cell(tx_cell(2, neighbor=7))
        sf.add_cell(tx_cell(3, neighbor=8))
        assert sf.remove_cells_with_neighbor(7) == 2
        assert len(sf) == 1

    def test_clear(self):
        sf = Slotframe(0, 10)
        sf.add_cell(tx_cell(1))
        sf.clear()
        assert len(sf) == 0

    @given(st.sets(st.integers(min_value=0, max_value=31), min_size=1, max_size=20))
    def test_free_plus_used_covers_slotframe(self, offsets):
        sf = Slotframe(0, 32)
        for offset in offsets:
            sf.add_cell(tx_cell(offset))
        assert sorted(sf.used_slot_offsets() + sf.free_slot_offsets()) == list(range(32))


def first_rx_entry(bucket):
    """First RX cell of ``bucket`` sorted stably by purpose priority."""
    for cell in sorted(bucket, key=lambda c: c.purpose.priority):
        if cell.is_rx:
            return (cell.purpose.priority, cell.channel_offset)
    return None


def rx_cell(slot, channel, purpose=CellPurpose.UNICAST_DATA, neighbor=None):
    return Cell(
        slot_offset=slot,
        channel_offset=channel,
        options=CellOption.RX,
        neighbor=neighbor,
        purpose=purpose,
    )


class TestListenTable:
    """Each offset's bucket holds its cells in planning order, and its listen
    entry is the first RX cell of that bucket."""

    OPTIONS = (
        CellOption.TX,
        CellOption.TX | CellOption.SHARED,
        CellOption.RX,
        CellOption.RX | CellOption.ALWAYS_ON,
        CellOption.TX | CellOption.RX | CellOption.SHARED,
        CellOption.TX | CellOption.BROADCAST,
    )

    @pytest.mark.parametrize("seed", range(10))
    def test_entries_follow_random_mutations(self, seed):
        rng = random.Random(seed)
        sf = Slotframe(0, 4)
        # Never mutated: a cell written into the shared empty bucket would
        # appear at every empty offset of every slotframe, this one's too.
        bystander = Slotframe(1, 3)
        purposes = list(CellPurpose)
        # The installed cells of each offset, in insertion order.
        inserted: list[list[Cell]] = [[] for _ in range(sf.length)]
        tied = 0
        for _ in range(250):
            installed = list(sf.all_cells())
            draw = rng.random()
            if draw < 0.55 or not installed:
                cell = Cell(
                    slot_offset=rng.randrange(4),
                    channel_offset=rng.randrange(3),
                    options=rng.choice(self.OPTIONS),
                    neighbor=rng.choice([None, 1, 2, 3]),
                    purpose=rng.choice(purposes[:3]),
                )
                if sf.add_cell(cell) is cell:
                    inserted[cell.slot_offset].append(cell)
            elif draw < 0.85:
                cell = rng.choice(installed)
                sf.remove_cell(cell)
                inserted[cell.slot_offset].remove(cell)
            elif draw < 0.98:
                neighbor = rng.choice([1, 2, 3])
                sf.remove_cells_with_neighbor(neighbor)
                inserted = [[c for c in cells if c.neighbor != neighbor] for cells in inserted]
            else:
                sf.clear()
                inserted = [[] for _ in range(sf.length)]
            assert _EMPTY == []
            assert all(bucket is _EMPTY for bucket in bystander._table)
            for offset in range(sf.length):
                bucket = sf.cells_at_offset(offset)
                assert bucket or bucket is _EMPTY, offset
                expected = sorted(inserted[offset], key=lambda c: c.purpose.priority)
                assert [id(c) for c in bucket] == [id(c) for c in expected], offset
            for asn in range(8):
                bucket = sf.cells_at(asn)
                assert sf.listen_at(asn) == first_rx_entry(bucket), (asn, bucket)
                best = first_rx_entry(bucket)
                if best is not None:
                    tied += sum(
                        1 for c in bucket if c.is_rx and c.purpose.priority == best[0]
                    ) > 1
        assert tied  # equal-priority RX cells shared an offset at some step

    def test_insertion_order_breaks_priority_ties(self):
        sf = Slotframe(0, 5)
        first = sf.add_cell(rx_cell(2, channel=1))
        sf.add_cell(rx_cell(2, channel=3))
        sf.add_cell(tx_cell(2, channel=4))
        assert sf.listen_at(7) == (CellPurpose.UNICAST_DATA.priority, 1)
        sf.add_cell(rx_cell(2, channel=2, purpose=CellPurpose.BROADCAST))
        assert sf.listen_at(2) == (CellPurpose.BROADCAST.priority, 2)
        sf.remove_cells_with_neighbor(None)
        assert sf.listen_at(2) is None  # only cells without a neighbor were there
        sf.add_cell(first)
        sf.add_cell(rx_cell(2, channel=3, neighbor=9))
        sf.remove_cell(first)
        assert sf.listen_at(2) == (CellPurpose.UNICAST_DATA.priority, 3)

    def test_tx_only_offsets_and_clear(self):
        sf = Slotframe(0, 3)
        sf.add_cell(tx_cell(0))
        sf.add_cell(rx_cell(1, channel=2))
        assert [sf.listen_at(asn) for asn in range(3)] == [
            None,
            (CellPurpose.UNICAST_DATA.priority, 2),
            None,
        ]
        sf.clear()
        assert [sf.listen_at(asn) for asn in range(3)] == [None, None, None]


class TestCduRendering:
    def test_render_contains_labels(self):
        sf = Slotframe(0, 6)
        sf.add_cell(Cell(1, 2, CellOption.TX, neighbor=4))
        sf.add_cell(Cell(3, 0, CellOption.RX, neighbor=None))
        grid = render_cdu_matrix([sf], num_channels=4)
        assert grid[2][1] == "Tx->4"
        assert grid[0][3] == "Rx->*"
        assert grid[0][0] == ""

    def test_render_merges_multiple_cells(self):
        sf = Slotframe(0, 4)
        sf.add_cell(Cell(1, 1, CellOption.TX, neighbor=2))
        sf.add_cell(Cell(1, 1, CellOption.RX, neighbor=3))
        grid = render_cdu_matrix([sf], num_channels=2)
        assert "Tx->2" in grid[1][1] and "Rx->3" in grid[1][1]


class TestVersionTracking:
    def test_on_change_callback_fires(self):
        sf = Slotframe(handle=0, length=10)
        calls = []
        sf.on_change = lambda: calls.append(True)
        sf.add_cell(Cell(slot_offset=1, channel_offset=0, options=CellOption.TX))
        assert calls

    def test_add_cell_out_of_range_raises_value_error(self):
        sf = Slotframe(handle=0, length=10)
        with pytest.raises(ValueError):
            sf.add_cell(Cell(slot_offset=12, channel_offset=0, options=CellOption.TX))

    def test_cells_at_is_constant_time_lookup(self):
        sf = Slotframe(handle=0, length=10)
        cell = sf.add_cell(Cell(slot_offset=4, channel_offset=0, options=CellOption.RX))
        # The same bucket object is returned for every equivalent ASN.
        assert sf.cells_at(4) is sf.cells_at(14)
        assert sf.cells_at(4) == [cell]
        assert sf.cells_at(5) == []


class TestMutationBarrier:
    """``on_change`` fires before a mutation applies, and only for a real one.

    The owning TSCH engine settles the node's deferred duty-cycle and CSMA
    state from this hook, so the hook must still see the schedule that held
    until now: the old bucket and the old listen entry.
    """

    OFFSET = 3

    def _watched(self):
        sf = Slotframe(handle=0, length=10)
        seen = []
        sf.on_change = lambda: seen.append(
            (list(sf.cells_at_offset(self.OFFSET)), sf.listen_at(self.OFFSET))
        )
        return sf, seen

    def test_hook_sees_the_pre_change_bucket(self):
        sf, seen = self._watched()
        rx = sf.add_cell(Cell(self.OFFSET, 1, CellOption.RX, neighbor=7))
        tx = sf.add_cell(Cell(self.OFFSET, 2, CellOption.TX, neighbor=8))
        assert seen == [([], None), ([rx], (rx.purpose.priority, 1))]
        sf.remove_cell(rx)
        assert seen[-1] == ([rx, tx], (rx.purpose.priority, 1))
        sf.add_cell(Cell(self.OFFSET, 4, CellOption.RX, neighbor=8))
        seen.clear()
        assert sf.remove_cells_with_neighbor(8) == 2
        # One notification for the whole sweep, before its first change.
        assert len(seen) == 1 and len(seen[0][0]) == 2
        sf.add_cell(Cell(self.OFFSET, 5, CellOption.RX))
        seen.clear()
        sf.clear()
        assert len(seen) == 1 and len(seen[0][0]) == 1 and seen[0][1] is not None
        assert sf.cells_at_offset(self.OFFSET) == []

    def test_no_hook_when_nothing_changes(self):
        sf, seen = self._watched()
        cell = sf.add_cell(Cell(self.OFFSET, 1, CellOption.RX))
        seen.clear()
        # Duplicate add, missing remove (by value, in range or not) and a
        # neighbor sweep that matches nothing leave the schedule as it is.
        sf.add_cell(Cell(self.OFFSET, 1, CellOption.RX))
        assert not sf.remove_cell(Cell(self.OFFSET, 2, CellOption.RX))
        assert not sf.remove_cell(Cell(12, 1, CellOption.RX))
        assert sf.remove_cells_with_neighbor(9) == 0
        assert seen == []
        # Removal matches by value, as list.remove does.
        assert sf.remove_cell(Cell(self.OFFSET, 1, CellOption.RX))
        assert len(seen) == 1 and seen[0][0] == [cell]
