"""Tests for GT-TSCH slotframe creation (Section IV)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.cell_allocation import ScheduleView
from repro.core.config import GtTschConfig
from repro.core.slotframe_builder import (
    GtSlotframeBuilder,
    broadcast_offsets,
    shared_offsets,
)
from repro.mac.cell import CellPurpose
from repro.mac.tsch import TschConfig, TschEngine


def make_engine():
    return TschEngine(0, TschConfig(), random.Random(1))


class TestBroadcastOffsets:
    def test_paper_example(self):
        """Section IV rule 1: m=20, k=5 -> offsets {0, 4, 8, 12, 16}."""
        assert broadcast_offsets(20, 5) == [0, 4, 8, 12, 16]

    def test_table_ii_configuration(self):
        assert broadcast_offsets(32, 4) == [0, 8, 16, 24]

    def test_exactly_k_offsets_even_when_m_not_multiple(self):
        offsets = broadcast_offsets(30, 4)
        assert len(offsets) == 4
        assert offsets[0] == 0

    def test_uniform_spacing(self):
        offsets = broadcast_offsets(32, 4)
        gaps = {b - a for a, b in zip(offsets, offsets[1:])}
        assert gaps == {8}

    def test_validation(self):
        with pytest.raises(ValueError):
            broadcast_offsets(10, 0)
        with pytest.raises(ValueError):
            broadcast_offsets(10, 10)

    @given(
        st.integers(min_value=4, max_value=128),
        st.integers(min_value=1, max_value=8),
    )
    def test_offsets_valid_and_distinct(self, length, k):
        if k >= length:
            return
        offsets = broadcast_offsets(length, k)
        assert len(offsets) == k
        assert len(set(offsets)) == k
        assert all(0 <= offset < length for offset in offsets)


class TestSharedOffsets:
    def test_avoid_broadcast_offsets(self):
        shared = shared_offsets(32, 4, 3, group_owner=0)
        assert not set(shared) & set(broadcast_offsets(32, 4))

    def test_count(self):
        assert len(shared_offsets(32, 4, 3, group_owner=5)) == 3

    def test_groups_differ_between_owners(self):
        """Different parent-child groups should not all collide on the same
        shared slots (Section IV assigns shared timeslots per group)."""
        distinct = {
            tuple(shared_offsets(32, 4, 3, group_owner=owner)) for owner in range(10)
        }
        assert len(distinct) > 3

    def test_deterministic_per_owner(self):
        assert shared_offsets(32, 4, 3, group_owner=7) == shared_offsets(32, 4, 3, group_owner=7)

    def test_too_small_slotframe_rejected(self):
        with pytest.raises(ValueError):
            shared_offsets(6, 4, 5)

    @given(
        st.integers(min_value=8, max_value=96),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=40),
    )
    def test_valid_distinct_and_disjoint_from_broadcast(self, length, k, count, owner):
        if k >= length or count > length - k:
            return
        offsets = shared_offsets(length, k, count, group_owner=owner)
        assert len(offsets) == count
        assert len(set(offsets)) == count
        assert all(0 <= offset < length for offset in offsets)
        assert not set(offsets) & set(broadcast_offsets(length, k))


class TestGtSlotframeBuilder:
    def test_build_installs_broadcast_cells_only(self):
        config = GtTschConfig(slotframe_length=32, num_broadcast_cells=4)
        builder = GtSlotframeBuilder(config)
        engine = make_engine()
        slotframe = builder.build(engine)
        assert slotframe.length == 32
        assert len(slotframe) == 4
        for cell in slotframe.all_cells():
            assert cell.purpose is CellPurpose.BROADCAST
            assert cell.is_broadcast
            assert not cell.is_shared  # broadcast cells never carry unicast
            assert cell.channel_offset == config.broadcast_channel_offset

    def test_shared_cells_towards_parent(self):
        config = GtTschConfig()
        builder = GtSlotframeBuilder(config)
        engine = make_engine()
        builder.build(engine)
        cells = builder.install_shared_cells_towards_parent(engine, parent=3, parent_channel_offset=5)
        assert len(cells) == config.num_shared_cells
        for cell in cells:
            assert cell.is_tx and cell.is_rx and cell.is_shared
            assert cell.neighbor == 3
            assert cell.channel_offset == 5
            assert cell.purpose is CellPurpose.SHARED

    def test_shared_cells_for_children(self):
        config = GtTschConfig()
        builder = GtSlotframeBuilder(config)
        engine = make_engine()
        builder.build(engine)
        cells = builder.install_shared_cells_for_children(engine, owner=0, child_channel_offset=2)
        assert len(cells) == config.num_shared_cells
        for cell in cells:
            assert cell.is_rx and cell.is_shared and not cell.is_tx
            assert cell.neighbor is None

    def test_reserved_and_negotiable_offsets_partition_slotframe(self):
        config = GtTschConfig(slotframe_length=32, num_broadcast_cells=4)
        builder = GtSlotframeBuilder(config)
        reserved = builder.reserved_offsets(group_owners=[0, 7])
        assert reserved == (
            set(broadcast_offsets(32, 4))
            | set(builder.shared_cell_offsets(0))
            | set(builder.shared_cell_offsets(7))
        )
        # Negotiated cells take the rest: the free offsets of an empty schedule.
        negotiable = ScheduleView(slotframe_length=32, reserved_offsets=reserved).free_offsets()
        assert not set(negotiable) & reserved
        assert sorted(set(negotiable) | reserved) == list(range(32))

    def test_sleep_is_default_state(self):
        """Offsets without installed cells are sleep slots (rule: sleep is the
        default type when the slotframe is initialised)."""
        config = GtTschConfig(slotframe_length=32, num_broadcast_cells=4)
        builder = GtSlotframeBuilder(config)
        engine = make_engine()
        slotframe = builder.build(engine)
        assert len(slotframe.free_slot_offsets()) == 32 - 4
