"""Tests for Unicast-Data cell placement (Section V rules)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cell_allocation import (
    CellAllocationError,
    ScheduleView,
    UnicastCellAllocator,
    validate_no_consecutive_rx,
)


def view(length=32, reserved=(), tx=(), rx_by_child=None, is_root=False):
    return ScheduleView(
        slotframe_length=length,
        reserved_offsets=set(reserved),
        tx_offsets=set(tx),
        rx_offsets_by_child={k: set(v) for k, v in (rx_by_child or {}).items()},
        is_root=is_root,
    )


class TestScheduleView:
    def test_free_offsets_exclude_everything_occupied(self):
        v = view(length=8, reserved={0}, tx={1, 2}, rx_by_child={5: {3}})
        assert v.free_offsets() == [4, 5, 6, 7]
        assert v.occupied_offsets() == {0, 1, 2, 3}

    def test_counts(self):
        v = view(tx={1, 2, 3}, rx_by_child={5: {4}, 6: {7, 8}})
        assert v.tx_count() == 3
        assert v.rx_count() == 3
        assert v.all_rx_offsets() == {4, 7, 8}


class TestRxBudget:
    def test_rule1_root_limited_only_by_free_offsets(self):
        v = view(length=8, reserved={0, 1}, is_root=True)
        assert UnicastCellAllocator(v).rx_budget() == 6

    def test_rule1_non_root_keeps_tx_above_rx(self):
        v = view(tx={1, 2, 3, 4}, rx_by_child={9: {5}})
        # tx=4, rx=1 -> can accept at most 4 - 1 - 1 = 2 more.
        assert UnicastCellAllocator(v).rx_budget() == 2

    def test_rule1_zero_budget_when_tx_not_ahead(self):
        v = view(tx={1}, rx_by_child={9: {2}})
        assert UnicastCellAllocator(v).rx_budget() == 0

    def test_budget_bounded_by_free_offsets(self):
        v = view(length=6, reserved={0, 1, 2}, tx={3, 4, 5}, is_root=False)
        assert UnicastCellAllocator(v).rx_budget() == 0  # no free offsets left


class TestPickRxOffsets:
    def test_grants_no_more_than_budget(self):
        v = view(tx={1, 2, 3})
        offsets = UnicastCellAllocator(v).pick_rx_offsets(child=9, count=10)
        assert len(offsets) == 2  # tx - rx - 1 = 2

    def test_grants_requested_amount_when_possible(self):
        v = view(tx={1, 2, 3, 4, 5}, is_root=False)
        offsets = UnicastCellAllocator(v).pick_rx_offsets(child=9, count=2)
        assert len(offsets) == 2

    def test_offsets_are_free_and_distinct(self):
        v = view(tx={1, 2, 3, 4, 5}, reserved={0, 8, 16, 24}, rx_by_child={7: {6}})
        offsets = UnicastCellAllocator(v).pick_rx_offsets(child=9, count=3)
        assert len(set(offsets)) == len(offsets)
        occupied = v.occupied_offsets()
        assert not set(offsets) & occupied

    def test_allowed_candidates_respected(self):
        """RFC 8480 CellList semantics: only offsets the child proposed."""
        v = view(tx={1, 2, 3, 4, 5}, is_root=False)
        offsets = UnicastCellAllocator(v).pick_rx_offsets(child=9, count=3, allowed={10, 11})
        assert set(offsets) <= {10, 11}

    def test_no_allowed_candidate_free_raises(self):
        v = view(tx={1, 2, 3})
        with pytest.raises(CellAllocationError):
            UnicastCellAllocator(v).pick_rx_offsets(child=9, count=1, allowed={1})

    def test_zero_count_returns_empty(self):
        assert UnicastCellAllocator(view(tx={1, 2})).pick_rx_offsets(9, 0) == []

    def test_root_with_no_free_offsets_raises(self):
        v = view(length=4, reserved={0, 1, 2, 3}, is_root=True)
        with pytest.raises(CellAllocationError):
            UnicastCellAllocator(v).pick_rx_offsets(child=9, count=1)

    def test_rule2_avoids_adjacent_rx_when_alternatives_exist(self):
        """New Rx cells avoid sitting next to existing Rx cells."""
        v = view(
            length=16,
            tx={1, 5, 9, 13},
            rx_by_child={7: {2}},
            is_root=False,
        )
        offsets = UnicastCellAllocator(v).pick_rx_offsets(child=9, count=1)
        assert offsets
        assert offsets[0] not in (1, 3)  # slots adjacent to the existing Rx at 2

    def test_rule3_spreads_same_child_receptions(self):
        """A child's Rx cells are spread instead of clustered (Fig. 5c)."""
        v = view(length=32, tx=set(range(1, 12)), rx_by_child={7: {13}}, is_root=False)
        offsets = UnicastCellAllocator(v).pick_rx_offsets(child=7, count=2)
        for offset in offsets:
            assert abs(offset - 13) > 1 or offset == 13

    def test_root_grants_spread_over_slotframe(self):
        v = view(length=32, reserved={0, 8, 16, 24}, is_root=True)
        offsets = UnicastCellAllocator(v).pick_rx_offsets(child=1, count=4)
        assert len(offsets) == 4
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert max(gaps) >= 2  # not simply the first four consecutive slots


class TestValidateNoConsecutiveRx:
    def test_detects_back_to_back_rx(self):
        violations = validate_no_consecutive_rx(10, tx_offsets=[5], rx_offsets=[1, 2])
        assert violations

    def test_accepts_interleaved_schedule(self):
        violations = validate_no_consecutive_rx(10, tx_offsets=[2, 6], rx_offsets=[1, 4])
        assert violations == []

    def test_wrap_around_detected(self):
        violations = validate_no_consecutive_rx(10, tx_offsets=[5], rx_offsets=[9, 0])
        assert violations

    def test_empty_inputs_are_valid(self):
        assert validate_no_consecutive_rx(10, [], [1, 2]) == []
        assert validate_no_consecutive_rx(10, [1], []) == []


class TestAllocatorProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        tx=st.sets(st.integers(min_value=1, max_value=31), min_size=1, max_size=12),
        existing_rx=st.sets(st.integers(min_value=1, max_value=31), max_size=6),
        count=st.integers(min_value=1, max_value=8),
    )
    def test_rule1_invariant_maintained(self, tx, existing_rx, count):
        """After any grant, a non-root node still has tx > rx."""
        existing_rx = existing_rx - tx
        v = view(length=32, reserved={0}, tx=tx, rx_by_child={99: existing_rx})
        allocator = UnicastCellAllocator(v)
        try:
            granted = allocator.pick_rx_offsets(child=5, count=count)
        except CellAllocationError:
            return
        assert len(tx) > len(existing_rx) + len(granted) or len(granted) == 0

    @settings(deadline=None, max_examples=60)
    @given(
        tx=st.sets(st.integers(min_value=1, max_value=31), min_size=4, max_size=12),
        count=st.integers(min_value=1, max_value=6),
    )
    def test_granted_offsets_never_collide_with_schedule(self, tx, count):
        v = view(length=32, reserved={0, 8, 16, 24}, tx=tx)
        allocator = UnicastCellAllocator(v)
        try:
            granted = allocator.pick_rx_offsets(child=5, count=count)
        except CellAllocationError:
            return
        assert not set(granted) & v.occupied_offsets()
        assert len(set(granted)) == len(granted)
