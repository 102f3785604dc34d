"""Tests for load balancing (Section VI, Eq. (1)) and the EWMA queue metric."""

import pytest
from hypothesis import given, strategies as st

from repro.core.load_balancing import (
    QueueMetric,
    compute_minimum_tx_cells,
    generation_cells_per_slotframe,
)


class TestEquationOne:
    def test_paper_formula(self):
        """l_tx_min = l_g + l_tx_cs - l_tx_free."""
        assert compute_minimum_tx_cells(2, 3, 1) == 4
        assert compute_minimum_tx_cells(1, 0, 0) == 1

    def test_clamped_at_zero_when_spare_capacity_exceeds_demand(self):
        assert compute_minimum_tx_cells(1, 1, 5) == 0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            compute_minimum_tx_cells(-1, 0, 0)
        with pytest.raises(ValueError):
            compute_minimum_tx_cells(0, -1, 0)
        with pytest.raises(ValueError):
            compute_minimum_tx_cells(0, 0, -1)

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
    )
    def test_non_negative_and_monotone_in_demand(self, l_g, child, free):
        base = compute_minimum_tx_cells(l_g, child, free)
        assert base >= 0
        assert compute_minimum_tx_cells(l_g + 1, child, free) >= base
        assert compute_minimum_tx_cells(l_g, child + 1, free) >= base
        assert compute_minimum_tx_cells(l_g, child, free + 1) <= base


class TestGenerationCells:
    def test_table_ii_slotframe(self):
        """120 ppm with a 32-slot / 15 ms slotframe = 0.96 packets/slotframe -> 1 cell."""
        assert generation_cells_per_slotframe(120, 32, 0.015) == 1

    def test_heavy_load(self):
        assert generation_cells_per_slotframe(165, 32, 0.015) == 2

    def test_zero_rate_needs_no_cells(self):
        assert generation_cells_per_slotframe(0, 32, 0.015) == 0

    def test_longer_slotframes_need_more_cells(self):
        short = generation_cells_per_slotframe(120, 32, 0.015)
        long = generation_cells_per_slotframe(120, 80, 0.015)
        assert long > short

    def test_validation(self):
        with pytest.raises(ValueError):
            generation_cells_per_slotframe(-1, 32, 0.015)
        with pytest.raises(ValueError):
            generation_cells_per_slotframe(10, 0, 0.015)
        with pytest.raises(ValueError):
            generation_cells_per_slotframe(10, 32, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=600.0),
        st.integers(min_value=4, max_value=128),
    )
    def test_cells_cover_offered_load(self, rate, slotframe_length):
        cells = generation_cells_per_slotframe(rate, slotframe_length, 0.015)
        packets_per_slotframe = rate / 60.0 * slotframe_length * 0.015
        assert cells >= packets_per_slotframe - 1e-6
        assert cells <= packets_per_slotframe + 1.0


class TestQueueMetric:
    def test_eq6_single_update(self):
        metric = QueueMetric(zeta=0.5, q_max=8)
        assert metric.update(4) == pytest.approx(2.0)
        assert metric.update(4) == pytest.approx(3.0)

    def test_zeta_zero_tracks_instantaneous_queue(self):
        metric = QueueMetric(zeta=0.0, q_max=8)
        metric.update(5)
        assert metric.value == 5.0

    def test_zeta_one_never_moves(self):
        metric = QueueMetric(zeta=1.0, q_max=8)
        metric.update(8)
        assert metric.value == 0.0

    def test_clamps_to_q_max(self):
        metric = QueueMetric(zeta=0.0, q_max=8)
        metric.update(100)
        assert metric.value == 8.0
        assert metric.occupancy == 1.0

    def test_occupancy_bounds(self):
        metric = QueueMetric(zeta=0.5, q_max=8)
        assert metric.occupancy == 0.0
        for _ in range(50):
            metric.update(8)
        assert metric.occupancy == pytest.approx(1.0, abs=1e-3)

    def test_reset(self):
        metric = QueueMetric()
        metric.update(5)
        metric.reset()
        assert metric.value == 0.0
        assert metric.updates == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueMetric(zeta=2.0)
        with pytest.raises(ValueError):
            QueueMetric(q_max=0)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=50))
    def test_value_always_within_queue_bounds(self, samples):
        metric = QueueMetric(zeta=0.6, q_max=8)
        for sample in samples:
            metric.update(sample)
            assert 0.0 <= metric.value <= 8.0
