"""Tests for ETX estimation."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.linkstats import ETX_MAX, ETX_MIN, EtxEstimator


class TestEtxEstimator:
    def test_initial_etx_used_for_unknown_links(self):
        estimator = EtxEstimator(initial_etx=2.0)
        assert estimator.etx(42) == 2.0

    def test_successful_single_attempts_drive_etx_towards_one(self):
        estimator = EtxEstimator(alpha=0.5, initial_etx=2.0)
        for _ in range(30):
            estimator.record_tx(1, success=True, attempts=1)
        assert estimator.etx(1) == pytest.approx(1.0, abs=0.01)

    def test_failures_drive_etx_up(self):
        estimator = EtxEstimator(alpha=0.5, initial_etx=2.0)
        for _ in range(30):
            estimator.record_tx(1, success=False, attempts=5)
        assert estimator.etx(1) > 4.0

    def test_etx_clamped_to_bounds(self):
        estimator = EtxEstimator(alpha=0.0)
        estimator.record_tx(1, success=False, attempts=100)
        assert estimator.etx(1) <= ETX_MAX
        estimator.record_tx(2, success=True, attempts=1)
        assert estimator.etx(2) >= ETX_MIN

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            EtxEstimator(alpha=1.0)
        with pytest.raises(ValueError):
            EtxEstimator(initial_etx=0.5)
        with pytest.raises(ValueError):
            EtxEstimator().record_tx(1, success=True, attempts=0)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=8)),
            min_size=1,
            max_size=50,
        )
    )
    def test_etx_always_within_bounds(self, outcomes):
        estimator = EtxEstimator(alpha=0.9)
        for success, attempts in outcomes:
            value = estimator.record_tx(7, success=success, attempts=attempts)
            assert ETX_MIN <= value <= ETX_MAX
