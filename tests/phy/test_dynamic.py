"""Unit tests for :mod:`repro.phy.dynamic`: policy validation and pickling,
driver purity and per-link scale application."""

from __future__ import annotations

import pickle

import pytest

from repro.phy.dynamic import (
    DynamicMediumDriver,
    arm_link_drift,
    default_drift_policy,
)


class TestPolicyValidation:
    def test_defaults_factory_builds_a_valid_policy(self):
        policy = default_drift_policy()
        assert policy.num_epochs == 3
        assert policy.end_s() == 15.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_s"):
            default_drift_policy(start_s=-1.0)

    @pytest.mark.parametrize("epoch_s", [0.0, -2.0])
    def test_non_positive_epoch_rejected(self, epoch_s):
        with pytest.raises(ValueError, match="epoch_s"):
            default_drift_policy(epoch_s=epoch_s)

    @pytest.mark.parametrize("start_s", [float("nan"), float("inf")])
    def test_non_finite_start_rejected(self, start_s):
        with pytest.raises(ValueError, match="start_s must be finite"):
            default_drift_policy(start_s=start_s)

    @pytest.mark.parametrize("epoch_s", [float("nan"), float("inf")])
    def test_non_finite_epoch_rejected(self, epoch_s):
        with pytest.raises(ValueError, match="epoch_s must be finite"):
            default_drift_policy(epoch_s=epoch_s)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="num_epochs"):
            default_drift_policy(num_epochs=0)

    @pytest.mark.parametrize(
        "low,high", [(0.0, 0.5), (0.6, 0.5), (0.5, 1.2), (-0.1, 0.5)]
    )
    def test_bad_scale_interval_rejected(self, low, high):
        with pytest.raises(ValueError, match="scale"):
            default_drift_policy(scale_low=low, scale_high=high)

    @pytest.mark.parametrize("fraction", [-0.1, 1.1])
    def test_bad_link_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="link_fraction"):
            default_drift_policy(link_fraction=fraction)

    def test_policy_is_immutable(self):
        policy = default_drift_policy()
        with pytest.raises(AttributeError):
            policy.seed = 2

    def test_end_time(self):
        policy = default_drift_policy(start_s=10.0, epoch_s=4.0, num_epochs=5)
        assert policy.end_s() == 30.0

    def test_pickle_round_trip(self):
        """Pool workers receive policies by pickle (frozen + slotted class)."""
        policy = default_drift_policy(seed=9, start_s=2.5, link_fraction=0.4)
        restored = pickle.loads(pickle.dumps(policy))
        assert restored == policy
        assert hash(restored) == hash(policy)
        with pytest.raises(AttributeError):
            restored.seed = 2


def _network(num_nodes=4):
    """A tiny live network with a frozen medium."""
    from repro.net.network import Network
    from repro.schedulers.minimal import MinimalScheduler

    network = Network()
    for node_id in range(num_nodes):
        network.add_node(
            node_id,
            position=(float(node_id) * 10.0, 0.0),
            scheduler=MinimalScheduler(),
            is_root=node_id == 0,
        )
    network.medium.freeze()
    return network


class TestDriver:
    def test_draw_is_a_pure_function_of_seed_and_index(self):
        network = _network()
        policy = default_drift_policy(seed=7)
        driver = DynamicMediumDriver(network, policy)
        first = driver.draw_scale_rows(1)
        second = driver.draw_scale_rows(1)
        assert first == second
        # A second driver over the same policy draws the same table.
        other = DynamicMediumDriver(network, default_drift_policy(seed=7))
        assert other.draw_scale_rows(1) == first

    def test_different_epochs_and_seeds_draw_different_tables(self):
        network = _network()
        driver = DynamicMediumDriver(network, default_drift_policy(seed=7))
        assert driver.draw_scale_rows(0) != driver.draw_scale_rows(1)
        reseeded = DynamicMediumDriver(network, default_drift_policy(seed=8))
        assert reseeded.draw_scale_rows(0) != driver.draw_scale_rows(0)

    def test_drawn_scales_respect_the_policy_bounds(self):
        network = _network()
        policy = default_drift_policy(seed=3, scale_low=0.6, scale_high=0.8)
        driver = DynamicMediumDriver(network, policy)
        rows = driver.draw_scale_rows(0)
        assert set(rows) == set(network.medium.node_ids())
        for row in rows.values():
            assert len(row) == 4
            for value in row:
                assert value == 1.0 or 0.6 <= value <= 0.8

    def test_arm_schedules_epochs_and_restore(self):
        network = _network()
        policy = default_drift_policy(seed=1, start_s=2.0, epoch_s=1.0, num_epochs=2)
        driver = arm_link_drift(network, policy)
        assert driver is not None and driver.armed
        assert arm_link_drift(network, None) is None
        before = len(network.events._heap)
        driver.arm()  # idempotent
        assert len(network.events._heap) == before

        assert not network.medium.in_link_epoch
        network.events.run_until(2.5)
        assert network.medium.in_link_epoch
        assert network.medium.link_epoch == 1
        network.events.run_until(3.5)
        assert network.medium.link_epoch == 2
        network.events.run_until(4.5)
        # Restore fired: pristine tables, three transitions total.
        assert not network.medium.in_link_epoch
        assert network.medium.link_epoch == 3

    def test_restore_is_bit_exact(self):
        network = _network()
        medium = network.medium
        ids = medium.node_ids()

        def prrs():
            return {(a, b): medium.link_prr(a, b) for a in ids for b in ids}

        pristine = prrs()
        # Every link drifts, so the epoch visibly changes every usable PRR.
        policy = default_drift_policy(seed=2, link_fraction=1.0)
        rows = DynamicMediumDriver(network, policy).draw_scale_rows(0)
        medium.set_link_prr_scales(rows)
        assert prrs() == {
            (a, b): value * rows[a][ids.index(b)] for (a, b), value in pristine.items()
        }
        assert any(medium.link_prr(a, b) != value for (a, b), value in pristine.items())
        medium.set_link_prr_scales(None)
        assert prrs() == pristine
