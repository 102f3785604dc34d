"""Unit tests for :mod:`repro.faults.plan`: validation, ordering, seeding."""

from __future__ import annotations

import pytest

from repro.experiments.parallel import scenario_fingerprint
from repro.experiments.scenarios import MINIMAL, traffic_load_scenario
from repro.faults import (
    FaultPlan,
    LinkDegradation,
    NodeArrival,
    NodeCrash,
    NodeRejoin,
    ParentLoss,
)

NAN = float("nan")
INF = float("inf")


class TestValidation:
    def test_negative_crash_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(crashes=(NodeCrash(time_s=-1.0, node_id=3),))

    def test_negative_detect_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(crashes=(NodeCrash(time_s=1.0, node_id=3, detect_after_s=-0.5),))

    def test_rejoin_without_matching_crash_rejected(self):
        with pytest.raises(ValueError, match="no matching crash"):
            FaultPlan(rejoins=(NodeRejoin(time_s=5.0, node_id=3),))

    @pytest.mark.parametrize("scale", [0.0, -0.2, 1.5])
    def test_prr_scale_outside_unit_interval_rejected(self, scale):
        with pytest.raises(ValueError, match="prr_scale"):
            FaultPlan(
                link_epochs=(
                    LinkDegradation(time_s=1.0, prr_scale=scale, duration_s=2.0),
                )
            )

    def test_non_positive_epoch_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultPlan(
                link_epochs=(
                    LinkDegradation(time_s=1.0, prr_scale=0.5, duration_s=0.0),
                )
            )

    def test_is_empty(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan(
            parent_losses=(ParentLoss(time_s=1.0, node_id=2),)
        ).is_empty()
        assert not FaultPlan(arrivals=(NodeArrival(time_s=1.0, node_id=2),)).is_empty()

    def test_negative_arrival_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(arrivals=(NodeArrival(time_s=-1.0, node_id=3),))

    def test_duplicate_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrives more than once"):
            FaultPlan(
                arrivals=(
                    NodeArrival(time_s=1.0, node_id=3),
                    NodeArrival(time_s=2.0, node_id=3),
                )
            )

    def test_crash_before_arrival_rejected(self):
        # A node cannot die before it has ever powered on.
        with pytest.raises(ValueError, match="before arriving"):
            FaultPlan(
                crashes=(NodeCrash(time_s=5.0, node_id=3),),
                rejoins=(NodeRejoin(time_s=8.0, node_id=3),),
                arrivals=(NodeArrival(time_s=10.0, node_id=3),),
            )

    @pytest.mark.parametrize(
        "plan_kwargs",
        [
            {"crashes": (NodeCrash(time_s=NAN, node_id=3),)},
            {"crashes": (NodeCrash(time_s=1.0, node_id=3, detect_after_s=NAN),)},
            {
                "crashes": (NodeCrash(time_s=1.0, node_id=3),),
                "rejoins": (NodeRejoin(time_s=NAN, node_id=3),),
            },
            {"link_epochs": (LinkDegradation(time_s=NAN, prr_scale=0.5, duration_s=2.0),)},
            {"link_epochs": (LinkDegradation(time_s=1.0, prr_scale=0.5, duration_s=NAN),)},
            {"link_epochs": (LinkDegradation(time_s=1.0, prr_scale=0.5, duration_s=INF),)},
            {"parent_losses": (ParentLoss(time_s=NAN, node_id=3),)},
            {"parent_losses": (ParentLoss(time_s=INF, node_id=3),)},
            {"arrivals": (NodeArrival(time_s=NAN, node_id=3),)},
        ],
        ids=[
            "crash-time",
            "crash-detect",
            "rejoin-time",
            "epoch-time",
            "epoch-duration-nan",
            "epoch-duration-inf",
            "parent-loss-nan",
            "parent-loss-inf",
            "arrival-time",
        ],
    )
    def test_non_finite_times_rejected(self, plan_kwargs):
        with pytest.raises(ValueError, match="finite"):
            FaultPlan(**plan_kwargs)

    def test_crash_after_arrival_accepted(self):
        plan = FaultPlan(
            crashes=(NodeCrash(time_s=20.0, node_id=3),),
            arrivals=(NodeArrival(time_s=10.0, node_id=3),),
        )
        assert len(plan.arrivals) == 1


class TestAlternation:
    """Regression: per-node crash/rejoin sequences must alternate crash-first.

    An earlier revision accepted double-crash plans and silently no-op'ed
    the second crash at run time (the injector guards on ``alive``); the
    plan validator now rejects them up front.
    """

    def test_double_crash_without_rejoin_rejected(self):
        with pytest.raises(ValueError, match="alternate"):
            FaultPlan(
                crashes=(
                    NodeCrash(time_s=5.0, node_id=3),
                    NodeCrash(time_s=9.0, node_id=3),
                ),
                rejoins=(NodeRejoin(time_s=12.0, node_id=3),),
            )

    def test_rejoin_before_crash_rejected(self):
        with pytest.raises(ValueError, match="alternate"):
            FaultPlan(
                crashes=(NodeCrash(time_s=9.0, node_id=3),),
                rejoins=(NodeRejoin(time_s=5.0, node_id=3),),
            )

    def test_double_rejoin_after_one_crash_rejected(self):
        with pytest.raises(ValueError, match="alternate"):
            FaultPlan(
                crashes=(NodeCrash(time_s=5.0, node_id=3),),
                rejoins=(
                    NodeRejoin(time_s=9.0, node_id=3),
                    NodeRejoin(time_s=12.0, node_id=3),
                ),
            )

    def test_crash_rejoin_crash_rejoin_accepted(self):
        plan = FaultPlan(
            crashes=(
                NodeCrash(time_s=5.0, node_id=3),
                NodeCrash(time_s=15.0, node_id=3),
            ),
            rejoins=(
                NodeRejoin(time_s=10.0, node_id=3),
                NodeRejoin(time_s=20.0, node_id=3),
            ),
        )
        assert len(plan.crashes) == 2

    def test_trailing_crash_without_rejoin_accepted(self):
        # A node may stay down for the rest of the run.
        plan = FaultPlan(crashes=(NodeCrash(time_s=5.0, node_id=3),))
        assert plan.rejoins == ()


class TestEventOrdering:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            crashes=(NodeCrash(time_s=9.0, node_id=3),),
            rejoins=(NodeRejoin(time_s=15.0, node_id=3),),
            link_epochs=(LinkDegradation(time_s=4.0, prr_scale=0.5, duration_s=2.0),),
            parent_losses=(ParentLoss(time_s=12.0, node_id=5),),
        )
        times = [time_s for time_s, _order, _event in plan.events()]
        assert times == sorted(times) == [4.0, 9.0, 12.0, 15.0]

    def test_same_instant_tie_break_is_deterministic(self):
        """Degrade fires before crash, crash before rejoin, rejoin before
        parent loss when all share one fire time."""
        plan = FaultPlan(
            crashes=(NodeCrash(time_s=10.0, node_id=3),),
            rejoins=(NodeRejoin(time_s=10.0, node_id=3),),
            link_epochs=(LinkDegradation(time_s=10.0, prr_scale=0.5, duration_s=1.0),),
            parent_losses=(ParentLoss(time_s=10.0, node_id=5),),
        )
        kinds = [type(event) for _time, _order, event in plan.events()]
        assert kinds == [LinkDegradation, NodeCrash, NodeRejoin, ParentLoss]

    def test_arrival_fires_last_at_same_instant(self):
        plan = FaultPlan(
            crashes=(NodeCrash(time_s=10.0, node_id=3),),
            parent_losses=(ParentLoss(time_s=10.0, node_id=5),),
            arrivals=(NodeArrival(time_s=10.0, node_id=6),),
        )
        kinds = [type(event) for _time, _order, event in plan.events()]
        assert kinds == [NodeCrash, ParentLoss, NodeArrival]


class TestChurnFactory:
    CANDIDATES = [1, 2, 3, 4, 5, 6, 8, 9]

    def test_same_seed_same_plan(self):
        first = FaultPlan.churn(self.CANDIDATES, seed=7, num_crashes=3)
        second = FaultPlan.churn(self.CANDIDATES, seed=7, num_crashes=3)
        assert first == second

    def test_different_seed_can_differ(self):
        plans = {
            FaultPlan.churn(self.CANDIDATES, seed=seed, num_crashes=3).crashes
            for seed in range(8)
        }
        assert len(plans) > 1

    def test_victims_come_from_candidates_without_replacement(self):
        plan = FaultPlan.churn(self.CANDIDATES, seed=2, num_crashes=4)
        victims = [crash.node_id for crash in plan.crashes]
        assert len(set(victims)) == 4
        assert set(victims) <= set(self.CANDIDATES)

    def test_every_crash_gets_a_rejoin(self):
        plan = FaultPlan.churn(
            self.CANDIDATES, seed=1, num_crashes=2, rejoin_after_s=5.0
        )
        assert len(plan.rejoins) == 2
        by_node = {rejoin.node_id: rejoin for rejoin in plan.rejoins}
        for crash in plan.crashes:
            assert by_node[crash.node_id].time_s == crash.time_s + 5.0

    def test_degrade_and_parent_loss_gated_on_positive_times(self):
        bare = FaultPlan.churn(self.CANDIDATES, seed=1, num_crashes=1)
        assert bare.link_epochs == ()
        assert bare.parent_losses == ()
        full = FaultPlan.churn(
            self.CANDIDATES,
            seed=1,
            num_crashes=1,
            degrade_at_s=40.0,
            parent_loss_at_s=50.0,
        )
        assert len(full.link_epochs) == 1
        assert len(full.parent_losses) == 1
        # The parent-loss victim survives the crashes.
        victims = {crash.node_id for crash in full.crashes}
        assert full.parent_losses[0].node_id not in victims

    def test_too_many_crashes_rejected(self):
        with pytest.raises(ValueError, match="cannot crash"):
            FaultPlan.churn([1, 2], num_crashes=3)

    def test_arrival_draws_never_perturb_legacy_plans(self):
        """Plans built without arrivals are bit-identical to the historic
        factory output: the arrival draws happen after every legacy draw."""
        legacy = FaultPlan.churn(
            self.CANDIDATES, seed=3, num_crashes=2, degrade_at_s=40.0,
            parent_loss_at_s=50.0,
        )
        with_arrivals = FaultPlan.churn(
            self.CANDIDATES, seed=3, num_crashes=2, degrade_at_s=40.0,
            parent_loss_at_s=50.0, num_arrivals=2, arrival_window=(60.0, 70.0),
        )
        assert with_arrivals.crashes == legacy.crashes
        assert with_arrivals.rejoins == legacy.rejoins
        assert with_arrivals.link_epochs == legacy.link_epochs
        assert with_arrivals.parent_losses == legacy.parent_losses
        assert len(with_arrivals.arrivals) == 2

    def test_arrivals_avoid_crash_and_parent_loss_victims(self):
        plan = FaultPlan.churn(
            self.CANDIDATES, seed=5, num_crashes=3, parent_loss_at_s=50.0,
            num_arrivals=4, arrival_window=(60.0, 80.0),
        )
        taken = {crash.node_id for crash in plan.crashes}
        taken.update(loss.node_id for loss in plan.parent_losses)
        arrivers = {arrival.node_id for arrival in plan.arrivals}
        assert not (arrivers & taken)
        assert arrivers <= set(self.CANDIDATES)

    def test_arrival_times_spread_across_window(self):
        plan = FaultPlan.churn(
            self.CANDIDATES, seed=1, num_crashes=1,
            num_arrivals=2, arrival_window=(60.0, 70.0),
        )
        assert [a.time_s for a in plan.arrivals] == [60.0, 65.0]

    def test_too_many_arrivals_rejected(self):
        with pytest.raises(ValueError, match="cannot arrive"):
            FaultPlan.churn(
                [1, 2, 3], num_crashes=2, num_arrivals=2,
                arrival_window=(60.0, 70.0),
            )


class TestFingerprinting:
    def _scenario(self, plan):
        from dataclasses import replace

        base = traffic_load_scenario(rate_ppm=60.0, scheduler=MINIMAL)
        return replace(base, faults=plan)

    def test_plan_participates_in_scenario_fingerprint(self):
        without = self._scenario(None)
        with_plan = self._scenario(
            FaultPlan(crashes=(NodeCrash(time_s=40.0, node_id=3),))
        )
        shifted = self._scenario(
            FaultPlan(crashes=(NodeCrash(time_s=41.0, node_id=3),))
        )
        prints = {
            scenario_fingerprint(without),
            scenario_fingerprint(with_plan),
            scenario_fingerprint(shifted),
        }
        assert len(prints) == 3

    def test_identical_plans_fingerprint_identically(self):
        first = self._scenario(FaultPlan.churn([1, 2, 3], seed=4, num_crashes=2))
        second = self._scenario(FaultPlan.churn([1, 2, 3], seed=4, num_crashes=2))
        assert scenario_fingerprint(first) == scenario_fingerprint(second)

    def test_arrivals_change_the_fingerprint(self):
        bare = self._scenario(FaultPlan())
        with_arrival = self._scenario(
            FaultPlan(arrivals=(NodeArrival(time_s=40.0, node_id=3),))
        )
        shifted = self._scenario(
            FaultPlan(arrivals=(NodeArrival(time_s=41.0, node_id=3),))
        )
        prints = {
            scenario_fingerprint(bare),
            scenario_fingerprint(with_arrival),
            scenario_fingerprint(shifted),
        }
        assert len(prints) == 3
