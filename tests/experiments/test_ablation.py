"""Tests for the ablation rows (fast, reduced configurations).

Each row, run by ``run_figure`` over one value, must reproduce exactly the
cell its sweep is defined by: GT-TSCH on the Fig. 8 topology with one
``ContikiConfig`` field set to the swept value.
"""

from repro.core.game import GameWeights
from repro.experiments.ablation import ABLATIONS
from repro.experiments.runner import run_figure, run_scenario
from repro.experiments.scenarios import GT_TSCH, ContikiConfig, traffic_load_scenario

FAST = dict(rate_ppm=60.0, measurement_s=8.0, warmup_s=12.0)


def _row_run(key, value):
    """The one run of ``run_figure`` over ``value`` at seed 2."""
    result = run_figure(ABLATIONS[key], values=(value,), seeds=(2,), **FAST)
    assert result.sweep_values == [value]
    assert list(result.results) == [GT_TSCH]
    (point,) = result.results[GT_TSCH]
    assert point.seeds == [2]
    (run,) = point.runs
    return run


def _direct_run(contiki):
    return run_scenario(traffic_load_scenario(scheduler=GT_TSCH, seed=2, contiki=contiki, **FAST))


class TestWeightAblation:
    def test_returns_metrics_per_weight_set(self):
        run = _row_run("weights", (2.0, 1.0, 1.0))
        weights = GameWeights(alpha=2.0, beta=1.0, gamma=1.0)
        assert run == _direct_run(ContikiConfig(game_weights=weights))
        assert run.generated > 0


class TestEwmaAblation:
    def test_returns_metrics_per_zeta(self):
        run = _row_run("ewma", 0.9)
        assert run == _direct_run(ContikiConfig(queue_ewma_zeta=0.9))
        assert run.scheduler == GT_TSCH


class TestLoadBalancePeriodAblation:
    def test_returns_metrics_per_period(self):
        run = _row_run("lb-period", 8.0)
        assert run == _direct_run(ContikiConfig(load_balance_period_s=8.0))
        assert 0.0 <= run.pdr_percent <= 100.0


class TestRowDefaults:
    def test_rows_sweep_gt_tsch_over_a_45_second_window(self):
        for figure in ABLATIONS.values():
            assert figure.schedulers == (GT_TSCH,)
            assert (figure.warmup_s, figure.measurement_s) == (30.0, 45.0)
        assert ABLATIONS["weights"].values[0] == (8.0, 1.0, 4.0)
        assert ABLATIONS["ewma"].values == (0.0, 0.25, 0.5, 0.75, 0.9)
        assert ABLATIONS["lb-period"].values == (2.0, 4.0, 8.0, 16.0)
