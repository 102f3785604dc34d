"""Tests for the figure table and its runner (small, fast configurations)."""

from repro.experiments.runner import (
    FIGURES,
    FigureResult,
    run_figure,
    run_scenario,
)
from repro.experiments.scenarios import GT_TSCH, MINIMAL, ORCHESTRA, traffic_load_scenario
from repro.metrics.collector import NetworkMetrics

#: Short durations so the whole figure machinery is exercised quickly.
FAST = dict(measurement_s=10.0, warmup_s=15.0)


class TestRunScenario:
    def test_returns_metrics(self):
        scenario = traffic_load_scenario(rate_ppm=60, scheduler=GT_TSCH, **FAST)
        metrics = run_scenario(scenario)
        assert isinstance(metrics, NetworkMetrics)
        assert metrics.scheduler == GT_TSCH
        assert metrics.generated > 0


class TestFigureRunners:
    def test_figure8_structure(self):
        result = run_figure(FIGURES["8"], values=(60,), schedulers=(GT_TSCH,), **FAST)
        assert isinstance(result, FigureResult)
        assert result.sweep_values == [60]
        assert set(result.results) == {GT_TSCH}
        assert len(result.results[GT_TSCH]) == 1
        assert result.series(GT_TSCH, "pdr_percent")[0] > 0

    def test_figure8_compares_both_schedulers(self):
        result = run_figure(FIGURES["8"], values=(60,), **FAST)
        assert set(result.results) == {GT_TSCH, ORCHESTRA}
        report = result.report()
        assert "GT-TSCH" in report and "Orchestra" in report
        assert "PDR (%)" in report

    def test_figure9_sweeps_dodag_size(self):
        result = run_figure(
            FIGURES["9"], values=(6,), schedulers=(GT_TSCH,), rate_ppm=60, **FAST
        )
        assert result.sweep_values == [6]
        assert "nodes per DODAG" in result.sweep_label

    def test_figure10_sweeps_slotframe_length(self):
        result = run_figure(
            FIGURES["10"], values=(8,), schedulers=(GT_TSCH,), rate_ppm=60, **FAST
        )
        assert result.sweep_values == [8]
        assert "slotframe" in result.sweep_label

    def test_rows_are_flat_dicts(self):
        result = run_figure(FIGURES["8"], values=(60,), schedulers=(GT_TSCH,), **FAST)
        rows = result.rows()
        assert len(rows) == 1
        assert rows[0]["sweep"] == 60
        assert rows[0]["scheduler"] == GT_TSCH
        assert "pdr_percent" in rows[0]


class TestFigureTable:
    # The line-ups are data of the figure table; these pin the ones the
    # committed results were produced with.
    def test_paper_figures_compare_gt_tsch_with_orchestra(self):
        for figure_id in ("8", "9", "10"):
            assert FIGURES[figure_id].schedulers == (GT_TSCH, ORCHESTRA)

    def test_robustness_figures_add_the_minimal_floor(self):
        for figure_id in ("scale", "churn", "churn-dynamic", "join"):
            assert FIGURES[figure_id].schedulers == (GT_TSCH, ORCHESTRA, MINIMAL)

    def test_churn_dynamic_replays_one_drift_schedule_inside_the_window(self):
        figure = FIGURES["churn-dynamic"]
        cell = figure.cell(2, GT_TSCH, warmup_s=10.0, measurement_s=20.0)
        assert len(cell.faults.arrivals) == 1
        assert cell.link_drift.seed == 1
        assert cell.link_drift.start_s == 10.0 + 0.20 * 20.0
        assert cell.link_drift.epoch_s == 0.15 * 20.0


class TestChurnRunner:
    def test_churn_reports_recovery_metrics_with_cis(self):
        result = run_figure(
            FIGURES["churn"],
            values=(1,),
            schedulers=(MINIMAL,),
            rate_ppm=60.0,
            seeds=(1, 2),
            measurement_s=14.0,
            warmup_s=8.0,
        )
        assert result.sweep_values == [1]
        assert "crashes" in result.sweep_label
        point = result.results[MINIMAL][0]
        assert point.n == 2
        row = result.rows()[0]
        # The recovery metrics flow through aggregate + rows with CIs.
        for key in (
            "time_to_reconverge_s",
            "pdr_under_churn_percent",
            "packets_lost_to_crash",
            "orphaned_cell_slots",
        ):
            assert key in row
            assert f"{key}_ci95" in row
        assert row["time_to_reconverge_s"] > 0.0

    def test_multi_seed_sweep_replays_the_same_fault_plan(self):
        from repro.experiments.scenarios import churn_scenario

        first = churn_scenario(1, MINIMAL, seed=1)
        second = churn_scenario(1, MINIMAL, seed=2)
        assert first.faults == second.faults


class TestRanking:
    """``FigureResult.ranking`` orders schedulers by sweep-mean metric."""

    @staticmethod
    def _result():
        def point(pdr):
            return NetworkMetrics(scheduler="x", pdr_percent=pdr, delivered=int(pdr))

        return FigureResult(
            figure="churn",
            sweep_label="crashes",
            sweep_values=[1, 2],
            results={
                "A": [point(90), point(70)],  # mean 80
                "B": [point(95), point(93)],  # mean 94
                "C": [point(60), point(100)],  # mean 80, ties A
            },
        )

    def test_defaults_to_pdr_percent_descending(self):
        ranking = self._result().ranking()
        assert [name for name, _ in ranking] == ["B", "A", "C"]
        assert ranking[0][1] == 94.0
        # Ties keep the line-up order (stable sort): A before C.
        assert ranking[1][1] == ranking[2][1] == 80.0

    def test_ascending_and_custom_metric(self):
        ranking = self._result().ranking("delivered", descending=False)
        assert [name for name, _ in ranking] == ["A", "C", "B"]
