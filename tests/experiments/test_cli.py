"""Tests for the ``python -m repro.experiments`` command line."""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import runner
from repro.experiments.__main__ import cache_main, main
from repro.experiments.parallel import ResultCache, scenario_fingerprint
from repro.experiments.scenarios import MINIMAL, traffic_load_scenario
from repro.metrics.collector import NetworkMetrics


def _tiny_args(extra=()):
    return [
        "--figure",
        "8",
        "--values",
        "30",
        "--schedulers",
        MINIMAL,
        "--measurement-s",
        "2",
        "--warmup-s",
        "2",
        "--no-cache",
        *extra,
    ]


class TestCacheSubcommand:
    def test_info_reports_entries_and_size(self, tmp_path, capsys):
        cache = ResultCache(root=str(tmp_path))
        scenario = traffic_load_scenario(rate_ppm=30, scheduler=MINIMAL)
        cache.put(scenario, NetworkMetrics(scheduler=MINIMAL))
        assert cache_main(["--info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "cache entries: 1" in out

    def test_clear_removes_entries(self, tmp_path, capsys):
        cache = ResultCache(root=str(tmp_path))
        scenario = traffic_load_scenario(rate_ppm=30, scheduler=MINIMAL)
        cache.put(scenario, NetworkMetrics(scheduler=MINIMAL))
        assert main(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert cache.info()["entries"] == 0
        assert cache.get(scenario) is None

    def test_info_on_missing_directory(self, tmp_path, capsys):
        missing = os.path.join(str(tmp_path), "nope")
        assert cache_main(["--info", "--cache-dir", missing]) == 0
        assert "cache entries: 0" in capsys.readouterr().out


class TestProfileFlag:
    def test_profile_prints_cumulative_table(self, capsys):
        assert main(_tiny_args(["--profile"])) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "(run_figure)" in out

    def test_plain_run_reports_slots_per_second(self, capsys):
        assert main(_tiny_args()) == 0
        out = capsys.readouterr().out
        assert "slots/s" in out


class TestScaleFigureExport:
    def test_scale_export_carries_six_metrics_with_seed_cis(self, tmp_path):
        """--figure scale exports the paper's metric series vs N, not just
        slots/s: per-N PDR / delay / duty-cycle / throughput columns plus
        cross-seed dispersion and the 6P-churn columns."""
        import csv

        assert (
            main(
                [
                    "--figure",
                    "scale",
                    "--values",
                    "20",
                    "30",
                    "--schedulers",
                    MINIMAL,
                    "--seeds",
                    "1",
                    "2",
                    "--measurement-s",
                    "3",
                    "--warmup-s",
                    "2",
                    "--no-cache",
                    "--export-dir",
                    str(tmp_path),
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        with open(os.path.join(str(tmp_path), "figurescale.csv")) as handle:
            rows = list(csv.DictReader(handle))
        assert {row["sweep"] for row in rows} == {"20", "30"}
        for column in (
            "pdr_percent",
            "end_to_end_delay_ms",
            "packet_loss_per_minute",
            "radio_duty_cycle_percent",
            "queue_loss_per_node",
            "received_per_minute",
            "sixp_cell_relocations",
            "sixp_relocations_per_lb_period",
            "pdr_percent_std",
            "pdr_percent_ci95",
            "n_seeds",
        ):
            assert column in rows[0], f"missing column {column}"

    def test_profile_prints_event_queue_stats(self, capsys):
        assert main(_tiny_args(["--profile"])) == 0
        out = capsys.readouterr().out
        assert "[event queue]" in out


class TestFigureRegistry:
    def test_unknown_figure_id_lists_valid_choices(self, capsys):
        """argparse choices come from the FIGURES table, so an unknown id
        errors out naming every valid figure instead of failing later."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--figure", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for figure_id in ("8", "9", "10", "scale", "churn", "churn-dynamic", "join", "all"):
            assert f"'{figure_id}'" in err

    def test_churn_figure_prints_robustness_ranking(self, capsys):
        assert (
            main(
                [
                    "--figure",
                    "churn",
                    "--values",
                    "1",
                    "--schedulers",
                    MINIMAL,
                    "--measurement-s",
                    "14",
                    "--warmup-s",
                    "8",
                    "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[figure churn] robustness ranking: 1. 6TiSCH-minimal (pdr " in out


class TestDefaultLineup:
    def test_scale_figure_runs_its_runners_three_schedulers(self, capsys):
        """Without --schedulers a figure runs its own line-up: the scale
        sweep adds the 6TiSCH-minimal floor to GT-TSCH and Orchestra."""
        args = ["--figure", "scale", "--values", "20", "--measurement-s", "2"]
        assert main([*args, "--warmup-s", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[figure scale] 1 points x 3 schedulers x 1 seeds" in out
        assert MINIMAL in out


class TestFigureWindows:
    """Without window flags each figure runs its own windows; flags win."""

    @staticmethod
    def _built_scenarios(monkeypatch, argv):
        built = []

        def run_scenarios(scenarios, jobs=1, cache=None):
            built.extend(scenarios)
            return [NetworkMetrics(scheduler=scenario.scheduler) for scenario in scenarios]

        monkeypatch.setattr(runner, "run_scenarios", run_scenarios)
        assert main([*argv, "--schedulers", MINIMAL, "--no-cache"]) == 0
        assert built
        return built

    @classmethod
    def _windows(cls, monkeypatch, argv):
        built = cls._built_scenarios(monkeypatch, argv)
        return {(scenario.warmup_s, scenario.measurement_s) for scenario in built}

    @pytest.mark.parametrize(
        "figure_id, value, windows",
        [("join", "4", (5.0, 90.0)), ("scale", "20", (20.0, 40.0)), ("8", "30", (30.0, 60.0))],
    )
    def test_figure_runs_its_own_windows(self, monkeypatch, figure_id, value, windows):
        argv = ["--figure", figure_id, "--values", value]
        assert self._windows(monkeypatch, argv) == {windows}

    @pytest.mark.parametrize("figure_id, value", [("join", "4"), ("scale", "20")])
    def test_window_flags_win(self, monkeypatch, figure_id, value):
        argv = ["--figure", figure_id, "--values", value, "--warmup-s", "8", "--measurement-s", "14"]
        assert self._windows(monkeypatch, argv) == {(8.0, 14.0)}

    def test_slots_per_second_counts_the_figures_windows(self, monkeypatch, capsys):
        # One cell in one second of wall clock: slots/s is the cell's slots.
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=iter((0.0, 1.0)).__next__))
        self._built_scenarios(monkeypatch, ["--figure", "join", "--values", "4"])
        clock = cli.SimClock()
        slots = sum(clock.seconds_to_slots(s) for s in (5.0, 90.0, cli.DEFAULT_DRAIN_S))
        assert f", {slots:,.0f} slots/s" in capsys.readouterr().out


class TestFigureValues:
    """``--values`` tokens parse into the values the figure row sweeps."""

    def test_fig8_values_share_the_rows_cache_keys(self, monkeypatch):
        # Rates 30 and 30.0 simulate the same cell but fingerprint differently.
        chosen = TestFigureWindows._built_scenarios(monkeypatch, ["--figure", "8", "--values", "30"])
        row = TestFigureWindows._built_scenarios(monkeypatch, ["--figure", "8"])
        fingerprints = [scenario_fingerprint(scenario) for scenario in chosen]
        assert fingerprints == [
            scenario_fingerprint(scenario) for scenario in row if scenario.rate_ppm == 30
        ]

    def test_fractional_fig8_rate_is_rejected(self):
        with pytest.raises(SystemExit, match="--values for figure 8 must be ints"):
            main(["--figure", "8", "--values", "60.5", "--no-cache"])
