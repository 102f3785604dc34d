"""Tests for the parallel experiment engine: parity, caching, CLI."""

import csv
import json
import logging
import os
import pickle
import time
from dataclasses import replace

import pytest

from repro.experiments.__main__ import main as experiments_cli
from repro.experiments.parallel import (
    ResultCache,
    run_scenario,
    run_scenarios,
    scenario_fingerprint,
)
from repro.experiments.runner import FIGURES, run_figure
from repro.experiments.scenarios import (
    GT_TSCH,
    ORCHESTRA,
    churn_scenario,
    traffic_load_scenario,
)
from repro.metrics.aggregate import MetricsAggregate
from repro.phy.dynamic import default_drift_policy

#: Short durations so the whole engine is exercised quickly.
FAST = dict(measurement_s=5.0, warmup_s=8.0)


def fast_scenario(rate_ppm=120.0, scheduler=GT_TSCH, seed=1):
    return traffic_load_scenario(
        rate_ppm=rate_ppm, scheduler=scheduler, seed=seed, **FAST
    )


class TestFingerprint:
    def test_stable_for_equal_scenarios(self):
        assert scenario_fingerprint(fast_scenario()) == scenario_fingerprint(
            fast_scenario()
        )

    def test_sensitive_to_every_knob(self):
        base = scenario_fingerprint(fast_scenario())
        assert scenario_fingerprint(fast_scenario(seed=2)) != base
        assert scenario_fingerprint(fast_scenario(rate_ppm=60.0)) != base
        assert scenario_fingerprint(fast_scenario(scheduler=ORCHESTRA)) != base
        longer = replace(fast_scenario(), measurement_s=6.0)
        assert scenario_fingerprint(longer) != base

    def test_rejects_objects_with_address_based_repr(self):
        class Opaque:
            pass

        scenario = replace(fast_scenario(), propagation=Opaque())
        with pytest.raises(TypeError, match="value-based"):
            scenario_fingerprint(scenario)


class TestResultCache:
    def test_second_run_hits_without_simulating(self, tmp_path, monkeypatch):
        cache = ResultCache(root=str(tmp_path))
        scenario = fast_scenario()
        first = run_scenarios([scenario], cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)

        # A fresh cache object on the same root must serve the result without
        # ever building a network.
        reread = ResultCache(root=str(tmp_path))
        monkeypatch.setattr(
            "repro.experiments.parallel.run_scenario",
            lambda scenario: pytest.fail("cache miss: scenario was re-simulated"),
        )
        second = run_scenarios([scenario], cache=reread)
        assert reread.hits == 1
        assert second[0].as_dict() == first[0].as_dict()

    def test_changed_scenario_invalidates(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        run_scenarios([fast_scenario()], cache=cache)
        run_scenarios([fast_scenario(seed=2)], cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_cache_true_uses_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        run_scenarios([fast_scenario()], cache=True)
        assert list((tmp_path / "env-cache").glob("*.pkl"))


class TestCorruptCache:
    """A corrupt cache entry is a miss: logged, recomputed, overwritten."""

    def test_garbage_entry_recomputed_and_overwritten(self, tmp_path, caplog):
        cache = ResultCache(root=str(tmp_path))
        scenario = fast_scenario()
        first = run_scenarios([scenario], cache=cache)
        path = cache._path(scenario)
        with open(path, "wb") as handle:
            handle.write(b"this is not a pickle")

        fresh = ResultCache(root=str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.experiments.parallel"):
            again = run_scenarios([scenario], cache=fresh)
        assert (fresh.hits, fresh.misses, fresh.corrupt) == (0, 1, 1)
        assert "corrupt" in caplog.text
        assert again[0].as_dict() == first[0].as_dict()
        # The recomputation overwrote the garbage: a third lookup hits.
        healed = ResultCache(root=str(tmp_path))
        assert healed.get(scenario).as_dict() == first[0].as_dict()
        assert (healed.hits, healed.corrupt) == (1, 0)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        scenario = fast_scenario()
        run_scenarios([scenario], cache=cache)
        path = cache._path(scenario)
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        fresh = ResultCache(root=str(tmp_path))
        assert fresh.get(scenario) is None
        assert fresh.corrupt == 1

    def test_wrong_payload_type_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        scenario = fast_scenario()
        os.makedirs(cache.root, exist_ok=True)
        with open(cache._path(scenario), "wb") as handle:
            pickle.dump({"not": "metrics"}, handle)
        assert cache.get(scenario) is None
        assert (cache.misses, cache.corrupt) == (1, 1)

    def test_missing_file_is_a_silent_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        assert cache.get(fast_scenario()) is None
        assert (cache.misses, cache.corrupt) == (1, 0)


def _crash(scenario):
    os._exit(1)  # hard worker death, no exception to catch


def _raise(scenario):
    raise ValueError("always broken")


class TestWorkerCrashSurvival:
    """The shared pool survives one worker death and bounded cell errors.

    The executor forks its workers on Linux, so monkeypatching
    ``run_scenario`` in the parent *before* the pool is (re)built patches
    the workers too -- each test tears the pool down first and after.
    """

    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        from repro.experiments import parallel as engine

        engine.shutdown_pool()
        yield
        engine.shutdown_pool()

    @staticmethod
    def _fake_metrics(seed):
        from repro.metrics.collector import NetworkMetrics

        metrics = NetworkMetrics()
        metrics.generated = seed
        return metrics

    def test_worker_death_rebuilds_pool_and_resubmits(self, tmp_path, monkeypatch):
        from repro.experiments import parallel as engine

        marker = tmp_path / "crashed-once"

        def flaky(scenario):
            if scenario.seed == 2 and not marker.exists():
                marker.write_text("crashed")
                os._exit(1)  # hard worker death, no exception to catch
            return TestWorkerCrashSurvival._fake_metrics(scenario.seed)

        monkeypatch.setattr(engine, "run_scenario", flaky)
        scenarios = [fast_scenario(seed=seed) for seed in (1, 2, 3)]
        results = engine.run_scenarios(scenarios, jobs=2)
        assert [metrics.generated for metrics in results] == [1, 2, 3]
        assert marker.exists()

    def test_transient_cell_error_is_retried(self, tmp_path, monkeypatch):
        from repro.experiments import parallel as engine

        marker = tmp_path / "raised-once"

        def flaky(scenario):
            if scenario.seed == 2 and not marker.exists():
                marker.write_text("raised")
                raise ValueError("transient failure")
            return TestWorkerCrashSurvival._fake_metrics(scenario.seed)

        monkeypatch.setattr(engine, "run_scenario", flaky)
        scenarios = [fast_scenario(seed=seed) for seed in (1, 2, 3)]
        results = engine.run_scenarios(scenarios, jobs=2)
        assert [metrics.generated for metrics in results] == [1, 2, 3]
        assert marker.exists()

    def test_permanent_cell_failure_names_the_cell(self, monkeypatch):
        from repro.experiments import parallel as engine

        def broken(scenario):
            if scenario.seed == 2:
                raise ValueError("always broken")
            return TestWorkerCrashSurvival._fake_metrics(scenario.seed)

        monkeypatch.setattr(engine, "run_scenario", broken)
        scenarios = [fast_scenario(seed=seed) for seed in (1, 2, 3)]
        with pytest.raises(RuntimeError) as excinfo:
            engine.run_scenarios(scenarios, jobs=2)
        message = str(excinfo.value)
        assert scenarios[1].name in message
        assert "always broken" in message
        # The worker's own exception is chained, not flattened to a string.
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert str(excinfo.value.__cause__) == "always broken"

    def test_finished_cells_are_cached_before_a_double_crash(
        self, tmp_path, monkeypatch
    ):
        """An abort keeps every cell that finished: each landed in the cache."""
        from repro.experiments import parallel as engine

        def doomed(scenario):
            if scenario.seed != 1:
                (tmp_path / f"done-{scenario.seed}").write_text("done")
                return TestWorkerCrashSurvival._fake_metrics(scenario.seed)
            # Die on every attempt, but only once the other three cells have
            # finished, so any of them missing from the cache is lost work.
            deadline = time.monotonic() + 30.0
            while len(list(tmp_path.glob("done-*"))) < 3:
                if time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            time.sleep(0.2)
            os._exit(1)

        monkeypatch.setattr(engine, "run_scenario", doomed)
        root = str(tmp_path / "cache")
        scenarios = [fast_scenario(seed=seed) for seed in (1, 2, 3, 4)]
        with pytest.raises(RuntimeError, match="lost a worker twice"):
            engine.run_scenarios(scenarios, jobs=2, cache=ResultCache(root=root))
        rerun = ResultCache(root=root)
        served = [rerun.get(scenario) for scenario in scenarios]
        assert served[0] is None
        assert [getattr(m, "generated", None) for m in served[1:]] == [2, 3, 4]

    @pytest.mark.parametrize(
        "doomed, abort",
        [(_crash, "lost a worker twice"), (_raise, "failed 2 times")],
        ids=["double-crash", "cell-error"],
    )
    def test_next_call_after_an_abort_starts_a_fresh_pool(
        self, monkeypatch, doomed, abort
    ):
        from repro.experiments import parallel as engine

        monkeypatch.setattr(engine, "run_scenario", doomed)
        scenarios = [fast_scenario(seed=seed) for seed in (1, 2)]
        with pytest.raises(RuntimeError, match=abort):
            engine.run_scenarios(scenarios, jobs=2)

        # Workers forked after this patch run it; a pool kept from the
        # aborted call would still run ``doomed``.
        monkeypatch.setattr(
            engine,
            "run_scenario",
            lambda scenario: TestWorkerCrashSurvival._fake_metrics(scenario.seed),
        )
        results = engine.run_scenarios(scenarios, jobs=2)
        assert [metrics.generated for metrics in results] == [1, 2]


class TestParallelParity:
    def test_run_scenarios_parallel_is_bit_identical(self):
        scenarios = [fast_scenario(seed=seed) for seed in (1, 2)]
        serial = run_scenarios(scenarios, jobs=1)
        parallel = run_scenarios(scenarios, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.as_dict() == b.as_dict()
            assert a.per_node == b.per_node

    def test_shared_pool_is_reused_and_matches_serial(self):
        from repro.experiments import parallel as engine

        scenarios = [fast_scenario(seed=seed) for seed in (1, 2, 3)]
        serial = run_scenarios(scenarios, jobs=1)
        warm_a = run_scenarios(scenarios, jobs=2)
        pool = engine._POOL
        assert pool is not None
        warm_b = run_scenarios(scenarios, jobs=2)
        # The second pooled call reused the same pool object.
        assert engine._POOL is pool
        for a, b, c in zip(serial, warm_a, warm_b):
            assert a.as_dict() == b.as_dict() == c.as_dict()
        engine.shutdown_pool()
        assert engine._POOL is None

    def test_pool_results_are_reassembled_in_input_order(self):
        """Completion order must never leak into the output."""
        scenarios = [fast_scenario(seed=seed) for seed in (1, 2, 3, 4)]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=4)
        assert [m.as_dict() for m in pooled] == [m.as_dict() for m in serial]

    def test_link_drift_scenarios_pool_matches_serial(self):
        """Drift policies must survive the trip to a pool worker (pickling)."""
        drift = default_drift_policy(seed=4, start_s=9.0, epoch_s=1.5, num_epochs=2)
        scenarios = [
            churn_scenario(
                1, scheduler, seed=2, link_drift=drift, warmup_s=8.0, measurement_s=6.0
            )
            for scheduler in (GT_TSCH, ORCHESTRA)
        ]
        serial = run_scenarios(scenarios, jobs=1)
        pooled = run_scenarios(scenarios, jobs=2)
        assert [m.as_dict() for m in pooled] == [m.as_dict() for m in serial]
        assert [m.per_node for m in pooled] == [m.per_node for m in serial]

    def test_pool_path_still_fills_the_result_cache(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        scenarios = [fast_scenario(seed=seed) for seed in (1, 2)]
        run_scenarios(scenarios, jobs=2, cache=cache)
        rerun_cache = ResultCache(root=str(tmp_path))
        run_scenarios(scenarios, jobs=2, cache=rerun_cache)
        assert rerun_cache.hits == 2
        assert rerun_cache.misses == 0


class TestFigureSweeps:
    def test_figure_parallel_matches_serial_and_aggregates(self):
        kwargs = dict(values=(60, 120), schedulers=(GT_TSCH,), seeds=(1, 2), **FAST)
        serial = run_figure(FIGURES["8"], jobs=1, **kwargs)
        parallel = run_figure(FIGURES["8"], jobs=2, **kwargs)
        assert serial.seeds == [1, 2]
        for point_serial, point_parallel in zip(
            serial.results[GT_TSCH], parallel.results[GT_TSCH]
        ):
            assert isinstance(point_serial, MetricsAggregate)
            assert point_serial.n == 2
            assert point_serial.as_dict() == point_parallel.as_dict()
            assert [run.as_dict() for run in point_serial.runs] == [
                run.as_dict() for run in point_parallel.runs
            ]

    def test_single_seed_matches_direct_run(self):
        # The aggregate over one seed must reproduce run_scenario exactly,
        # so the new engine is transparent for the historical single-seed path.
        result = run_figure(FIGURES["8"], values=(60,), schedulers=(GT_TSCH,), **FAST)
        direct = run_scenario(fast_scenario(rate_ppm=60.0))
        assert result.results[GT_TSCH][0].as_dict() == direct.as_dict()
        # Single-seed rows keep the historical single-run layout (no
        # dispersion columns), so archived CSVs stay diffable.
        assert "n_seeds" not in result.rows()[0]
        assert result.rows()[0]["generated"] == direct.generated

    def test_figure_cache_hits_every_cell_on_rerun(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        kwargs = dict(values=(60,), schedulers=(GT_TSCH,), seeds=(1, 2), **FAST)
        run_figure(FIGURES["8"], jobs=2, cache=cache, **kwargs)
        assert (cache.hits, cache.misses) == (0, 2)
        run_figure(FIGURES["8"], jobs=2, cache=cache, **kwargs)
        assert cache.hits == 2

    def test_rows_carry_dispersion_columns(self):
        result = run_figure(
            FIGURES["8"], values=(60,), schedulers=(GT_TSCH,), seeds=(1, 2), **FAST
        )
        row = result.rows()[0]
        assert row["n_seeds"] == 2
        assert "pdr_percent_std" in row
        assert "pdr_percent_ci95" in row


class TestCli:
    def test_cli_runs_figure_and_exports(self, tmp_path):
        export_dir = tmp_path / "out"
        exit_code = experiments_cli(
            [
                "--figure", "8",
                "--values", "60",
                "--schedulers", GT_TSCH,
                "--seeds", "1", "2",
                "--jobs", "2",
                "--no-cache",
                "--measurement-s", "5",
                "--warmup-s", "8",
                "--export-dir", str(export_dir),
            ]
        )
        assert exit_code == 0
        with open(export_dir / "figure8.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["scheduler"] == GT_TSCH
        assert float(rows[0]["n_seeds"]) == 2
        with open(export_dir / "figure8.json") as handle:
            document = json.load(handle)
        assert document["seeds"] == [1, 2]
        assert len(document["rows"]) == 1

    def test_cli_rejects_values_with_all_figures(self, capsys):
        assert experiments_cli(["--figure", "all", "--values", "60"]) == 2
