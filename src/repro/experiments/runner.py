"""Run scenarios and whole figures, and render the paper-style series.

Every sweep is one :class:`Figure` row of data: its x-axis values, the
scenario factory that builds one cell, its scheduler line-up and its own
warm-up and measurement windows.  :data:`FIGURES` holds the paper's Figs.
8-10 and the scale, churn, churn-dynamic and join sweeps that go beyond it;
:data:`repro.experiments.ablation.ABLATIONS` holds the GT-TSCH ablations.
:func:`run_figure` runs any row: it sweeps the x-axis, runs every scheduler
at every swept value for every requested seed, and returns a
:class:`FigureResult` whose ``report()`` prints the same six series (PDR,
delay, packet loss, duty cycle, queue loss, throughput) the paper plots.

Execution goes through :mod:`repro.experiments.parallel`: every
``(sweep value x scheduler x seed)`` cell is an independent scenario, so a
figure can be fanned out over a process pool (``jobs``) and memoised on disk
(``cache``) without changing the numbers -- the parallel path is bit-identical
to the serial one for the same seeds.  Each figure point is a
:class:`~repro.metrics.aggregate.MetricsAggregate` (mean / stddev / 95% CI
across seeds), which collapses to the single run's exact values when only one
seed is requested.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union

from repro.experiments.parallel import ResultCache, run_scenarios
from repro.experiments.parallel import run_scenario as run_scenario  # re-export
from repro.experiments.scenarios import (
    GT_TSCH,
    MINIMAL,
    ORCHESTRA,
    Scenario,
    churn_scenario,
    dodag_size_scenario,
    join_scenario,
    scale_scenario,
    slotframe_scenario,
    traffic_load_scenario,
)
from repro.metrics.aggregate import MetricsAggregate
from repro.metrics.collector import NetworkMetrics
from repro.metrics.report import format_figure_report
from repro.phy.dynamic import default_drift_policy

#: Either a raw single-run metrics object or a cross-seed aggregate; both
#: expose the same ``as_dict()`` keys.
MetricsLike = Union[NetworkMetrics, MetricsAggregate]


@dataclass
class FigureResult:
    """Results of one figure: a sweep axis x a set of schedulers."""

    figure: str
    sweep_label: str
    sweep_values: list
    #: scheduler name -> list of per-point metrics (aggregated across seeds
    #: by :func:`run_figure`), aligned with ``sweep_values``.
    results: dict[str, list[MetricsLike]] = field(default_factory=dict)
    #: Seeds each point was averaged over (empty for directly-built results).
    seeds: list[int] = field(default_factory=list)

    def series(self, scheduler: str, metric_key: str) -> list[float]:
        """One plotted line: the metric values of one scheduler across the sweep."""
        return [metrics.as_dict()[metric_key] for metrics in self.results[scheduler]]

    def report(self) -> str:
        """Text rendering of all six panels of the figure."""
        return format_figure_report(
            self.figure, self.sweep_label, self.sweep_values, self.results
        )

    def ranking(
        self, metric_key: str = "pdr_percent", descending: bool = True
    ) -> list[tuple[str, float]]:
        """Schedulers ranked by the metric's mean across the whole sweep.

        Used by the churn figure to print a robustness ranking: under a
        combined arrival/departure/link-drift plan the interesting answer
        is not one point but which scheduler degrades least over the sweep.
        Ties keep the scheduler line-up order (sorts are stable).
        """
        means = [
            (scheduler, sum(self.series(scheduler, metric_key)) / len(self.sweep_values))
            for scheduler in self.results
        ]
        return sorted(means, key=lambda item: item[1], reverse=descending)

    def rows(self) -> list[dict]:
        """Flat list of dict rows (sweep value + scheduler + metrics), CSV-friendly.

        Results aggregated over more than one seed additionally carry
        ``n_seeds`` and per-metric ``_std`` / ``_ci95`` dispersion columns;
        single-seed rows keep the historical single-run layout.
        """
        rows = []
        for scheduler, series in self.results.items():
            for value, metrics in zip(self.sweep_values, series):
                row = {"sweep": value, **metrics.as_dict()}
                row["scheduler"] = scheduler
                stats = getattr(metrics, "stats_dict", None)
                if stats is not None and getattr(metrics, "n", 0) > 1:
                    row.update(stats())
                rows.append(row)
        return rows


@dataclass(frozen=True)
class Figure:
    """One sweep: an x-axis, a cell factory, a line-up and its windows.

    ``cell(value, scheduler, warmup_s=..., measurement_s=..., **options)``
    builds the scenario of one swept value for one scheduler.  Every row of
    :data:`FIGURES` sweeps integers, which is how the command line parses
    ``--values``: a float rate fingerprints differently from the integer
    the row sweeps, so it would miss the row's cache entries.
    """

    title: str
    sweep_label: str
    values: tuple
    cell: Callable[..., Scenario]
    schedulers: tuple[str, ...]
    warmup_s: float = 30.0
    measurement_s: float = 60.0


def run_figure(
    figure: Figure,
    values: Optional[Sequence] = None,
    schedulers: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (1,),
    jobs: int = 1,
    cache: Union[None, bool, ResultCache] = None,
    warmup_s: Optional[float] = None,
    measurement_s: Optional[float] = None,
    **options: Any,
) -> FigureResult:
    """Run one figure row: every scheduler x swept value x seed, aggregated.

    An argument left unset takes the row's own value.  ``options`` go to
    ``figure.cell`` unchanged, e.g. ``rate_ppm=60`` or churn's
    ``num_arrivals``, ``link_drift`` and ``cold_start``.
    """
    values = list(figure.values if values is None else values)
    schedulers = figure.schedulers if schedulers is None else schedulers
    seeds = list(seeds)
    windows = {
        "warmup_s": figure.warmup_s if warmup_s is None else warmup_s,
        "measurement_s": figure.measurement_s if measurement_s is None else measurement_s,
    }
    scenarios: list[Scenario] = []
    for scheduler in schedulers:
        for value in values:
            base = figure.cell(value, scheduler, **windows, **options)
            scenarios.extend(replace(base, seed=seed) for seed in seeds)

    runs = iter(run_scenarios(scenarios, jobs=jobs, cache=cache))
    result = FigureResult(
        figure=figure.title, sweep_label=figure.sweep_label, sweep_values=values, seeds=seeds
    )
    for scheduler in schedulers:
        result.results[scheduler] = [
            MetricsAggregate.from_runs([next(runs) for _ in seeds], seeds) for _ in values
        ]
    return result


def _churn_dynamic_cell(
    crashes: int, scheduler: str, *, warmup_s: float, measurement_s: float, **options: Any
) -> Scenario:
    """A churn cell plus one late arrival and a three-epoch link drift.

    The drift epochs are pinned inside the measurement window so the final
    restore barrier always fires; the drift draws from seed 1 whatever the
    simulation seed, so every seed replays one drift schedule.
    """
    drift = default_drift_policy(
        seed=1,
        start_s=warmup_s + 0.20 * measurement_s,
        epoch_s=0.15 * measurement_s,
        num_epochs=3,
    )
    return churn_scenario(
        crashes,
        scheduler,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
        num_arrivals=1,
        link_drift=drift,
        **options,
    )


#: The paper's comparison (Figs. 8-10): GT-TSCH against Orchestra.
PAPER_LINEUP = (GT_TSCH, ORCHESTRA)
#: The scale, churn and join sweeps add the 6TiSCH-minimal floor.
ROBUSTNESS_LINEUP = (GT_TSCH, ORCHESTRA, MINIMAL)

#: Figure id -> sweep.  ``python -m repro.experiments --figure <id>`` runs
#: one row with its own line-up and windows unless flags override them.
FIGURES = {
    "8": Figure(
        "Figure 8: performance vs traffic load",
        "traffic load (ppm/node)",
        (30, 75, 120, 165),
        traffic_load_scenario,
        PAPER_LINEUP,
    ),
    "9": Figure(
        "Figure 9: performance vs DODAG size",
        "nodes per DODAG",
        (6, 7, 8, 9),
        dodag_size_scenario,
        PAPER_LINEUP,
    ),
    "10": Figure(
        "Figure 10: performance vs slotframe length",
        "unicast slotframe length",
        (8, 12, 16, 20),
        slotframe_scenario,
        PAPER_LINEUP,
    ),
    # Hundreds of nodes in paper-sized DODAGs, beyond the paper's 12-18.
    "scale": Figure(
        "Scale: performance vs network size",
        "total nodes",
        (100, 200, 500),
        scale_scenario,
        ROBUSTNESS_LINEUP,
        warmup_s=20.0,
        measurement_s=40.0,
    ),
    # One fixed fault plan per point (crashes, warm rejoins, a degradation
    # epoch, a parent loss); ``FigureResult.ranking`` orders the line-up.
    "churn": Figure(
        "Churn: robustness vs injected node crashes",
        "node crashes",
        (1, 2, 3),
        churn_scenario,
        ROBUSTNESS_LINEUP,
    ),
    "churn-dynamic": Figure(
        "Churn (dynamic): crashes + arrivals + link drift",
        "node crashes",
        (1, 2),
        _churn_dynamic_cell,
        ROBUSTNESS_LINEUP,
    ),
    # Cold-start formation: the short warm-up lets first packets land in
    # the window; nodes that never join are censored at its close.
    "join": Figure(
        "Join: cold-start formation vs DODAG size",
        "nodes per DODAG",
        (5, 7, 9),
        join_scenario,
        ROBUSTNESS_LINEUP,
        warmup_s=5.0,
        measurement_s=90.0,
    ),
}
