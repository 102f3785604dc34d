"""Experiment harness reproducing the paper's evaluation (Figs. 8-10).

* :mod:`repro.experiments.scenarios` -- the Table II configuration and the
  three scenario families (traffic-load sweep, DODAG-size sweep, slotframe
  length sweep).
* :mod:`repro.experiments.runner` -- the figure table: every sweep is one
  :class:`Figure` row of :data:`FIGURES` (Figs. 8-10, scale, churn,
  churn-dynamic, join) with its own values, line-up and windows, and
  :func:`run_figure` runs any row and returns the series the paper plots.
* :mod:`repro.experiments.parallel` -- the execution engine: process-pool
  fan-out over scenarios plus an on-disk, content-addressed result cache
  that stores each cell as it finishes.
* :mod:`repro.experiments.ablation` -- :data:`ABLATIONS`, more rows for
  :func:`run_figure` over GT-TSCH design choices that the paper fixes
  (payoff weights, EWMA smoothing, load-balancing period).

``python -m repro.experiments`` runs the rows of :data:`FIGURES` on the
command line (``--figure 8 --seeds 1 2 3 --jobs 0`` runs Fig. 8 across three
seeds on every core).
"""

from repro.experiments.ablation import ABLATIONS
from repro.experiments.export import figure_to_csv, figure_to_json, load_figure_csv
from repro.experiments.parallel import (
    ResultCache,
    run_scenarios,
    scenario_fingerprint,
)
from repro.experiments.runner import (
    FIGURES,
    Figure,
    FigureResult,
    run_figure,
    run_scenario,
)
from repro.experiments.scenarios import (
    ContikiConfig,
    Scenario,
    dodag_size_scenario,
    scale_scenario,
    slotframe_scenario,
    traffic_load_scenario,
)
from repro.metrics.aggregate import MetricsAggregate

__all__ = [
    "MetricsAggregate",
    "ResultCache",
    "run_scenarios",
    "scenario_fingerprint",
    "ContikiConfig",
    "Scenario",
    "traffic_load_scenario",
    "dodag_size_scenario",
    "slotframe_scenario",
    "scale_scenario",
    "Figure",
    "FigureResult",
    "FIGURES",
    "ABLATIONS",
    "run_scenario",
    "run_figure",
    "figure_to_csv",
    "figure_to_json",
    "load_figure_csv",
]
