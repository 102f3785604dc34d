"""Experiment harness reproducing the paper's evaluation (Figs. 8-10).

* :mod:`repro.experiments.scenarios` -- the Table II configuration and the
  three scenario families (traffic-load sweep, DODAG-size sweep, slotframe
  length sweep).
* :mod:`repro.experiments.runner` -- functions that run one scenario or a
  whole figure and return the metric series the paper plots.
* :mod:`repro.experiments.parallel` -- the execution engine: process-pool
  fan-out over scenarios plus an on-disk, content-addressed result cache
  that stores each cell as it finishes.
* :mod:`repro.experiments.ablation` -- ablations over GT-TSCH design choices
  that the paper fixes (payoff weights, EWMA smoothing, shared cells).

``python -m repro.experiments`` exposes the figure runners on the command
line (``--figure 8 --seeds 1 2 3 --jobs 0`` runs Fig. 8 across three seeds on
every core).
"""

from repro.experiments.ablation import (
    run_ewma_ablation,
    run_shared_cell_ablation,
    run_weight_ablation,
)
from repro.experiments.export import figure_to_csv, figure_to_json, load_figure_csv
from repro.experiments.parallel import (
    ResultCache,
    run_scenarios,
    scenario_fingerprint,
)
from repro.experiments.runner import (
    FigureResult,
    run_figure10,
    run_figure8,
    run_figure9,
    run_scale,
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
    "FigureResult",
    "run_scenario",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_scale",
    "run_weight_ablation",
    "run_ewma_ablation",
    "run_shared_cell_ablation",
    "figure_to_csv",
    "figure_to_json",
    "load_figure_csv",
]
