"""Ablations over GT-TSCH design choices the paper fixes.

The paper sets the payoff weights (alpha, beta, gamma), the EWMA smoothing
factor zeta and the load-balancing period without sweeping them.  These
ablations quantify how sensitive the headline results are to those choices.
Each is a :class:`~repro.experiments.runner.Figure` row of
:data:`ABLATIONS`: GT-TSCH alone on the Fig. 8 topology at 120 ppm, one
:class:`~repro.experiments.scenarios.ContikiConfig` field swept.  Run one
with :func:`~repro.experiments.runner.run_figure`, e.g.
``run_figure(ABLATIONS["ewma"], values=(0.0, 0.9))``.  The rows are
library-only: the command line offers the figures of
:data:`~repro.experiments.runner.FIGURES`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.core.game import GameWeights
from repro.experiments.runner import Figure
from repro.experiments.scenarios import (
    GT_TSCH,
    ContikiConfig,
    Scenario,
    traffic_load_scenario,
)


def _sweeping(contiki_for: Callable[[Any], ContikiConfig]) -> Callable[..., Scenario]:
    """A Fig. 8 cell factory whose configuration is built from the swept value."""

    def cell(value: Any, scheduler: str, rate_ppm: float = 120.0, **options: Any) -> Scenario:
        return traffic_load_scenario(rate_ppm, scheduler, contiki=contiki_for(value), **options)

    return cell


#: Ablation id -> sweep, all on GT-TSCH with a 45 s measurement window.
ABLATIONS = {
    # The (alpha, beta, gamma) payoff weights of Eq. (8).
    "weights": Figure(
        "Ablation: GT-TSCH payoff weights",
        "(alpha, beta, gamma)",
        (
            (8.0, 1.0, 4.0),  # default: queue cost dominates link cost
            (8.0, 4.0, 1.0),  # link cost dominates (paper: for low-quality links)
            (2.0, 1.0, 1.0),  # weak utility: near-minimal allocation
            (16.0, 1.0, 4.0),  # strong utility: aggressive allocation
        ),
        _sweeping(lambda weights: ContikiConfig(game_weights=GameWeights(*weights))),
        (GT_TSCH,),
        measurement_s=45.0,
    ),
    # The EWMA smoothing factor zeta of the queue metric (Eq. (6)).
    "ewma": Figure(
        "Ablation: GT-TSCH queue EWMA",
        "queue EWMA zeta",
        (0.0, 0.25, 0.5, 0.75, 0.9),
        _sweeping(lambda zeta: ContikiConfig(queue_ewma_zeta=zeta)),
        (GT_TSCH,),
        measurement_s=45.0,
    ),
    # The paper monitors load "periodically" without fixing the period: short
    # periods react faster, long ones negotiate less 6P.
    "lb-period": Figure(
        "Ablation: GT-TSCH load-balancing period",
        "load-balancing period (s)",
        (2.0, 4.0, 8.0, 16.0),
        _sweeping(lambda period: ContikiConfig(load_balance_period_s=period)),
        (GT_TSCH,),
        measurement_s=45.0,
    ),
}
