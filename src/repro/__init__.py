"""GT-TSCH reproduction: game-theoretic distributed TSCH scheduling.

This package is a from-scratch Python reproduction of *GT-TSCH:
Game-Theoretic Distributed TSCH Scheduler for Low-Power IoT Networks*
(ICDCS 2023).  It contains:

* a slot-accurate discrete-event simulator of a 6TiSCH protocol stack
  (TSCH MAC, RPL, 6top, radio medium) replacing the paper's Contiki-NG /
  Cooja / Zolertia Firefly testbed;
* the GT-TSCH scheduling function (:mod:`repro.core`) -- channel allocation,
  slotframe construction, load balancing and the non-cooperative game with
  its closed-form Nash equilibrium;
* the Orchestra baseline and a 6TiSCH-minimal reference scheduler
  (:mod:`repro.schedulers`);
* the experiment harness reproducing the paper's Figures 8-10
  (:mod:`repro.experiments`): ``run_figure(FIGURES["8"])`` runs Fig. 8.

Quick start::

    from repro.experiments import traffic_load_scenario, run_scenario

    scenario = traffic_load_scenario(rate_ppm=120, scheduler="GT-TSCH", seed=1)
    metrics = run_scenario(scenario)
    print(metrics.pdr_percent, metrics.end_to_end_delay_ms)
"""

#: Package version; also folded into the experiment result-cache fingerprint
#: so cached metrics never cross a release boundary.  Keep in sync with
#: pyproject.toml.
__version__ = "0.2.0"

from repro.core.config import GtTschConfig
from repro.core.game import GameWeights, PlayerState, optimal_tx_cells, payoff
from repro.core.scheduler import GtTschScheduler
from repro.experiments.runner import FIGURES, run_figure, run_scenario
from repro.experiments.scenarios import (
    ContikiConfig,
    Scenario,
    dodag_size_scenario,
    slotframe_scenario,
    traffic_load_scenario,
)
from repro.metrics.collector import NetworkMetrics
from repro.net.network import Network
from repro.net.node import Node, NodeConfig
from repro.schedulers.minimal import MinimalScheduler
from repro.schedulers.orchestra import OrchestraConfig, OrchestraScheduler

__all__ = [
    "GameWeights",
    "PlayerState",
    "payoff",
    "optimal_tx_cells",
    "GtTschConfig",
    "GtTschScheduler",
    "OrchestraScheduler",
    "OrchestraConfig",
    "MinimalScheduler",
    "Network",
    "Node",
    "NodeConfig",
    "NetworkMetrics",
    "ContikiConfig",
    "Scenario",
    "traffic_load_scenario",
    "dodag_size_scenario",
    "slotframe_scenario",
    "run_scenario",
    "run_figure",
    "FIGURES",
    "__version__",
]
