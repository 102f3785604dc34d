"""The benchmark's four workloads: their scenario cells and how each is timed.

Every workload is closed-loop and runs in one process.  A *pass* is a fixed
mix of scenario cells (schedulers x rates x variants); pass ``k`` draws its
scenario seeds from the workload seed and ``k``, so a run averages over
several seeds of the simulated network rather than timing one seed over and
over.  The modelled ``gt_*`` outputs come from the first ``gt_passes``
passes only, which every run completes, so they are exact per seed and do
not depend on how many passes fit in the time budget.

Cells are driven only through the public API: ``Scenario.build_network``,
``Network.start``, ``Network.run_experiment``, ``run_scenarios`` and
``ResultCache``.  Set-up is timed cold: ``Network.start`` freezes the medium
from scratch, with no frozen-medium cache entry.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.experiments import ResultCache, run_scenarios
from repro.experiments.scenarios import (
    Scenario,
    churn_scenario,
    scale_scenario,
    traffic_load_scenario,
)
from repro.metrics.collector import NetworkMetrics
from repro.phy.dynamic import default_drift_policy

GT = "GT-TSCH"


def derive_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` scenario seeds drawn from the benchmark's workload seed."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def digest(metrics: NetworkMetrics) -> str:
    """Content hash of every finalized field, floats at full precision."""
    document = json.dumps(dataclasses.asdict(metrics), sort_keys=True, default=repr)
    return hashlib.sha256(document.encode()).hexdigest()[:16]


def sane(metrics: NetworkMetrics) -> bool:
    """Output check applied to every timed cell."""
    return (
        metrics.generated > 0
        and 0 <= metrics.delivered <= metrics.generated
        and 0.0 <= metrics.pdr_percent <= 100.0
        and 0.0 < metrics.radio_duty_cycle_percent <= 100.0
    )


def sim_seconds(scenario: Scenario) -> float:
    return scenario.warmup_s + scenario.measurement_s + scenario.drain_s


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """A named workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    #: Nearest-rank percentile reported as ``cell_cpu_s_tail``.  Every pass
    #: has the same cell mix, so a fixed percentile lands on the same part
    #: of the mix whatever the number of passes.  Where the default budget
    #: yields enough cells, at least ten lie beyond it; ``scale-1000`` and
    #: ``sweep-pool`` have too few samples for that and report a high rank.
    tail_pct: float
    #: Passes that feed the ``gt_*`` outputs (and that every run completes).
    gt_passes: int = 1
    pool: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-fig8", tail_pct=85.0),
        Workload("scale-1000", tail_pct=80.0),
        Workload("churn-dynamic", tail_pct=84.0, gt_passes=2),
        Workload("sweep-pool", tail_pct=90.0, gt_passes=4, pool=True),
    )
}


def pass_cells(workload: str, seed: int, k: int = 0) -> list[Scenario]:
    """The timed cells of pass ``k``."""
    seed_of = f"{workload}/pass{k}"
    if workload == "paper-fig8":
        return [
            traffic_load_scenario(rate, scheduler, seed=s)
            for s in derive_seeds(seed_of, seed, 2)
            for scheduler in (GT, "MSF", "Orchestra")
            for rate in (30, 90, 165)
        ]
    if workload == "scale-1000":
        (s,) = derive_seeds(seed_of, seed, 1)
        return [
            scale_scenario(1000, scheduler, seed=s)
            for scheduler in ("6TiSCH-minimal", "Orchestra", GT)
        ]
    if workload == "churn-dynamic":
        cells = []
        seeds = derive_seeds(seed_of, seed, 6)
        for s, plan_seed, drift_seed in zip(seeds[0::3], seeds[1::3], seeds[2::3]):
            for scheduler in (GT, "MSF", "Orchestra"):
                for cold in (False, True):
                    cells.append(_churn_cell(scheduler, s, plan_seed, drift_seed, cold))
        return cells
    if workload == "sweep-pool":
        return [
            traffic_load_scenario(rate, scheduler, seed=s, warmup_s=10.0, measurement_s=20.0)
            for scheduler in (GT, "MSF", "Orchestra", "6TiSCH-minimal")
            for rate in (60, 120)
            for s in derive_seeds(seed_of, seed, 3)
        ]
    raise KeyError(workload)


def _churn_cell(
    scheduler: str,
    seed: int,
    plan_seed: int,
    drift_seed: int,
    cold: bool,
    warmup_s: float = 30.0,
    measurement_s: float = 60.0,
) -> Scenario:
    """The ``run_churn_dynamic`` cell: 2 crashes, 1 arrival, 3 drift epochs."""
    drift = default_drift_policy(
        seed=drift_seed,
        start_s=warmup_s + 0.20 * measurement_s,
        epoch_s=0.15 * measurement_s,
        num_epochs=3,
    )
    return churn_scenario(
        2,
        scheduler,
        seed=seed,
        plan_seed=plan_seed,
        num_arrivals=1,
        link_drift=drift,
        cold_start=cold,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
    )


def check_cells(workload: str, seed: int) -> list[Scenario]:
    """Shortened cells of each workload's shape for the fast-vs-reference check."""
    lineup = (GT, "MSF", "Orchestra")
    s, plan_seed, drift_seed = derive_seeds(f"{workload}/check", seed, 3)
    if workload == "paper-fig8":
        return [
            traffic_load_scenario(165, scheduler, seed=s, warmup_s=10.0, measurement_s=10.0)
            for scheduler in lineup
        ]
    if workload == "scale-1000":
        scheduler = ("6TiSCH-minimal", "Orchestra", GT)[seed % 3]
        cell = scale_scenario(1000, scheduler, seed=s, warmup_s=2.0, measurement_s=2.0)
        return [replace(cell, drain_s=1.0)]
    if workload == "churn-dynamic":
        scheduler = lineup[seed % 3]
        return [
            _churn_cell(scheduler, s, plan_seed, drift_seed, cold, 10.0, 20.0)
            for cold in (False, True)
        ]
    if workload == "sweep-pool":
        return [pass_cells(workload, seed)[0]]
    raise KeyError(workload)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class Cell:
    name: str
    scheduler: str
    setup_s: float
    cpu_s: float
    wall_s: float
    node_seconds: float
    metrics: NetworkMetrics
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        self.digest = digest(self.metrics)


def settle_heap() -> None:
    """Collect the last cell's garbage and freeze what survives.

    Frozen objects (the benchmark's own results) are skipped by later
    collections, so a cell's GC cost does not grow with the pass index.
    """
    gc.collect()
    gc.freeze()


def time_cell(scenario: Scenario) -> Cell:
    """Run one cell; CPU clocks cover build to finalized metrics only."""
    settle_heap()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    network = scenario.build_network()
    network.start()
    cpu1 = time.process_time()
    metrics = network.run_experiment(
        warmup_s=scenario.warmup_s,
        measurement_s=scenario.measurement_s,
        drain_s=scenario.drain_s,
        scheduler_name=scenario.scheduler,
    )
    cpu2 = time.process_time()
    wall1 = time.perf_counter()
    return Cell(
        name=scenario.name,
        scheduler=scenario.scheduler,
        setup_s=cpu1 - cpu0,
        cpu_s=cpu2 - cpu0,
        wall_s=wall1 - wall0,
        node_seconds=len(network.nodes) * sim_seconds(scenario),
        metrics=metrics,
    )


def check_fast_vs_reference(scenario: Scenario) -> tuple[bool, str]:
    """Fast kernel and ``step_slot_reference`` must agree exactly."""
    outcomes = []
    for fast in (True, False):
        network = scenario.build_network()
        network.fast = fast
        metrics = network.run_experiment(
            warmup_s=scenario.warmup_s,
            measurement_s=scenario.measurement_s,
            drain_s=scenario.drain_s,
            scheduler_name=scenario.scheduler,
        )
        outcomes.append(
            (
                digest(metrics),
                network.clock.asn,
                network.medium.total_transmissions,
                network.medium.total_collisions,
            )
        )
    return outcomes[0] == outcomes[1], outcomes[0][0]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def beyond(values: list[float], pct: float) -> int:
    """How many samples lie strictly above the nearest-rank percentile."""
    cut = percentile(values, pct)
    return sum(1 for v in values if v > cut)


def gt_outputs(cells: list[tuple[str, NetworkMetrics]]) -> dict[str, float]:
    """Mean PDR, delay and duty cycle of the GT-TSCH cells of one pass."""
    gt = [m for scheduler, m in cells if scheduler == GT]
    return {
        "gt_pdr_percent": statistics.fmean(m.pdr_percent for m in gt),
        "gt_delay_ms": statistics.fmean(m.end_to_end_delay_ms for m in gt),
        "gt_duty_cycle_percent": statistics.fmean(m.radio_duty_cycle_percent for m in gt),
    }


class Ledger:
    """Attempted/failed cell counts plus the reasons for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@contextmanager
def scratch_cache(root: str):
    """A ``ResultCache`` in a fresh directory under the checkout, removed after."""
    base = os.path.join(root, ".perfbench_out")
    os.makedirs(base, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="cache-", dir=base)
    try:
        yield ResultCache(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def cache_hit_ms(scenarios: list[Scenario], results: list[NetworkMetrics], cache: ResultCache,
                 repeats: int) -> tuple[float, bool]:
    """CPU per cell, in ms, of the fastest of ``repeats`` all-hit re-runs.

    ``results`` are stored first; every re-run must return them exactly.
    The fastest repeat is taken because a hit is a file read: the slower
    repeats measure the shared machine's I/O hiccups, not the cache.
    """
    for scenario, metrics in zip(scenarios, results):
        cache.put(scenario, metrics)
    hits_before = cache.hits
    expected = [digest(m) for m in results]
    samples = []
    ok = True
    for _ in range(repeats):
        cpu0 = time.process_time()
        again = run_scenarios(scenarios, jobs=1, cache=cache)
        samples.append(1000.0 * (time.process_time() - cpu0) / len(scenarios))
        ok = ok and [digest(m) for m in again] == expected
    ok = ok and cache.hits - hits_before == repeats * len(scenarios)
    return min(samples), ok
