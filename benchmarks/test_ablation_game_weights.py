"""Ablation benchmarks over GT-TSCH design choices the paper fixes.

The paper sets the payoff weights (alpha, beta, gamma) and the EWMA factor
zeta without sweeping them.  These benches quantify how sensitive the
headline PDR is to those choices (DESIGN.md calls this out as an ablation
target) and double as regression checks that the default configuration is at
least as good as the alternatives.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SEED, save_report
from repro.experiments.ablation import ABLATIONS
from repro.experiments.runner import run_figure
from repro.experiments.scenarios import GT_TSCH

ABLATION_MEASUREMENT_S = 40.0
ABLATION_WARMUP_S = 40.0


def _single_runs(result):
    """Swept value -> the single-seed run of that point."""
    return {
        value: point.runs[0]
        for value, point in zip(result.sweep_values, result.results[GT_TSCH])
    }


@pytest.mark.benchmark(group="ablation")
def test_ablation_payoff_weights(benchmark):
    """Sweep (alpha, beta, gamma) of Eq. (8) at 120 ppm."""

    def run():
        return run_figure(
            ABLATIONS["weights"],
            rate_ppm=120.0,
            seeds=(BENCH_SEED,),
            measurement_s=ABLATION_MEASUREMENT_S,
            warmup_s=ABLATION_WARMUP_S,
        )

    results = _single_runs(benchmark.pedantic(run, rounds=1, iterations=1))
    lines = ["GT-TSCH payoff-weight ablation (120 ppm per node)"]
    for weights, metrics in results.items():
        lines.append(
            f"alpha={weights[0]:<5} beta={weights[1]:<5} gamma={weights[2]:<5} "
            f"pdr={metrics.pdr_percent:6.2f}%  delay={metrics.end_to_end_delay_ms:7.1f} ms  "
            f"duty={metrics.radio_duty_cycle_percent:5.2f}%"
        )
    report = "\n".join(lines)
    print("\n" + report)
    save_report("ablation_payoff_weights.txt", report)

    default = results[(8.0, 1.0, 4.0)]
    assert default.pdr_percent > 90.0
    # Every weight set must still beat Orchestra-under-load territory: the
    # game changes how much headroom is requested, not whether Eq. (1)'s
    # minimum demand is met.
    assert all(metrics.pdr_percent > 60.0 for metrics in results.values())


@pytest.mark.benchmark(group="ablation")
def test_ablation_queue_ewma(benchmark):
    """Sweep the EWMA smoothing factor zeta of Eq. (6) at 120 ppm."""

    def run():
        return run_figure(
            ABLATIONS["ewma"],
            values=(0.0, 0.5, 0.9),
            rate_ppm=120.0,
            seeds=(BENCH_SEED,),
            measurement_s=ABLATION_MEASUREMENT_S,
            warmup_s=ABLATION_WARMUP_S,
        )

    results = _single_runs(benchmark.pedantic(run, rounds=1, iterations=1))
    lines = ["GT-TSCH queue-EWMA ablation (120 ppm per node)"]
    for zeta, metrics in results.items():
        lines.append(
            f"zeta={zeta:<4} pdr={metrics.pdr_percent:6.2f}%  "
            f"delay={metrics.end_to_end_delay_ms:7.1f} ms  "
            f"queue_loss={metrics.queue_loss_per_node:5.2f}"
        )
    report = "\n".join(lines)
    print("\n" + report)
    save_report("ablation_queue_ewma.txt", report)

    assert all(metrics.pdr_percent > 80.0 for metrics in results.values())
