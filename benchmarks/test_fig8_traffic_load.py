"""Figure 8: GT-TSCH vs Orchestra as the per-node traffic load grows.

Reproduces all six panels (PDR, end-to-end delay, packet loss, radio duty
cycle, queue loss, throughput) over the paper's load sweep of 30, 75, 120 and
165 packets per minute per node on two 7-node DODAGs (14 nodes).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    BENCH_JOBS,
    BENCH_MEASUREMENT_S,
    BENCH_SEEDS,
    BENCH_WARMUP_S,
    save_report,
)
from repro.experiments.runner import FIGURES, run_figure
from repro.experiments.scenarios import GT_TSCH, ORCHESTRA

RATES_PPM = (30, 75, 120, 165)


@pytest.mark.benchmark(group="figure-8")
def test_fig8_traffic_load_sweep(benchmark):
    """Run the full Fig. 8 sweep for both schedulers and check its shape."""

    def run():
        return run_figure(
            FIGURES["8"],
            values=RATES_PPM,
            schedulers=(GT_TSCH, ORCHESTRA),
            seeds=BENCH_SEEDS,
            jobs=BENCH_JOBS,
            measurement_s=BENCH_MEASUREMENT_S,
            warmup_s=BENCH_WARMUP_S,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report = result.report()
    print("\n" + report)
    save_report("figure8_traffic_load.txt", report)

    gt_pdr = result.series(GT_TSCH, "pdr_percent")
    orchestra_pdr = result.series(ORCHESTRA, "pdr_percent")
    gt_throughput = result.series(GT_TSCH, "received_per_minute")
    orchestra_throughput = result.series(ORCHESTRA, "received_per_minute")
    gt_delay = result.series(GT_TSCH, "end_to_end_delay_ms")
    orchestra_delay = result.series(ORCHESTRA, "end_to_end_delay_ms")
    gt_loss = result.series(GT_TSCH, "packet_loss_per_minute")
    orchestra_loss = result.series(ORCHESTRA, "packet_loss_per_minute")

    # Fig. 8a: GT-TSCH keeps its PDR high at every load; Orchestra collapses
    # under heavy traffic while both are fine at 30 ppm.
    assert all(pdr > 90.0 for pdr in gt_pdr)
    assert orchestra_pdr[0] > 85.0
    assert orchestra_pdr[-1] < 60.0
    assert gt_pdr[-1] > orchestra_pdr[-1] + 30.0

    # Fig. 8b: GT-TSCH has the lower delay at every load point.
    assert all(g < o for g, o in zip(gt_delay, orchestra_delay))

    # Fig. 8c: Orchestra loses far more packets per minute at heavy load.
    assert orchestra_loss[-1] > 10.0 * max(gt_loss[-1], 1.0)

    # Fig. 8f: GT-TSCH's throughput keeps growing with the offered load and
    # roughly doubles Orchestra's at 165 ppm.
    assert gt_throughput == sorted(gt_throughput)
    assert gt_throughput[-1] > 1.5 * orchestra_throughput[-1]
