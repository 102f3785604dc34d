"""Figure 9: GT-TSCH vs Orchestra as the DODAG grows from 6 to 9 nodes.

Two DODAGs (one root each), 120 ppm per node; the network grows from 12 to 18
nodes in total, matching the paper's scalability experiment.
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

DODAG_SIZES = (6, 7, 8, 9)


@pytest.mark.benchmark(group="figure-9")
def test_fig9_dodag_size_sweep(benchmark):
    """Run the full Fig. 9 sweep for both schedulers and check its shape."""

    def run():
        return run_figure(
            FIGURES["9"],
            values=DODAG_SIZES,
            schedulers=(GT_TSCH, ORCHESTRA),
            rate_ppm=120.0,
            seeds=BENCH_SEEDS,
            jobs=BENCH_JOBS,
            measurement_s=BENCH_MEASUREMENT_S,
            warmup_s=BENCH_WARMUP_S,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report = result.report()
    print("\n" + report)
    save_report("figure9_dodag_size.txt", report)

    gt_pdr = result.series(GT_TSCH, "pdr_percent")
    orchestra_pdr = result.series(ORCHESTRA, "pdr_percent")
    gt_throughput = result.series(GT_TSCH, "received_per_minute")
    orchestra_throughput = result.series(ORCHESTRA, "received_per_minute")
    gt_qloss = result.series(GT_TSCH, "queue_loss_per_node")
    orchestra_qloss = result.series(ORCHESTRA, "queue_loss_per_node")

    # Fig. 9a: GT-TSCH sustains a high PDR across every DODAG size while
    # Orchestra cannot serve the growing load.
    assert all(pdr > 90.0 for pdr in gt_pdr)
    assert all(g > o for g, o in zip(gt_pdr, orchestra_pdr))

    # Fig. 9f: GT-TSCH's delivered throughput grows with the network size
    # (more sources, still delivered); Orchestra's stays flat by comparison.
    assert gt_throughput[-1] > gt_throughput[0]
    assert gt_throughput[-1] > 1.5 * orchestra_throughput[-1]

    # Fig. 9e: queue loss per node stays near zero for GT-TSCH and is clearly
    # higher for Orchestra at every size.
    assert all(g <= 5.0 for g in gt_qloss)
    assert all(o > g for g, o in zip(gt_qloss, orchestra_qloss))
