"""Figure 10: GT-TSCH vs Orchestra as the unicast slotframe length grows.

Orchestra's unicast slotframe is swept over 8, 12, 16 and 20 timeslots; for
fairness (as in the paper) GT-TSCH uses a single slotframe four times as
long.  Longer slotframes mean fewer transmission opportunities per second, so
both schedulers degrade -- the question the figure answers is how gracefully.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_JOBS, BENCH_MEASUREMENT_S, BENCH_SEEDS, save_report
from repro.experiments.runner import FIGURES, run_figure
from repro.experiments.scenarios import GT_TSCH, ORCHESTRA

UNICAST_LENGTHS = (8, 12, 16, 20)

#: Longer slotframes converge more slowly (each 6P round covers one slotframe
#: worth of demand), so this figure uses a longer warm-up than Figs. 8-9.
FIG10_WARMUP_S = 60.0


@pytest.mark.benchmark(group="figure-10")
def test_fig10_slotframe_length_sweep(benchmark):
    """Run the full Fig. 10 sweep for both schedulers and check its shape."""

    def run():
        return run_figure(
            FIGURES["10"],
            values=UNICAST_LENGTHS,
            schedulers=(GT_TSCH, ORCHESTRA),
            rate_ppm=120.0,
            seeds=BENCH_SEEDS,
            jobs=BENCH_JOBS,
            measurement_s=BENCH_MEASUREMENT_S,
            warmup_s=FIG10_WARMUP_S,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report = result.report()
    print("\n" + report)
    save_report("figure10_slotframe_length.txt", report)

    gt_pdr = result.series(GT_TSCH, "pdr_percent")
    orchestra_pdr = result.series(ORCHESTRA, "pdr_percent")
    gt_throughput = result.series(GT_TSCH, "received_per_minute")
    orchestra_throughput = result.series(ORCHESTRA, "received_per_minute")

    # Fig. 10a: GT-TSCH stays usable (paper: above ~80 %) at every slotframe
    # length, while Orchestra falls below 50 % beyond the shortest setting.
    assert all(pdr > 70.0 for pdr in gt_pdr)
    assert gt_pdr[0] > 95.0
    assert all(o < 60.0 for o in orchestra_pdr[1:])
    assert all(g > o for g, o in zip(gt_pdr, orchestra_pdr))

    # Fig. 10f: GT-TSCH keeps its throughput well above Orchestra's across
    # the sweep (paper: above ~550 ppm vs Orchestra's collapse).
    assert all(g > o for g, o in zip(gt_throughput, orchestra_throughput))
    assert gt_throughput[-1] > 2.0 * orchestra_throughput[-1]
