#!/usr/bin/env python3
"""Multi-seed, multi-core figure sweep with error bars and result caching.

Runs a shortened Fig. 8 sweep (both schedulers) over several seeds, fanned
out over all cores, and prints each point as ``mean +/- 95% CI``.  Results
are memoised on disk, so running this script twice — or widening the sweep —
only simulates the cells that were never run before.

Run with::

    python examples/parallel_figure_sweep.py [jobs]

Equivalent CLI invocation::

    python -m repro.experiments --figure 8 --seeds 1 2 3 --jobs 0 \
        --measurement-s 30 --warmup-s 30
"""

from __future__ import annotations

import os
import sys
import time

from repro.experiments import FIGURES, ResultCache, run_figure
from repro.experiments.scenarios import GT_TSCH, ORCHESTRA

RATES_PPM = (30, 120, 165)
SEEDS = (1, 2, 3)


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else (os.cpu_count() or 1)
    cache = ResultCache()

    started = time.perf_counter()
    result = run_figure(
        FIGURES["8"],
        values=RATES_PPM,
        schedulers=(GT_TSCH, ORCHESTRA),
        seeds=SEEDS,
        jobs=jobs,
        cache=cache,
        measurement_s=30.0,
        warmup_s=30.0,
    )
    elapsed = time.perf_counter() - started

    print(
        f"{len(RATES_PPM)} load points x 2 schedulers x {len(SEEDS)} seeds "
        f"in {elapsed:.1f}s (jobs={jobs}, cache hits={cache.hits})\n"
    )
    print(f"{'load (ppm)':<12}{'scheduler':<14}{'PDR (%)':>20}{'delay (ms)':>24}")
    for scheduler in (GT_TSCH, ORCHESTRA):
        for rate, aggregate in zip(RATES_PPM, result.results[scheduler]):
            pdr = f"{aggregate.mean('pdr_percent'):.1f} +/- {aggregate.ci95('pdr_percent'):.1f}"
            delay = (
                f"{aggregate.mean('end_to_end_delay_ms'):.0f}"
                f" +/- {aggregate.ci95('end_to_end_delay_ms'):.0f}"
            )
            print(f"{rate:<12}{scheduler:<14}{pdr:>20}{delay:>24}")


if __name__ == "__main__":
    main()
