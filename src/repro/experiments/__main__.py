"""Command-line entry point for the figure table.

Each ``--figure`` id names one row of
:data:`repro.experiments.runner.FIGURES`, which carries its own swept
values, scheduler line-up and warm-up / measurement windows;
``--values``, ``--schedulers``, ``--warmup-s`` and ``--measurement-s``
override them.

Examples::

    # Fig. 8, three seeds, one worker per core, results cached on disk
    python -m repro.experiments --figure 8 --seeds 1 2 3 --jobs 0

    # every figure, fresh run, CSV + JSON under ./results
    python -m repro.experiments --figure all --no-cache --export-dir results

    # a quick custom sweep (two load points, GT-TSCH only, short durations)
    python -m repro.experiments --figure 8 --values 60 120 \
        --schedulers GT-TSCH --measurement-s 10 --warmup-s 15

    # profile a figure run (cProfile, top 25 by cumulative time)
    python -m repro.experiments --figure 8 --no-cache --profile

    # inspect / clear the on-disk result cache
    python -m repro.experiments cache --info
    python -m repro.experiments cache --clear
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from collections.abc import Sequence
from typing import Optional

from repro.experiments.export import figure_to_csv, figure_to_json
from repro.experiments.parallel import ResultCache
from repro.experiments.runner import (
    FIGURES,
    PAPER_LINEUP,
    ROBUSTNESS_LINEUP,
    FigureResult,
    run_figure,
)
from repro.experiments.scenarios import DEFAULT_DRAIN_S
from repro.schedulers import registry
from repro.sim.clock import SimClock

#: Scheduler names the scenarios accept -- whatever is registered (including
#: third-party plugins imported before this entry point runs).
KNOWN_SCHEDULERS = tuple(registry.available())

#: Figures included in ``--figure all`` (the paper's evaluation).  The
#: scaling sweep simulates hundreds of nodes and must be requested
#: explicitly (``--figure scale``), like the fault-injection head-to-heads
#: (``--figure churn`` / ``--figure churn-dynamic``) and the cold-start join
#: sweep (``--figure join``).  Every figure owns its windows, as it owns its
#: line-up; ``--warmup-s`` / ``--measurement-s`` override them.
PAPER_FIGURES = ("8", "9", "10")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures (Figs. 8-10).",
    )
    parser.add_argument(
        "--figure",
        # Derived from the figure table so an unknown figure id errors out
        # with the full list of valid figures and the two never drift apart.
        choices=[*FIGURES, "all"],
        default="all",
        help="which figure to run (default: all = the paper's figures; "
        "the 100-500-node scaling sweep and the robustness sweeps must "
        "be asked for explicitly: --figure scale / churn / "
        "churn-dynamic / join)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[1],
        metavar="SEED",
        help="seeds to average each figure point over (default: 1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; 0 means one per core (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-simulate instead of reusing cached results",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/gt-tsch-repro)",
    )
    parser.add_argument(
        "--measurement-s",
        type=float,
        default=None,
        help="measurement window in seconds (default: the figure's own)",
    )
    parser.add_argument(
        "--warmup-s",
        type=float,
        default=None,
        help="warm-up window in seconds (default: the figure's own)",
    )
    parser.add_argument(
        "--values",
        nargs="+",
        default=None,
        metavar="VALUE",
        help="override the swept values of the chosen figure (not valid with --figure all)",
    )
    parser.add_argument(
        "--schedulers",
        nargs="+",
        default=None,
        choices=KNOWN_SCHEDULERS,
        metavar="NAME",
        help="schedulers to compare, any of: "
        f"{', '.join(KNOWN_SCHEDULERS)} (default: each figure's own line-up, "
        f"{' '.join(PAPER_LINEUP)} for the paper figures and "
        f"{' '.join(ROBUSTNESS_LINEUP)} for the others)",
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        metavar="DIR",
        help="write figure<N>.csv / figure<N>.json under this directory",
    )
    parser.add_argument(
        "--format",
        choices=["csv", "json", "both"],
        default="both",
        help="export format when --export-dir is given (default: both)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top 25 functions by cumulative "
        "time plus the last scenario's event-queue statistics (forces "
        "--jobs 1: cProfile cannot see into worker processes)",
    )
    return parser


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cache",
        description="Inspect or clear the on-disk scenario result cache.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--info", action="store_true", help="print cache location, entry count and size"
    )
    group.add_argument(
        "--clear", action="store_true", help="delete every cached scenario result"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/gt-tsch-repro)",
    )
    return parser


def cache_main(argv: Sequence[str]) -> int:
    """``python -m repro.experiments cache --info|--clear``."""
    args = build_cache_parser().parse_args(argv)
    cache = ResultCache(root=args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"cache: removed {removed} entries from {cache.root}")
        return 0
    info = cache.info()
    size_mib = info["total_bytes"] / (1024 * 1024)
    print(f"cache root:    {info['root']}")
    print(f"cache entries: {info['entries']}")
    print(f"cache size:    {info['total_bytes']} bytes ({size_mib:.2f} MiB)")
    return 0


def run_one(
    figure_id: str,
    args: argparse.Namespace,
    cache: Optional[ResultCache],
    warmup_s: float,
    measurement_s: float,
) -> FigureResult:
    figure = FIGURES[figure_id]
    values = None
    if args.values is not None:
        try:
            values = [int(value) for value in args.values]
        except ValueError as err:
            raise SystemExit(
                f"--values for figure {figure_id} must be ints, "
                f"got: {' '.join(args.values)}"
            ) from err
    return run_figure(
        figure,
        values=values,
        schedulers=args.schedulers,
        seeds=args.seeds,
        jobs=args.jobs,
        cache=cache,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    if raw_argv and raw_argv[0] == "cache":
        return cache_main(raw_argv[1:])
    args = build_parser().parse_args(raw_argv)
    if args.profile:
        # Profiling only sees this process, so run the cells in it.
        args.jobs = 1
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            exit_code = _run_figures(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(25)
            _print_queue_stats()
        return exit_code
    return _run_figures(args)


def _print_queue_stats() -> None:
    """Event-queue statistics of the last in-process scenario run."""
    from repro.experiments import parallel

    stats = parallel.LAST_QUEUE_STATS
    if stats is None:
        return
    print(
        f"[event queue] live {stats['live']}, heap {stats['heap_entries']} "
        f"({stats['cancelled_in_heap']} cancelled), "
        f"{stats['compactions']} compactions"
    )


def _run_figures(args: argparse.Namespace) -> int:
    figure_ids: list[str] = list(PAPER_FIGURES) if args.figure == "all" else [args.figure]
    if args.values is not None and len(figure_ids) != 1:
        print("--values requires a single --figure", file=sys.stderr)
        return 2

    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    clock = SimClock()
    for figure_id in figure_ids:
        figure = FIGURES[figure_id]
        warmup_s = figure.warmup_s if args.warmup_s is None else args.warmup_s
        measurement_s = figure.measurement_s if args.measurement_s is None else args.measurement_s
        # Simulated slots per scenario cell: warm-up + measurement + drain,
        # with the same rounding the clock applies (for the slots/s report).
        slots_per_cell = (
            clock.seconds_to_slots(warmup_s)
            + clock.seconds_to_slots(measurement_s)
            + clock.seconds_to_slots(DEFAULT_DRAIN_S)
        )
        started = time.perf_counter()
        hits_before = cache.hits if cache is not None else 0
        result = run_one(figure_id, args, cache, warmup_s, measurement_s)
        elapsed = time.perf_counter() - started
        schedulers = len(result.results)
        cells = len(result.sweep_values) * schedulers * len(args.seeds)
        hits = cache.hits - hits_before if cache is not None else 0
        cache_note = f", cache hits {hits}/{cells}" if cache is not None else ""
        simulated_cells = cells - hits
        throughput_note = ""
        if simulated_cells and elapsed > 0:
            slots_per_s = simulated_cells * slots_per_cell / elapsed
            throughput_note = f", {slots_per_s:,.0f} slots/s"
        print(result.report())
        if figure_id in ("churn", "churn-dynamic"):
            # Robustness ranking: which scheduler degrades least across the
            # whole churn sweep (mean PDR over all crash counts).
            ranking = ", ".join(
                f"{position}. {scheduler} (pdr {mean:.1f}%)"
                for position, (scheduler, mean) in enumerate(
                    result.ranking("pdr_percent"), start=1
                )
            )
            print(f"[figure {figure_id}] robustness ranking: {ranking}")
        print(
            f"[figure {figure_id}] {len(result.sweep_values)} points x "
            f"{schedulers} schedulers x {len(args.seeds)} seeds "
            f"in {elapsed:.1f}s (jobs={args.jobs}{cache_note}{throughput_note})"
        )
        if args.export_dir:
            os.makedirs(args.export_dir, exist_ok=True)
            if args.format in ("csv", "both"):
                path = figure_to_csv(
                    result, os.path.join(args.export_dir, f"figure{figure_id}.csv")
                )
                print(f"[figure {figure_id}] wrote {path}")
            if args.format in ("json", "both"):
                path = figure_to_json(
                    result, os.path.join(args.export_dir, f"figure{figure_id}.json")
                )
                print(f"[figure {figure_id}] wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
