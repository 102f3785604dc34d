"""Scaling benchmark: slots/s vs network size under the dispatch kernel.

Runs the :func:`~repro.experiments.scenarios.scale_scenario` family
(paper-sized DODAGs replicated until the site holds 100-500 nodes, converged
sparse-telemetry workload) once with the dispatch kernel
(``fast=True``) and once with the naive per-slot reference loop
(``fast=False``) for every scheduler, verifies the finalized metrics are
bit-identical at every size -- the skip-equivalence proof at scale -- and
records throughput vs N to ``BENCH_scaling.json`` at the repository root.
The scenarios come from :mod:`tests.golden.cells`, and a fast run whose
cell is in ``tests/golden/digests.json`` (the smoke N=100/200 cells) must
also match its golden digest.

The headline series is **steady-state slots/s** (measurement + drain phases,
after the one-off topology-formation storms of the warm-up, which cost the
same in every kernel), plus the per-stepped-slot cost, which demonstrates
that dispatch cost tracks the nodes that actually act in a slot rather than
the network size.

A second benchmark (``test_sweep_pool_wall_clock``) times a 12-cell scale
sweep three ways -- serially (``jobs=1``), on a cold pool (the first call
after ``shutdown_pool()``) and on the warm pool -- asserts the three results
bit-identical, and records the wall-clocks under the record's ``"sweep"``
key.

Modes
-----
* ``REPRO_BENCH_FULL=1``: N in (100, 200, 500), 20 s warm-up + 40 s
  measurement -- the mode behind the committed full record;
* default / ``REPRO_BENCH_SMOKE=1``: N in (100, 200), shortened windows.
  Unlike the kernel-speed benchmark, smoke is the default here: the full
  mode simulates 500 nodes through the uncached reference loop, which is
  too slow for the tier-1 suite that collects this file.
* ``REPRO_BENCH_NODE_COUNTS="100,300"`` overrides the node-count sweep of
  either mode (same comma-separated convention as ``REPRO_BENCH_SEEDS`` /
  ``REPRO_BENCH_JOBS``).  Overridden sweeps never rewrite the committed
  baseline, even with ``REPRO_BENCH_REBASELINE=1`` -- the record's node
  counts are part of its identity.

A third benchmark (``test_flatness_large_n``) runs the fast kernel alone --
no reference loop, which would take hours at this size -- at N=1000 and
records the per-stepped-slot cost growth relative to N=200 under the
record's ``"flatness"`` key; see the gate notes at its constants.  Its
exact twin (``test_flatness_large_n_decisions_per_transmission``) gates
the same growth on a work count instead of the clock.

Record files
------------
Fresh measurements go to ``benchmarks/results/BENCH_scaling.json``
(gitignored; CI uploads it as an artifact).  The committed baseline at the
repository root is only rewritten with ``REPRO_BENCH_REBASELINE=1``.

Regression gate
---------------
With ``REPRO_BENCH_ENFORCE=1`` (set by CI) the test fails when the
steady-state slots/s at the largest smoke N -- expressed as the same-run
speedup over the reference loop, a machine-independent ratio -- regresses
more than 30% below the committed record.  (Raw slots/s does not travel
across machines; the same-run ratio does, which is why the gate normalises
by the reference loop measured in the same process -- the same convention as
the kernel-speed benchmark.)
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import replace

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.experiments.parallel import run_scenarios, shutdown_pool
from repro.experiments.scenarios import (
    DEFAULT_DRAIN_S,
    GT_TSCH,
    MINIMAL,
    ORCHESTRA,
    scale_scenario,
)
from repro.schedulers import registry
from tests import golden
from tests.golden.cells import (
    SCALING_MEASUREMENT_S,
    SCALING_NODE_COUNTS,
    SCALING_WARMUP_S,
    cell_id,
    scaling_family,
    scaling_scenario,
)

#: The committed throughput record (repository root).
BENCH_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_scaling.json")
#: Where each run's fresh measurements land (gitignored; uploaded by CI).
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_scaling.json")

#: REPRO_BENCH_SMOKE wins over REPRO_BENCH_FULL, so a CI job that pins smoke
#: mode stays smoke even if someone exports REPRO_BENCH_FULL globally.
FULL = bool(os.environ.get("REPRO_BENCH_FULL")) and not bool(
    os.environ.get("REPRO_BENCH_SMOKE")
)
SMOKE = not FULL
ENFORCE = bool(os.environ.get("REPRO_BENCH_ENFORCE"))
REBASELINE = bool(os.environ.get("REPRO_BENCH_REBASELINE"))
MODE = "smoke" if SMOKE else "full"

#: Optional comma-separated override of the node-count sweep, matching the
#: REPRO_BENCH_SEEDS / REPRO_BENCH_JOBS conventions in benchmarks/conftest.
_COUNT_OVERRIDE = tuple(
    int(count)
    for count in os.environ.get("REPRO_BENCH_NODE_COUNTS", "").split(",")
    if count.strip()
)
NODE_COUNTS = _COUNT_OVERRIDE or (SCALING_NODE_COUNTS if SMOKE else (100, 200, 500))
WARMUP_S = SCALING_WARMUP_S if SMOKE else 20.0
MEASUREMENT_S = SCALING_MEASUREMENT_S if SMOKE else 40.0
DRAIN_S = DEFAULT_DRAIN_S
# Every registered scheduler: a new plugin enters the sweep (and the
# committed record, additively) without touching this file.  The original
# three rows keep their committed baselines -- adding schedulers never
# rebaselines existing ones.
SCHEDULERS = tuple(registry.available())

#: Steady-state slots/s of the kernel before this change (commit 4d06219) on
#: the same scenarios (best of two runs), dev container.  Kept as the fixed
#: origin of the scaling trajectory; cross-machine comparisons against it
#: are informative only and never asserted.
PRE_PR_STEADY_SLOTS_PER_S = {
    "full": {
        100: {GT_TSCH: 6448, ORCHESTRA: 12420, MINIMAL: 32322},
        200: {GT_TSCH: 2631, ORCHESTRA: 4330, MINIMAL: 10975},
        500: {GT_TSCH: 745, ORCHESTRA: 895, MINIMAL: 1970},
    },
    "smoke": {
        100: {GT_TSCH: 6426, ORCHESTRA: 12260, MINIMAL: 33765},
        200: {GT_TSCH: 2442, ORCHESTRA: 4848, MINIMAL: 12246},
    },
}


#: Timing repetitions per (N, scheduler, kernel); the best run is kept,
#: which filters transient load spikes of shared runners out of the ratios.
TIMING_REPEATS = 2


def _run_phases(num_nodes: int, scheduler: str, fast: bool):
    """Best-of-``TIMING_REPEATS`` phase-timed runs of one scale scenario."""
    best = None
    for _ in range(TIMING_REPEATS):
        run = _run_phases_once(num_nodes, scheduler, fast)
        if best is None or run["elapsed_s"] < best["elapsed_s"]:
            best = run
    return best


def _run_phases_once(num_nodes: int, scheduler: str, fast: bool):
    """Run one scale scenario with per-phase timing (run_experiment's exact
    call sequence, so fast and reference runs stay comparable bit-for-bit)."""
    scenario = scaling_scenario(
        num_nodes, scheduler, warmup_s=WARMUP_S, measurement_s=MEASUREMENT_S
    )
    network = scenario.build_network()
    network.fast = fast
    network.start()
    started = time.perf_counter()
    network.run_seconds(WARMUP_S)
    warm_done = time.perf_counter()
    warm_asn = network.clock.asn
    network.metrics.begin_measurement(network.nodes.values(), network.clock.now)
    network.run_seconds(MEASUREMENT_S)
    network.metrics.end_measurement(network.nodes.values(), network.clock.now)
    for node in network.nodes.values():
        node.traffic_enabled = False
        if node.traffic is not None:
            node.traffic.stop()
    network.run_seconds(DRAIN_S)
    metrics = network.metrics.finalize(network.nodes.values(), network.clock.now, scheduler)
    finished = time.perf_counter()
    # Only smoke-mode windows were blessed: a full-mode or overridden-N run
    # has no golden cell to compare against.
    cell = cell_id(scaling_family(num_nodes), scheduler, scenario.seed)
    if fast and SMOKE and cell in golden.load()["cells"]:
        golden.assert_matches_golden(cell, metrics)
    steady_slots = network.clock.asn - warm_asn
    return {
        "metrics": metrics,
        "slots": network.clock.asn,
        "steady_slots_per_s": steady_slots / (finished - warm_done),
        "total_slots_per_s": network.clock.asn / (finished - started),
        "stepped_slots": network.stepped_slots,
        "elapsed_s": finished - started,
    }


def _load_committed():
    try:
        with open(BENCH_FILE, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _write_record(record: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.benchmark(group="scaling")
def test_scaling_slots_per_second():
    committed = _load_committed()
    results = {}
    for scheduler in SCHEDULERS:
        per_n = {}
        for num_nodes in NODE_COUNTS:
            fast = _run_phases(num_nodes, scheduler, fast=True)
            reference = _run_phases(num_nodes, scheduler, fast=False)
            # Free skip-equivalence proof at scale: the dispatch kernel and
            # the naive reference loop must agree bit-for-bit.
            assert dataclasses.asdict(fast["metrics"]) == dataclasses.asdict(
                reference["metrics"]
            ), f"{scheduler} N={num_nodes}: kernel diverged from reference"
            assert fast["slots"] == reference["slots"]
            # Custom REPRO_BENCH_NODE_COUNTS sweeps have no pre-PR origin.
            pre_pr = PRE_PR_STEADY_SLOTS_PER_S[MODE].get(num_nodes, {}).get(scheduler)
            per_n[str(num_nodes)] = {
                "slots": fast["slots"],
                "stepped_slots": fast["stepped_slots"],
                "steady_slots_per_s": round(fast["steady_slots_per_s"], 1),
                "total_slots_per_s": round(fast["total_slots_per_s"], 1),
                "reference_steady_slots_per_s": round(
                    reference["steady_slots_per_s"], 1
                ),
                "us_per_stepped_slot": round(
                    1e6 * fast["elapsed_s"] / max(1, fast["stepped_slots"]), 1
                ),
                "speedup_vs_reference": round(
                    fast["steady_slots_per_s"] / reference["steady_slots_per_s"], 3
                ),
                "speedup_vs_pre_pr_kernel": (
                    round(fast["steady_slots_per_s"] / pre_pr, 3) if pre_pr else None
                ),
            }
        results[scheduler] = per_n

    record = dict(committed) if isinstance(committed, dict) else {}
    record.setdefault("benchmark", "scale-sweep-sparse-telemetry")
    record["pre_pr_kernel"] = {
        "commit": "4d06219",
        "note": (
            "slot-skipping kernel before participant dispatch, same scenarios, "
            "dev container; steady-state slots/s (measurement+drain after "
            "warm-up).  speedup_vs_pre_pr_kernel is same-machine information; "
            "the CI gate uses the same-run speedup_vs_reference ratio instead"
        ),
        "steady_slots_per_s": {
            mode: {n: dict(per) for n, per in entries.items()}
            for mode, entries in PRE_PR_STEADY_SLOTS_PER_S.items()
        },
    }
    record.setdefault("modes", {})
    record["modes"] = dict(record["modes"])
    record["modes"][MODE] = {
        "node_counts": list(NODE_COUNTS),
        "warmup_s": WARMUP_S,
        "measurement_s": MEASUREMENT_S,
        "drain_s": DRAIN_S,
        "schedulers": results,
    }
    _write_record(record, RESULT_FILE)
    if REBASELINE and not _COUNT_OVERRIDE:
        _write_record(record, BENCH_FILE)

    for scheduler, per_n in results.items():
        for count, entry in per_n.items():
            vs_pre_pr = entry["speedup_vs_pre_pr_kernel"]
            print(
                f"[scaling/{MODE}] {scheduler} N={count}: "
                f"{entry['steady_slots_per_s']:,.0f} slots/s steady "
                f"({entry['speedup_vs_reference']:.2f}x vs reference, "
                + (f"{vs_pre_pr:.2f}x vs pre-PR kernel, " if vs_pre_pr else "")
                + f"{entry['us_per_stepped_slot']:.0f} us/stepped slot)"
            )

    # Informational (non-gating): raw steady slots/s vs the committed record.
    # Raw throughput does not travel across machines -- only the same-run
    # ratio is enforced below -- but printing the delta makes raw-throughput
    # regressions visible in the job log.
    committed_raw = (
        committed.get("modes", {}).get(MODE, {}).get("schedulers", {})
        if isinstance(committed, dict)
        else {}
    )
    for scheduler, per_n in results.items():
        for count, entry in per_n.items():
            recorded = committed_raw.get(scheduler, {}).get(count, {}).get(
                "steady_slots_per_s"
            )
            if not recorded:
                continue
            delta = 100.0 * (entry["steady_slots_per_s"] / recorded - 1.0)
            print(
                f"[scaling/{MODE}] {scheduler} N={count}: raw delta vs committed "
                f"{recorded:,.0f} -> {entry['steady_slots_per_s']:,.0f} slots/s "
                f"({delta:+.0f}%, informational only)"
            )

    # The dispatch kernel must beat the reference loop at every size.
    for scheduler, per_n in results.items():
        for count, entry in per_n.items():
            assert entry["speedup_vs_reference"] >= 1.1, (
                f"{scheduler} N={count}: dispatch kernel "
                f"{entry['speedup_vs_reference']:.2f}x vs reference"
            )

    # CI regression gate at the largest N of this mode: the same-run
    # speedup over the reference loop travels across machines; fail when it
    # drops >30% below the committed record.  Shared-cell contention pruning
    # runs only in the kernel, so this ratio gates that path too: a
    # correctness-preserving but slow regression in it shows up directly as
    # a lower kernel-vs-reference speedup.
    if ENFORCE:
        largest = str(NODE_COUNTS[-1])
        baseline = (
            committed.get("modes", {}).get(MODE, {}).get("schedulers", {})
            if isinstance(committed, dict)
            else {}
        )
        for scheduler, per_n in results.items():
            committed_speedup = (
                baseline.get(scheduler, {}).get(largest, {}).get("speedup_vs_reference")
            )
            if not committed_speedup:
                continue
            measured = per_n[largest]["speedup_vs_reference"]
            assert measured >= 0.7 * committed_speedup, (
                f"{scheduler} N={largest}: steady slots/s regressed — "
                f"{measured:.2f}x vs reference, committed "
                f"{committed_speedup:.2f}x"
            )


# ----------------------------------------------------------------------
# large-N flatness: per-stepped-slot cost growth, fast kernel only
# ----------------------------------------------------------------------
#: The flatness pair.  The reference loop is not run at all here -- at
#: N=1000 it would take hours -- so this leg has no bit-identity cross-check
#: (the sweep above provides that at every size it covers).
FLATNESS_SMALL_N = 200
FLATNESS_LARGE_N = 1000
FLATNESS_SCHEDULER = MINIMAL
FLATNESS_REPEATS = 2

#: Gate on us_per_stepped_slot[1000] / us_per_stepped_slot[200].  A truly
#: flat dispatch kernel would hold this near 1.0; the measured value on the
#: dev container is ~5x, and that is a property of the scenario, not of the
#: dispatch bookkeeping: scale_topology's DODAGs are spatially isolated but
#: share schedule residues, so every DODAG is active in the *same* stepped
#: slots and the participant count per stepped slot grows with N.  The
#: per-participant protocol work (DIO processing, frame reception, slot
#: planning) is pure Python and dominates.  The gate therefore pins the
#: growth at "linear in participants, with headroom" -- it exists to catch
#: superlinear regressions (an accidental O(N^2) scan would push the ratio
#: past ~25x), not to certify O(1) dispatch.
FLATNESS_RATIO_MAX = 8.0


@pytest.mark.benchmark(group="scaling")
def test_flatness_large_n():
    """Fast-kernel-only N=1000 leg: per-stepped-slot cost vs N=200."""
    best: dict[int, dict] = {}
    for num_nodes in (FLATNESS_SMALL_N, FLATNESS_LARGE_N):
        for _ in range(FLATNESS_REPEATS):
            run = _run_phases_once(num_nodes, FLATNESS_SCHEDULER, fast=True)
            kept = best.get(num_nodes)
            if kept is None or run["elapsed_s"] < kept["elapsed_s"]:
                best[num_nodes] = run

    def us_per_stepped(run: dict) -> float:
        return 1e6 * run["elapsed_s"] / max(1, run["stepped_slots"])

    small = us_per_stepped(best[FLATNESS_SMALL_N])
    large = us_per_stepped(best[FLATNESS_LARGE_N])
    ratio = large / small
    print(
        f"[scaling/flatness] {FLATNESS_SCHEDULER}: "
        f"N={FLATNESS_SMALL_N} {small:.0f} us/stepped slot, "
        f"N={FLATNESS_LARGE_N} {large:.0f} us/stepped slot "
        f"(ratio {ratio:.2f}x, gate {FLATNESS_RATIO_MAX:.1f}x)"
    )

    # Merge into this run's fresh record when the throughput test already
    # wrote one, else extend the committed baseline.
    try:
        with open(RESULT_FILE, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = _load_committed()
    record = dict(record) if isinstance(record, dict) else {}
    record["flatness"] = {
        "scheduler": FLATNESS_SCHEDULER,
        "mode": MODE,
        "node_counts": [FLATNESS_SMALL_N, FLATNESS_LARGE_N],
        "warmup_s": WARMUP_S,
        "measurement_s": MEASUREMENT_S,
        "stepped_slots": {
            str(n): best[n]["stepped_slots"] for n in sorted(best)
        },
        "us_per_stepped_slot": {
            str(FLATNESS_SMALL_N): round(small, 1),
            str(FLATNESS_LARGE_N): round(large, 1),
        },
        "ratio": round(ratio, 2),
        "ratio_max": FLATNESS_RATIO_MAX,
        "note": (
            "fast kernel only (reference loop infeasible at N=1000); ratio "
            "grows with N because shared schedule residues keep every DODAG "
            "active in the same stepped slots -- see FLATNESS_RATIO_MAX"
        ),
    }
    _write_record(record, RESULT_FILE)
    if REBASELINE:
        _write_record(record, BENCH_FILE)

    assert ratio <= FLATNESS_RATIO_MAX, (
        f"per-stepped-slot cost grew {ratio:.2f}x from N={FLATNESS_SMALL_N} "
        f"to N={FLATNESS_LARGE_N} (gate {FLATNESS_RATIO_MAX:.1f}x) -- "
        "superlinear dispatch regression"
    )


# ----------------------------------------------------------------------
# large-N flatness, exact twin: slot decisions per transmission
# ----------------------------------------------------------------------
#: The clock-free twin of ``test_flatness_large_n``.  A stepped slot lets
#: its due transmitters and their interference audience decide their slot,
#: and nobody else, so the slot decisions made per medium transmission
#: (``TschEngine.plan_slot`` plus ``listen_channel`` calls) stay put as N
#: grows five-fold.  Measured on ``scale_scenario(N, ., seed=1, warmup_s=5,
#: measurement_s=5)``, N=200 -> N=1000: Orchestra 6.97 -> 6.98, GT-TSCH
#: 8.36 -> 8.26.  A dispatch that offers every node to every stepped slot
#: reads 55.6 -> 113.3 and 69.3 -> 172.1 (2.0x and 2.5x).
FLATNESS_WORK_SCHEDULERS = (ORCHESTRA, GT_TSCH)
FLATNESS_WORK_RATIO_MAX = 1.25


@pytest.mark.parametrize("scheduler", FLATNESS_WORK_SCHEDULERS)
def test_flatness_large_n_decisions_per_transmission(scheduler, monkeypatch):
    """Exact N=1000 vs N=200 gate on slot decisions per transmission."""
    from repro.mac.tsch import TschEngine

    calls = [0]

    def counted(method):
        def wrapper(self, asn):
            calls[0] += 1
            return method(self, asn)

        return wrapper

    for name in ("plan_slot", "listen_channel"):
        monkeypatch.setattr(TschEngine, name, counted(getattr(TschEngine, name)))
    per_tx: dict[int, float] = {}
    for num_nodes in (FLATNESS_SMALL_N, FLATNESS_LARGE_N):
        calls[0] = 0
        scenario = scale_scenario(num_nodes, scheduler, seed=1, warmup_s=5.0, measurement_s=5.0)
        network = scenario.build_network()
        network.run_experiment(warmup_s=scenario.warmup_s, measurement_s=scenario.measurement_s)
        per_tx[num_nodes] = calls[0] / network.medium.total_transmissions
    ratio = per_tx[FLATNESS_LARGE_N] / per_tx[FLATNESS_SMALL_N]
    print(
        f"[scaling/flatness-exact] {scheduler}: decisions per transmission "
        f"N={FLATNESS_SMALL_N} {per_tx[FLATNESS_SMALL_N]:.2f}, "
        f"N={FLATNESS_LARGE_N} {per_tx[FLATNESS_LARGE_N]:.2f} "
        f"(ratio {ratio:.3f}, gate {FLATNESS_WORK_RATIO_MAX})"
    )
    assert ratio <= FLATNESS_WORK_RATIO_MAX, (
        f"slot decisions per transmission grew {ratio:.2f}x from "
        f"N={FLATNESS_SMALL_N} to N={FLATNESS_LARGE_N} (gate "
        f"{FLATNESS_WORK_RATIO_MAX}x) -- the dispatch visits nodes outside "
        "the transmitters' audiences"
    )


# ----------------------------------------------------------------------
# sweep engine wall-clock: serial vs cold pool vs warm pool
# ----------------------------------------------------------------------
#: Sweep-bench dimensions (independent of FULL/SMOKE: the point is engine
#: overhead, not simulation depth).  Three schedulers (12 cells) keep the
#: three timed passes cheaper than the old two 24-cell passes.
SWEEP_SCHEDULERS = (GT_TSCH, ORCHESTRA, MINIMAL)
SWEEP_NODE_COUNTS = (100, 200)
SWEEP_SEEDS = (1, 2)
SWEEP_WARMUP_S = 4.0
SWEEP_MEASUREMENT_S = 6.0
SWEEP_JOBS = 2


def _sweep_cells():
    return [
        replace(
            scale_scenario(
                num_nodes=count,
                scheduler=scheduler,
                measurement_s=SWEEP_MEASUREMENT_S,
                warmup_s=SWEEP_WARMUP_S,
            ),
            seed=seed,
            drain_s=2.0,
        )
        for scheduler in SWEEP_SCHEDULERS
        for count in SWEEP_NODE_COUNTS
        for seed in SWEEP_SEEDS
    ]


def _timed_sweep(cells, jobs):
    started = time.perf_counter()
    results = run_scenarios(cells, jobs=jobs)
    return results, time.perf_counter() - started


@pytest.mark.benchmark(group="scaling")
def test_sweep_pool_wall_clock():
    """Scale-sweep wall-clock serially, on a cold pool and on the warm pool,
    recorded to the scaling record.

    The cold call is the first after ``shutdown_pool()``, so it pays for
    forking the workers; the warm call reuses them.  Results are asserted
    bit-identical; the wall-clocks are recorded, not gated -- they depend on
    core count (a single-core runner shows pool overhead only) and machine
    load, unlike the kernel's same-run speedup ratio.
    """
    cells = _sweep_cells()
    serial, serial_s = _timed_sweep(cells, jobs=1)
    shutdown_pool()
    cold, cold_s = _timed_sweep(cells, jobs=SWEEP_JOBS)
    warm, warm_s = _timed_sweep(cells, jobs=SWEEP_JOBS)
    shutdown_pool()

    for a, b, c in zip(serial, cold, warm):
        assert (
            dataclasses.asdict(a) == dataclasses.asdict(b) == dataclasses.asdict(c)
        ), "pooled sweep diverged from the serial run"

    print(
        f"[scaling/sweep] {len(cells)} cells: serial {serial_s:.2f}s, "
        f"jobs={SWEEP_JOBS} cold pool {cold_s:.2f}s, warm pool {warm_s:.2f}s"
    )

    # Merge into this run's fresh record when the throughput test already
    # wrote one, else extend the committed baseline.
    try:
        with open(RESULT_FILE, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = _load_committed()
    record = dict(record) if isinstance(record, dict) else {}
    record["sweep"] = {
        "cells": len(cells),
        "jobs": SWEEP_JOBS,
        "cpu_count": os.cpu_count(),
        "node_counts": list(SWEEP_NODE_COUNTS),
        "serial_s": round(serial_s, 2),
        "cold_pool_s": round(cold_s, 2),
        "warm_pool_s": round(warm_s, 2),
    }
    _write_record(record, RESULT_FILE)
    if REBASELINE:
        _write_record(record, BENCH_FILE)
