"""The cells of the golden behaviour lock.

One cell per scenario that the fast == reference suites in
``tests/net/test_fast_kernel.py`` simulate, plus the smoke cells of
``benchmarks/test_scaling.py::test_scaling_slots_per_second``.  Those tests
and the bless command (``python -m tests.golden.bless``) all build their
scenarios here, so a cell cannot drift between the test that checks it and
the command that records it.  Cell ids read ``<family>/<scheduler>/s<seed>``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from repro.experiments.scenarios import (
    DEBRAS,
    DEFAULT_DRAIN_S,
    GT_TSCH,
    MINIMAL,
    MSF,
    ORCHESTRA,
    OTF,
    Scenario,
    churn_scenario,
    join_scenario,
    scale_scenario,
    traffic_load_scenario,
)
from repro.metrics.collector import NetworkMetrics
from repro.net.network import Network
from repro.phy.dynamic import default_drift_policy
from repro.schedulers import registry

#: Every registered scheduler must satisfy the bit-identity contract, so the
#: headline equivalence proofs parameterize over the registry itself: a newly
#: registered scheduler is covered without touching this file.
ALL_REGISTERED = tuple(registry.available())

#: ``(scheduler, seed, pytest id)`` of the fault-on suite.  The explicit ids
#: let CI select a cheap subset with ``-k`` (e.g. ``-k "gt-s1 or orchestra-s1"``).
FAULT_CASES = (
    (MINIMAL, 1, "minimal-s1"),
    (MINIMAL, 2, "minimal-s2"),
    (ORCHESTRA, 1, "orchestra-s1"),
    (ORCHESTRA, 2, "orchestra-s2"),
    (GT_TSCH, 1, "gt-s1"),
    (GT_TSCH, 2, "gt-s2"),
    (MSF, 1, "msf-s1"),
    (MSF, 2, "msf-s2"),
    (DEBRAS, 1, "debras-s1"),
    (OTF, 1, "otf-s1"),
)

#: ``(scheduler, seed, pytest id)`` of the dynamic-network suite.
DYNAMIC_CASES = (
    (MINIMAL, 1, "dyn-minimal-s1"),
    (MINIMAL, 2, "dyn-minimal-s2"),
    (ORCHESTRA, 1, "dyn-orchestra-s1"),
    (ORCHESTRA, 2, "dyn-orchestra-s2"),
    (GT_TSCH, 1, "dyn-gt-s1"),
    (GT_TSCH, 2, "dyn-gt-s2"),
    (MSF, 1, "dyn-msf-s1"),
    # An MSF ADD response arrives from a former parent, in the drain; its
    # one offset is taken, so it installs nothing.
    (MSF, 7, "dyn-msf-s7"),
    (DEBRAS, 1, "dyn-debras-s1"),
    (OTF, 1, "dyn-otf-s1"),
)


def skip_scenario(scheduler: str, seed: int) -> Scenario:
    """The Fig. 8 cell of ``TestSkipEquivalence``."""
    return traffic_load_scenario(
        rate_ppm=60.0, scheduler=scheduler, seed=seed, measurement_s=12.0, warmup_s=8.0
    )


#: ``(scheduler, seed, pytest id)`` of the high-load Fig. 8 cells.
HIGH_LOAD_CASES = (
    (GT_TSCH, 1, "GT-TSCH"),
    (MSF, 1, "MSF"),
    (ORCHESTRA, 1, "Orchestra"),
    # One GT-TSCH DELETE runs here at both ends, in the drain.
    (GT_TSCH, 2, "GT-TSCH-s2"),
)


def high_load_scenario(scheduler: str, seed: int) -> Scenario:
    """The 165 ppm Fig. 8 cell of ``TestHighLoadEquivalence``.

    The top of the paper's load axis: CSMA back-off, queue drops and slots
    with several decoders all peak here.
    """
    return traffic_load_scenario(
        rate_ppm=165.0, scheduler=scheduler, seed=seed, measurement_s=10.0, warmup_s=10.0
    )


def fault_scenario(scheduler: str, seed: int) -> Scenario:
    """The crash/rejoin/degrade/parent-loss cell of ``TestFaultEquivalence``."""
    return churn_scenario(
        num_crashes=1,
        scheduler=scheduler,
        seed=seed,
        rate_ppm=60.0,
        measurement_s=14.0,
        warmup_s=8.0,
    )


def dynamic_scenario(scheduler: str, seed: int) -> Scenario:
    """The cold-start, arrival and link-drift cell of ``TestDynamicEquivalence``.

    Three drift epochs inside the short window; the restore barrier fires
    at 16.8 s, before the measurement window closes at 22 s.
    """
    drift = default_drift_policy(seed=seed, start_s=10.8, epoch_s=2.0, num_epochs=3)
    return churn_scenario(
        num_crashes=1,
        scheduler=scheduler,
        seed=seed,
        rate_ppm=60.0,
        measurement_s=14.0,
        warmup_s=8.0,
        num_arrivals=1,
        link_drift=drift,
        cold_start=True,
    )


#: ``(scheduler, seed, pytest id)`` of the synchronised-arrival suite.
ARRIVAL_CASES = (
    (MINIMAL, 1, "arrival-minimal-s1"),
    (ORCHESTRA, 1, "arrival-orchestra-s1"),
    (GT_TSCH, 1, "arrival-gt-s1"),
    (MSF, 1, "arrival-msf-s1"),
)


def arrival_scenario(scheduler: str, seed: int) -> Scenario:
    """The warm-start crash/rejoin cell of ``TestArrivalEquivalence``, plus
    one late arrival that boots synchronised (no EB scan) and waits for a DIO.
    """
    return churn_scenario(
        num_crashes=1,
        scheduler=scheduler,
        seed=seed,
        rate_ppm=60.0,
        measurement_s=14.0,
        warmup_s=8.0,
        num_arrivals=1,
    )


#: ``(scheduler, seed, pytest id)`` of the keepalive-desync suite.
DESYNC_CASES = ((ORCHESTRA, 1, "desync-orchestra-s1"),)


def desync_scenario(scheduler: str, seed: int) -> Scenario:
    """The cold-start join cell of ``TestDesyncEquivalence``.

    A 3 s keepalive window is short enough that synchronised nodes lose
    sync on their own (five desyncs for Orchestra seed 1, three of them
    before the window opens), so the desync teardown runs in both loops
    without a hand-forced silence.
    """
    return join_scenario(
        nodes_per_dodag=7, scheduler=scheduler, seed=seed, desync_timeout_s=3.0, measurement_s=20.0
    )


def scale_cell_scenario(scheduler: str, seed: int) -> Scenario:
    """The multi-DODAG cell of ``TestParticipantDispatch``."""
    return scale_scenario(
        num_nodes=30, scheduler=scheduler, seed=seed, measurement_s=6.0, warmup_s=4.0
    )


#: Node counts and windows of the scaling benchmark's smoke mode.
SCALING_NODE_COUNTS = (100, 200)
SCALING_WARMUP_S = 10.0
SCALING_MEASUREMENT_S = 15.0


def scaling_scenario(
    num_nodes: int,
    scheduler: str,
    seed: int = 1,
    warmup_s: float = SCALING_WARMUP_S,
    measurement_s: float = SCALING_MEASUREMENT_S,
) -> Scenario:
    """A cell of the scaling benchmark; the default windows are its smoke mode."""
    return scale_scenario(
        num_nodes, scheduler, seed=seed, measurement_s=measurement_s, warmup_s=warmup_s
    )


def scaling_family(num_nodes: int) -> str:
    return f"scaling{num_nodes}"


#: ``family -> (scenario builder, drain seconds)``.
FAMILIES: dict[str, tuple[Callable[[str, int], Scenario], float]] = {
    "skip": (skip_scenario, 3.0),
    "load165": (high_load_scenario, 3.0),
    "fault": (fault_scenario, 3.0),
    "dynamic": (dynamic_scenario, 3.0),
    "arrival": (arrival_scenario, 3.0),
    "desync": (desync_scenario, 3.0),
    "scale": (scale_cell_scenario, 2.0),
    **{
        scaling_family(count): (partial(scaling_scenario, count), DEFAULT_DRAIN_S)
        for count in SCALING_NODE_COUNTS
    },
}


def cell_id(family: str, scheduler: str, seed: int) -> str:
    return f"{family}/{scheduler}/s{seed}"


def all_cells() -> list[tuple[str, str, int]]:
    """Every golden cell as ``(family, scheduler, seed)``, ordered by id."""
    registered = [(scheduler, seed) for seed in (1, 2) for scheduler in ALL_REGISTERED]
    cases = {
        "skip": registered,
        "load165": [(scheduler, seed) for scheduler, seed, _ in HIGH_LOAD_CASES],
        "fault": [(scheduler, seed) for scheduler, seed, _ in FAULT_CASES],
        "dynamic": [(scheduler, seed) for scheduler, seed, _ in DYNAMIC_CASES],
        "arrival": [(scheduler, seed) for scheduler, seed, _ in ARRIVAL_CASES],
        "desync": [(scheduler, seed) for scheduler, seed, _ in DESYNC_CASES],
        "scale": registered,
        **{
            scaling_family(count): [(scheduler, 1) for scheduler in ALL_REGISTERED]
            for count in SCALING_NODE_COUNTS
        },
    }
    cells = [
        (family, scheduler, seed) for family, pairs in cases.items() for scheduler, seed in pairs
    ]
    return sorted(cells, key=lambda cell: cell_id(*cell))


def run_cell(family: str, scheduler: str, seed: int, fast: bool) -> tuple[Network, NetworkMetrics]:
    """Build and run one cell on the fast kernel or the reference loop."""
    build, drain_s = FAMILIES[family]
    scenario = build(scheduler, seed)
    network = scenario.build_network()
    network.fast = fast
    metrics = network.run_experiment(
        warmup_s=scenario.warmup_s,
        measurement_s=scenario.measurement_s,
        drain_s=drain_s,
        scheduler_name=scheduler,
    )
    return network, metrics
