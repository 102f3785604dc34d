"""Scenario definitions for the paper's three experiment families.

All scenarios share the Contiki-NG configuration of Table II
(:class:`ContikiConfig`): 15 ms timeslots, the 8-channel hopping sequence,
2 s EB period, MRHOF, 4 retransmissions, and a GT-TSCH slotframe of 32
timeslots.  A :class:`Scenario` fully describes one simulation run --
topology, workload, scheduler, durations, seed -- and
:func:`repro.experiments.runner.run_scenario` turns it into metrics.

The three factory functions mirror the paper's evaluation section:

* :func:`traffic_load_scenario` -- Fig. 8: two 7-node DODAGs (14 nodes),
  per-node rate swept over 30-165 ppm;
* :func:`dodag_size_scenario` -- Fig. 9: two DODAGs, 6-9 nodes per DODAG,
  120 ppm per node;
* :func:`slotframe_scenario` -- Fig. 10: fixed topology and rate, unicast
  slotframe length swept over 8-20 (GT-TSCH slotframe = 4x, as the paper
  does for fairness).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import GtTschConfig
from repro.core.game import GameWeights
from repro.faults import FaultInjector, FaultPlan
from repro.mac.hopping import DEFAULT_HOPPING_SEQUENCE
from repro.mac.tsch import TschConfig
from repro.net.network import Network
from repro.net.node import NodeConfig
from repro.net.topology import TopologyBuilder, multi_dodag_topology, scale_topology
from repro.net.traffic import PeriodicTrafficGenerator
from repro.phy.dynamic import DynamicMediumPolicy, arm_link_drift
from repro.phy.propagation import UnitDiskLossyEdgeModel
from repro.rpl.engine import RplConfig
from repro.schedulers import registry
from repro.schedulers.orchestra import OrchestraConfig
from repro.sixtop.layer import SixPConfig

#: Canonical scheduler names (constants for the common ones; the registry is
#: the authoritative list -- ``repro.schedulers.registry.available()``).
GT_TSCH = "GT-TSCH"
ORCHESTRA = "Orchestra"
MINIMAL = "6TiSCH-minimal"
MSF = "MSF"
DEBRAS = "DeBrAS"
OTF = "OTF"

#: Default drain phase (seconds) appended after the measurement window.
DEFAULT_DRAIN_S = 5.0


@dataclass
class ContikiConfig:
    """The shared protocol configuration of Table II."""

    slot_duration_s: float = 0.015
    hopping_sequence: tuple = DEFAULT_HOPPING_SEQUENCE
    eb_period_s: float = 2.0
    max_retries: int = 4
    queue_capacity: int = 8
    #: GT-TSCH slotframe length (Table II: 32).
    gt_slotframe_length: int = 32
    #: Orchestra unicast slotframe length.  The paper fixes the GT-TSCH
    #: slotframe to four times the Orchestra unicast slotframe for fairness
    #: (Section VIII, third experiment); the same ratio is applied everywhere.
    orchestra_unicast_length: int = 8
    #: Minimum DIO interval.  Table II lists 300 s for the steady-state phase;
    #: scenarios use a smaller value so the DODAG information (including the
    #: GT-TSCH l_rx option) circulates within the warm-up window, then Trickle
    #: doubling backs the rate off.
    dio_interval_min_s: float = 4.0
    #: GT-TSCH payoff weights (alpha, beta, gamma) and EWMA factor.
    game_weights: GameWeights = field(default_factory=GameWeights)
    queue_ewma_zeta: float = 0.5
    load_balance_period_s: float = 4.0
    num_broadcast_cells: int = 4
    #: Cold-start join (docs/faults.md): non-root nodes boot unsynchronised
    #: and scan for an Enhanced Beacon before anything above the MAC runs.
    cold_start_join: bool = False
    #: Slots per scan-channel dwell while unsynchronised.
    scan_dwell_slots: int = 64
    #: Keepalive silence window in seconds; 0 disables the desync watchdog.
    desync_timeout_s: float = 0.0

    def node_config(self) -> NodeConfig:
        """Bundle the per-node protocol configuration."""
        return NodeConfig(
            tsch=TschConfig(
                slot_duration_s=self.slot_duration_s,
                hopping_sequence=self.hopping_sequence,
                max_retries=self.max_retries,
                queue_capacity=self.queue_capacity,
                eb_period_s=self.eb_period_s,
                scan_dwell_slots=self.scan_dwell_slots,
                desync_timeout_s=self.desync_timeout_s,
            ),
            rpl=RplConfig(dio_interval_min_s=self.dio_interval_min_s),
            sixp=SixPConfig(timeout_s=6.0, max_retries=2),
            cold_start_join=self.cold_start_join,
        )

    def gt_tsch_config(self) -> GtTschConfig:
        return GtTschConfig(
            slotframe_length=self.gt_slotframe_length,
            num_broadcast_cells=self.num_broadcast_cells,
            num_channels=len(self.hopping_sequence),
            weights=self.game_weights,
            queue_ewma_zeta=self.queue_ewma_zeta,
            q_max=self.queue_capacity,
            load_balance_period_s=self.load_balance_period_s,
        )

    def orchestra_config(self) -> OrchestraConfig:
        return OrchestraConfig(
            unicast_slotframe_length=self.orchestra_unicast_length,
            num_channels=len(self.hopping_sequence),
        )


@dataclass
class Scenario:
    """A fully specified simulation run."""

    name: str
    scheduler: str
    topology: TopologyBuilder
    rate_ppm: float
    contiki: ContikiConfig = field(default_factory=ContikiConfig)
    seed: int = 1
    warmup_s: float = 30.0
    measurement_s: float = 60.0
    drain_s: float = DEFAULT_DRAIN_S
    #: Radio model; the default reproduces Cooja's UDGM with a lossy edge.
    propagation: Optional[UnitDiskLossyEdgeModel] = None
    warm_start: bool = True
    #: Deterministic fault plan (crashes, rejoins, link-degradation epochs,
    #: parent losses, late arrivals), armed on the network's event queue at
    #: build time.  Part of the scenario fingerprint like every other knob.
    faults: Optional[FaultPlan] = None
    #: Epoch-varying link quality: a seeded per-link PRR drift schedule
    #: (:class:`~repro.phy.dynamic.DynamicMediumPolicy`), armed at build
    #: time.  Epoch times are absolute, so they must land inside the run
    #: (warm-up + measurement + drain) for the final restore to fire.
    link_drift: Optional[DynamicMediumPolicy] = None

    def build_network(self) -> Network:
        """Instantiate the network for this scenario (not yet run)."""
        propagation = self.propagation or UnitDiskLossyEdgeModel()
        network = Network(
            propagation=propagation,
            seed=self.seed,
            default_node_config=self.contiki.node_config(),
        )
        # Every node keeps the factory for its reboots (desync, rejoin,
        # arrival): the single registry resolution is the only place
        # scheduler names are interpreted.
        network.build_from_topology(
            self.topology,
            scheduler_factory=self._scheduler_factory(),
            traffic_factory=self._traffic_factory(),
            warm_start=self.warm_start,
        )
        if self.faults is not None and not self.faults.is_empty():
            injector = FaultInjector(network, self.faults)
            injector.arm()
            network.fault_injector = injector
        if self.link_drift is not None:
            # Epoch boundaries are plain event-queue callbacks; the medium
            # is frozen by network.start() before the first one can fire.
            network.link_drift_driver = arm_link_drift(network, self.link_drift)
        return network

    # ------------------------------------------------------------------
    def _scheduler_factory(self) -> Callable:
        # Registry resolution replaces the old per-name if/elif chain: a
        # third-party SF registered via ``@register_scheduler`` is accepted
        # here (and everywhere downstream) with no scenario changes.  An
        # unknown name raises ``ValueError`` listing the registered ones.
        return registry.resolve(self.scheduler)(self.contiki)

    def _traffic_factory(self) -> Callable:
        rate = self.rate_ppm
        # Let the schedule bootstrap on a quiet network for the first part of
        # the warm-up, as a real deployment would before sensing starts.
        start_delay = self.warmup_s * 0.5

        def factory(node_id: int, is_root: bool):
            if is_root or rate <= 0:
                return None
            return PeriodicTrafficGenerator(rate_ppm=rate, start_delay_s=start_delay)

        return factory


# ----------------------------------------------------------------------
# the paper's three scenario families
# ----------------------------------------------------------------------
def traffic_load_scenario(
    rate_ppm: float,
    scheduler: str,
    seed: int = 1,
    contiki: Optional[ContikiConfig] = None,
    num_dodags: int = 2,
    nodes_per_dodag: int = 7,
    measurement_s: float = 60.0,
    warmup_s: float = 30.0,
) -> Scenario:
    """Fig. 8: two 7-node DODAGs, per-node rate swept over 30-165 ppm."""
    topology = multi_dodag_topology(num_dodags=num_dodags, nodes_per_dodag=nodes_per_dodag)
    return Scenario(
        name=f"fig8-load-{int(rate_ppm)}ppm-{scheduler}",
        scheduler=scheduler,
        topology=topology,
        rate_ppm=rate_ppm,
        contiki=contiki or ContikiConfig(),
        seed=seed,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
    )


def dodag_size_scenario(
    nodes_per_dodag: int,
    scheduler: str,
    rate_ppm: float = 120.0,
    seed: int = 1,
    contiki: Optional[ContikiConfig] = None,
    num_dodags: int = 2,
    measurement_s: float = 60.0,
    warmup_s: float = 30.0,
) -> Scenario:
    """Fig. 9: two DODAGs, 6-9 nodes each (12-18 nodes total), 120 ppm."""
    topology = multi_dodag_topology(num_dodags=num_dodags, nodes_per_dodag=nodes_per_dodag)
    return Scenario(
        name=f"fig9-size-{nodes_per_dodag}nodes-{scheduler}",
        scheduler=scheduler,
        topology=topology,
        rate_ppm=rate_ppm,
        contiki=contiki or ContikiConfig(),
        seed=seed,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
    )


def slotframe_scenario(
    unicast_slotframe_length: int,
    scheduler: str,
    rate_ppm: float = 120.0,
    seed: int = 1,
    num_dodags: int = 2,
    nodes_per_dodag: int = 7,
    measurement_s: float = 60.0,
    warmup_s: float = 30.0,
) -> Scenario:
    """Fig. 10: unicast slotframe length swept; GT-TSCH slotframe = 4x.

    Orchestra uses ``unicast_slotframe_length`` directly; GT-TSCH uses a
    single slotframe of four times that size, the fairness rule stated in the
    paper's third experiment.
    """
    contiki = ContikiConfig(
        orchestra_unicast_length=unicast_slotframe_length,
        gt_slotframe_length=4 * unicast_slotframe_length,
    )
    topology = multi_dodag_topology(num_dodags=num_dodags, nodes_per_dodag=nodes_per_dodag)
    return Scenario(
        name=f"fig10-slotframe-{unicast_slotframe_length}-{scheduler}",
        scheduler=scheduler,
        topology=topology,
        rate_ppm=rate_ppm,
        contiki=contiki,
        seed=seed,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
    )


# ----------------------------------------------------------------------
# the churn / fault-injection family (robustness head-to-head)
# ----------------------------------------------------------------------
def churn_scenario(
    num_crashes: int,
    scheduler: str,
    rate_ppm: float = 120.0,
    seed: int = 1,
    contiki: Optional[ContikiConfig] = None,
    num_dodags: int = 2,
    nodes_per_dodag: int = 7,
    measurement_s: float = 60.0,
    warmup_s: float = 30.0,
    plan_seed: int = 1,
    num_arrivals: int = 0,
    link_drift: Optional[DynamicMediumPolicy] = None,
    cold_start: bool = False,
) -> Scenario:
    """Robustness sweep: ``num_crashes`` node crashes under the Fig. 8 topology.

    Each crashed node reboots a quarter of the measurement window later and
    warm-rejoins the DODAG; a link-degradation epoch and a parent-loss
    injection exercise the remaining fault classes.  ``plan_seed`` is kept
    separate from the simulation ``seed`` so a multi-seed sweep replays the
    *same* fault plan against different stochastic networks -- the CIs then
    measure the network's response to one fixed fault scenario.

    The dynamic-network extensions are strictly opt-in (defaults leave the
    legacy plan bit-identical): ``num_arrivals`` nodes are absent from slot
    0 and power on inside the second half of the window; ``link_drift``
    layers a seeded per-link PRR drift schedule on top of the plan's
    network-wide degradation epoch; ``cold_start`` boots every non-root
    node unsynchronised (EB scan first, ``warm_start`` off).
    """
    topology = multi_dodag_topology(num_dodags=num_dodags, nodes_per_dodag=nodes_per_dodag)
    # Roots sit at d * nodes_per_dodag and must never crash; everything else
    # is a crash candidate.
    candidates = [
        dodag * nodes_per_dodag + index
        for dodag in range(num_dodags)
        for index in range(1, nodes_per_dodag)
    ]
    plan = FaultPlan.churn(
        candidates,
        seed=plan_seed,
        num_crashes=num_crashes,
        crash_window=(
            warmup_s + 0.15 * measurement_s,
            warmup_s + 0.45 * measurement_s,
        ),
        detect_after_s=2.0,
        rejoin_after_s=0.25 * measurement_s,
        degrade_at_s=warmup_s + 0.50 * measurement_s,
        degrade_scale=0.7,
        degrade_duration_s=0.15 * measurement_s,
        parent_loss_at_s=warmup_s + 0.75 * measurement_s,
        num_arrivals=num_arrivals,
        arrival_window=(
            warmup_s + 0.55 * measurement_s,
            warmup_s + 0.70 * measurement_s,
        ),
    )
    suffix = ""
    if num_arrivals:
        suffix += f"-{num_arrivals}arrive"
    if link_drift is not None:
        suffix += "-drift"
    if cold_start:
        suffix += "-cold"
        contiki = replace(contiki or ContikiConfig(), cold_start_join=True)
    return Scenario(
        name=f"churn-{num_crashes}crash{suffix}-{scheduler}",
        scheduler=scheduler,
        topology=topology,
        rate_ppm=rate_ppm,
        contiki=contiki or ContikiConfig(),
        seed=seed,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
        warm_start=not cold_start,
        faults=plan,
        link_drift=link_drift,
    )


# ----------------------------------------------------------------------
# the cold-start join family (dynamic-network robustness)
# ----------------------------------------------------------------------
def join_scenario(
    nodes_per_dodag: int,
    scheduler: str,
    rate_ppm: float = 60.0,
    seed: int = 1,
    contiki: Optional[ContikiConfig] = None,
    num_dodags: int = 2,
    measurement_s: float = 90.0,
    warmup_s: float = 5.0,
    desync_timeout_s: float = 0.0,
    link_drift: Optional[DynamicMediumPolicy] = None,
) -> Scenario:
    """Cold-start join sweep: every non-root node boots unsynchronised.

    Nothing is warm-started: the roots anchor the ASN and advertise EBs and
    DIOs; every other node scans for a beacon, synchronises, acquires an
    RPL parent, and only then sources traffic.  The headline outputs are
    ``time_to_join_s`` and ``time_to_first_packet_s`` (collector-censored
    at the window close for nodes that never make it), swept over the
    DODAG size -- deeper DODAGs join strictly later because a child can
    only hear beacons once its ancestors advertise.

    The warm-up is kept short on purpose: join clocks are boot-relative
    (they are not reset when the measurement window opens), but the first
    packets must land inside the window to close the first-packet episodes.
    """
    contiki = replace(
        contiki or ContikiConfig(),
        cold_start_join=True,
        desync_timeout_s=desync_timeout_s,
    )
    topology = multi_dodag_topology(num_dodags=num_dodags, nodes_per_dodag=nodes_per_dodag)
    return Scenario(
        name=f"join-{nodes_per_dodag}nodes-{scheduler}",
        scheduler=scheduler,
        topology=topology,
        rate_ppm=rate_ppm,
        contiki=contiki,
        seed=seed,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
        warm_start=False,
        link_drift=link_drift,
    )


# ----------------------------------------------------------------------
# the scaling family (beyond the paper's evaluation sizes)
# ----------------------------------------------------------------------
#: Per-node application rate of the scaling family (packets per minute).
#: Large telemetry deployments report on the order of once every tens of
#: seconds per node; 2 ppm keeps the *network-wide* load growing linearly
#: with N while each node's duty stays realistic.
SCALE_RATE_PPM = 2.0
#: EB / load-balancing periods for converged large networks.  Table II's 2 s
#: EB period suits an 18-node testbed; at hundreds of nodes it would put
#: more beacons than timeslots on the air, so the scaling family uses the
#: slower advertisement cadence of a converged deployment.
SCALE_EB_PERIOD_S = 32.0
SCALE_LOAD_BALANCE_PERIOD_S = 32.0
#: DODAG size of the scaling family (the paper's DODAGs are 6-9 nodes;
#: scale comes from adding DODAGs, not from inflating one).
SCALE_NODES_PER_DODAG = 10


def scale_scenario(
    num_nodes: int,
    scheduler: str,
    rate_ppm: float = SCALE_RATE_PPM,
    seed: int = 1,
    contiki: Optional[ContikiConfig] = None,
    nodes_per_dodag: int = SCALE_NODES_PER_DODAG,
    measurement_s: float = 40.0,
    warmup_s: float = 20.0,
) -> Scenario:
    """Scaling sweep: ``num_nodes`` total (100-500+) across many small DODAGs.

    Opens the workload the paper stops short of: the same protocol stack and
    Table II parameters, but with the number of paper-sized DODAGs scaled
    until the site holds hundreds of motes.  Defaults model a *converged*
    large deployment (sparse telemetry traffic, slow EB cadence), the regime
    the participant-dispatch kernel is benchmarked in.
    """
    topology = scale_topology(num_nodes=num_nodes, nodes_per_dodag=nodes_per_dodag)
    if contiki is None:
        contiki = ContikiConfig(
            eb_period_s=SCALE_EB_PERIOD_S,
            load_balance_period_s=SCALE_LOAD_BALANCE_PERIOD_S,
        )
    return Scenario(
        name=f"scale-{num_nodes}nodes-{scheduler}",
        scheduler=scheduler,
        topology=topology,
        rate_ppm=rate_ppm,
        contiki=contiki,
        seed=seed,
        warmup_s=warmup_s,
        measurement_s=measurement_s,
    )
