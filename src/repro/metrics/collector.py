"""Network-wide metrics collection.

The collector observes three application-level events -- a data packet being
generated, delivered at a root, or irrecoverably lost -- plus, at the end of
the measurement window, the per-node MAC counters (queue drops, radio duty
cycle).  Metrics are computed only over the *measurement window*: everything
that happens during warm-up (network formation, initial 6P negotiation) is
excluded, mirroring how the paper measures steady-state behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class NetworkMetrics:
    """The six headline metrics of the paper plus supporting counters."""

    #: Name of the scheduler that produced these numbers.
    scheduler: str = ""
    #: Measurement window length in seconds.
    duration_s: float = 0.0
    generated: int = 0
    delivered: int = 0
    lost: int = 0

    #: Fig. 8a/9a/10a -- packet delivery ratio, percent.
    pdr_percent: float = 0.0
    #: Fig. 8b/9b/10b -- average end-to-end delay per delivered packet, ms.
    end_to_end_delay_ms: float = 0.0
    #: Fig. 8c/9c/10c -- lost packets per minute (network-wide).
    packet_loss_per_minute: float = 0.0
    #: Fig. 8d/9d/10d -- average radio duty cycle per node, percent.
    radio_duty_cycle_percent: float = 0.0
    #: Fig. 8e/9e/10e -- average queue loss per node over the window.
    queue_loss_per_node: float = 0.0
    #: Fig. 8f/9f/10f -- packets received by root nodes per minute.
    received_per_minute: float = 0.0

    #: Supporting detail, not plotted in the paper but useful for analysis.
    delay_p95_ms: float = 0.0
    delay_max_ms: float = 0.0
    avg_hops: float = 0.0
    queue_loss_total: int = 0
    mac_drop_total: int = 0
    no_route_drops: int = 0
    control_packets_sent: int = 0
    #: 6P schedule churn over the window: cells installed or removed as the
    #: outcome of 6P transactions, summed over all nodes (GT-TSCH only --
    #: autonomous schedulers negotiate nothing).
    sixp_cell_relocations: int = 0
    #: The same churn normalised to the scheduler's load-balancing period:
    #: relocations the whole network performs per game round.  Sustained
    #: non-zero values mean the game keeps re-placing cells instead of
    #: converging (the ROADMAP's GT-TSCH convergence question).
    sixp_relocations_per_lb_period: float = 0.0
    #: Recovery metrics (fault injection, see docs/faults.md).  All stay
    #: zero in fault-free runs.  ``time_to_reconverge_s`` averages the
    #: orphan episodes -- parent lost to re-attachment, with episodes still
    #: open at window close censored at the window end -- over every node
    #: that lost its parent to a fault (crashed nodes included, measured
    #: from the crash).  ``pdr_under_churn_percent`` is the PDR restricted
    #: to packets generated at or after the first injected fault.
    time_to_reconverge_s: float = 0.0
    pdr_under_churn_percent: float = 0.0
    #: Data packets flushed by crash handling: queue lost with a crashing
    #: node, survivor queues flushed towards a dead neighbor, and
    #: parent-loss flushes.
    packets_lost_to_crash: int = 0
    #: Scheduled cells that pointed at a dead neighbor when its crash was
    #: detected (torn down at that instant).
    orphaned_cell_slots: int = 0
    #: Fault events injected inside the measurement window.
    faults_injected: int = 0
    #: Cold-join metrics (cold-start scans and late arrivals, see
    #: docs/faults.md).  Both stay zero in scenarios without cold boots.
    #: ``time_to_join_s`` averages, over every join episode, the time from
    #: boot (scan start or power-on) to the first parent acquisition;
    #: episodes still open when the window closes are censored at the
    #: window end, so a node that never joins drags the average up instead
    #: of vanishing from it.  ``time_to_first_packet_s`` measures boot to
    #: the first *measured* data packet from that node delivered at a
    #: root, censored the same way.
    time_to_join_s: float = 0.0
    time_to_first_packet_s: float = 0.0
    #: Join episodes actually completed (uncensored joins).
    nodes_joined: int = 0
    per_node: dict[int, dict] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat dictionary of the headline metrics (for tables / CSV)."""
        return {
            "scheduler": self.scheduler,
            "pdr_percent": self.pdr_percent,
            "end_to_end_delay_ms": self.end_to_end_delay_ms,
            "packet_loss_per_minute": self.packet_loss_per_minute,
            "radio_duty_cycle_percent": self.radio_duty_cycle_percent,
            "queue_loss_per_node": self.queue_loss_per_node,
            "received_per_minute": self.received_per_minute,
            "generated": self.generated,
            "delivered": self.delivered,
            "sixp_cell_relocations": self.sixp_cell_relocations,
            "sixp_relocations_per_lb_period": self.sixp_relocations_per_lb_period,
            "time_to_reconverge_s": self.time_to_reconverge_s,
            "pdr_under_churn_percent": self.pdr_under_churn_percent,
            "packets_lost_to_crash": self.packets_lost_to_crash,
            "orphaned_cell_slots": self.orphaned_cell_slots,
            "time_to_join_s": self.time_to_join_s,
            "time_to_first_packet_s": self.time_to_first_packet_s,
            "nodes_joined": self.nodes_joined,
        }


@dataclass
class _GeneratedRecord:
    node_id: int
    created_at: float


def _node_counters(node) -> dict:
    """Snapshot of one node's cumulative counters and its duty cycle."""
    return {
        "queue_drops": node.tsch.queue.data_drops,
        "mac_drops": node.tsch.stats.mac_drops,
        "routing_drops": node.stats.routing_drops,
        "control_sent": node.stats.eb_sent + node.rpl.dio_sent + node.rpl.dao_sent
        + node.sixtop.requests_sent + node.sixtop.responses_sent,
        "duty_cycle_percent": node.tsch.duty_cycle.duty_cycle_percent,
        "relocations": node.scheduler.relocation_count(),
    }


def _censored_mean(durations: list[float], open_episodes: dict[int, float], end: float) -> float:
    """Mean episode length, each still-open episode censored at ``end``.

    Censoring keeps a node that never finishes its episode in the average
    (it drags the mean up) instead of letting it vanish; 0.0 without any
    episode.
    """
    lengths = list(durations)
    for _node_id, started in sorted(open_episodes.items()):
        lengths.append(max(0.0, end - started))
    return sum(lengths) / len(lengths) if lengths else 0.0


class MetricsCollector:
    """Collects application-level events and MAC counters for one run."""

    def __init__(self) -> None:
        self.measuring = False
        self.window_start = 0.0
        self.window_end: Optional[float] = None
        self._generated: dict[int, _GeneratedRecord] = {}
        self._delivered: dict[int, float] = {}
        self._delays_ms: list[float] = []
        self._hops: list[int] = []
        self._losses: dict[str, int] = {"queue": 0, "mac-retries": 0, "no-route": 0}
        #: Fault-injection / recovery state (fed by the FaultInjector and
        #: the nodes' parent-change hook).
        self._first_fault_time: Optional[float] = None
        self._faults_injected = 0
        #: node id -> time its current orphan episode opened.
        self._orphan_open: dict[int, float] = {}
        self._reconverge_durations: list[float] = []
        self._orphaned_cells = 0
        #: Cold-join tracking (cold-start scans and late arrivals).  Unlike
        #: the window-scoped counters these are *not* reset by
        #: ``begin_measurement``: a join episode is boot-relative (a cold
        #: node starts scanning at t=0, typically well before the window
        #: opens), and its duration is meaningful regardless of where the
        #: window lands.  Finalisation censors still-open episodes at the
        #: window close.
        self._join_open: dict[int, float] = {}
        self._join_durations: list[float] = []
        self._first_packet_open: dict[int, float] = {}
        self._first_packet_durations: list[float] = []
        #: Per-node counter snapshots taken at the start of the window so the
        #: warm-up phase does not contaminate the measured values.
        self._node_baselines: dict[int, dict] = {}
        #: Per-node counter snapshots taken when the window closes (so that a
        #: drain phase does not contaminate the measured values either).
        self._node_finals: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # window control (driven by the Network / experiment runner)
    # ------------------------------------------------------------------
    def begin_measurement(self, nodes, now: float) -> None:
        """Open the measurement window and snapshot per-node counters."""
        self.measuring = True
        self.window_start = now
        self._generated.clear()
        self._delivered.clear()
        self._delays_ms.clear()
        self._hops.clear()
        for key in self._losses:
            self._losses[key] = 0
        self._first_fault_time = None
        self._faults_injected = 0
        self._orphan_open.clear()
        self._reconverge_durations.clear()
        self._orphaned_cells = 0
        for node in nodes:
            # The meter restarts with the window, so only the finals' duty
            # cycle is read.
            node.tsch.duty_cycle.reset()
            self._node_baselines[node.node_id] = _node_counters(node)

    def end_measurement(self, nodes=None, now: float = 0.0) -> None:
        """Close the window (deliveries of already-generated packets still count).

        When ``nodes`` is given, the per-node counters are snapshotted at this
        instant so that a subsequent drain phase (run only to let in-flight
        packets reach the root) does not perturb the duty-cycle and loss
        counters.
        """
        self.window_end = now
        self.measuring = False
        if nodes is not None:
            for node in nodes:
                self._node_finals[node.node_id] = _node_counters(node)

    # ------------------------------------------------------------------
    # event hooks (called by nodes)
    # ------------------------------------------------------------------
    def on_data_generated(self, node, packet) -> None:
        if not self.measuring:
            return
        self._generated[packet.packet_id] = _GeneratedRecord(
            node_id=node.node_id, created_at=packet.created_at
        )

    def on_data_delivered(self, node, packet) -> None:
        record = self._generated.get(packet.packet_id)
        if record is None or packet.packet_id in self._delivered:
            return
        now = node.event_queue.now
        self._delivered[packet.packet_id] = now
        self._delays_ms.append((now - record.created_at) * 1000.0)
        self._hops.append(packet.hops)
        started = self._first_packet_open.pop(record.node_id, None)
        if started is not None:
            self._first_packet_durations.append(now - started)

    def on_data_lost(self, node, packet, reason: str) -> None:
        if packet.packet_id not in self._generated:
            return
        if reason not in self._losses:
            self._losses[reason] = 0
        self._losses[reason] += 1

    # ------------------------------------------------------------------
    # fault / recovery hooks (called by the FaultInjector and the nodes)
    # ------------------------------------------------------------------
    def on_fault_injected(self, kind: str, now: float) -> None:
        """A fault event fired; the first one anchors PDR-under-churn."""
        self._faults_injected += 1
        if self._first_fault_time is None:
            self._first_fault_time = now

    def on_node_orphaned(self, node_id: int, now: float) -> None:
        """A node lost its preferred parent (eviction or its own crash)."""
        self._orphan_open.setdefault(node_id, now)

    def on_node_recovered(self, node_id: int, now: float) -> None:
        """An orphaned node re-attached; closes its episode if one is open.

        Re-attachments with no matching episode (cold-start joins, warm
        rejoin of a node that crashed while already detached) are ignored.
        """
        started = self._orphan_open.pop(node_id, None)
        if started is not None:
            self._reconverge_durations.append(now - started)

    def on_cells_orphaned(self, count: int) -> None:
        """``count`` scheduled cells pointed at a neighbor now known dead."""
        self._orphaned_cells += count

    # ------------------------------------------------------------------
    # cold-join hooks (called by nodes and the FaultInjector)
    # ------------------------------------------------------------------
    def on_join_pending(self, node_id: int, now: float) -> None:
        """A join episode opened: a cold node began its EB scan, or a late
        arrival powered on.  Re-opening (desync re-scan) restarts both the
        join and the first-packet clocks."""
        self._join_open[node_id] = now
        self._first_packet_open[node_id] = now

    def on_node_joined(self, node_id: int, now: float) -> None:
        """A cold node acquired its first RPL parent; closes its episode."""
        started = self._join_open.pop(node_id, None)
        if started is not None:
            self._join_durations.append(now - started)

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def finalize(self, nodes, now: float, scheduler_name: str = "") -> NetworkMetrics:
        """Compute the headline metrics over the measurement window."""
        window_end = self.window_end if self.window_end is not None else now
        duration = max(window_end - self.window_start, 1e-9)
        minutes = duration / 60.0

        generated = len(self._generated)
        delivered = len(self._delivered)
        lost = generated - delivered

        metrics = NetworkMetrics(scheduler=scheduler_name, duration_s=duration)
        metrics.generated = generated
        metrics.delivered = delivered
        metrics.lost = lost
        metrics.pdr_percent = (100.0 * delivered / generated) if generated else 0.0
        if self._delays_ms:
            metrics.end_to_end_delay_ms = sum(self._delays_ms) / len(self._delays_ms)
            ordered = sorted(self._delays_ms)
            metrics.delay_p95_ms = ordered[int(0.95 * (len(ordered) - 1))]
            metrics.delay_max_ms = ordered[-1]
        if self._hops:
            metrics.avg_hops = sum(self._hops) / len(self._hops)
        metrics.packet_loss_per_minute = lost / minutes if minutes > 0 else 0.0
        metrics.received_per_minute = delivered / minutes if minutes > 0 else 0.0

        node_list = list(nodes)
        queue_loss_total = 0
        mac_drop_total = 0
        no_route_total = 0
        control_total = 0
        duty_sum = 0.0
        relocation_total = 0
        lb_period_s = 0.0
        for node in node_list:
            baseline = self._node_baselines.get(node.node_id, {})
            final = self._node_finals.get(node.node_id)
            if final is None:
                final = _node_counters(node)
            queue_drops = final["queue_drops"] - baseline.get("queue_drops", 0)
            mac_drops = final["mac_drops"] - baseline.get("mac_drops", 0)
            routing_drops = final["routing_drops"] - baseline.get("routing_drops", 0)
            control = final["control_sent"] - baseline.get("control_sent", 0)
            relocations = final.get("relocations", 0) - baseline.get("relocations", 0)
            duty_cycle_percent = final["duty_cycle_percent"]
            queue_loss_total += queue_drops
            mac_drop_total += mac_drops
            no_route_total += routing_drops
            control_total += control
            relocation_total += relocations
            duty_sum += duty_cycle_percent
            if not lb_period_s:
                lb_period_s = node.scheduler.load_balance_period_s()
            metrics.per_node[node.node_id] = {
                "queue_drops": queue_drops,
                "mac_drops": mac_drops,
                "routing_drops": routing_drops,
                "sixp_cell_relocations": relocations,
                "duty_cycle_percent": duty_cycle_percent,
                "queue_length": node.tsch.queue_length(),
                "rank": node.rpl.rank,
                "parent": node.rpl.preferred_parent,
            }

        # --- recovery metrics (all zero without injected faults) ---------
        metrics.faults_injected = self._faults_injected
        metrics.packets_lost_to_crash = self._losses.get("crash", 0) + self._losses.get(
            "parent-loss", 0
        )
        metrics.orphaned_cell_slots = self._orphaned_cells
        metrics.time_to_reconverge_s = _censored_mean(
            self._reconverge_durations, self._orphan_open, window_end
        )
        # --- cold-join metrics (zero without cold boots / arrivals) ------
        metrics.nodes_joined = len(self._join_durations)
        metrics.time_to_join_s = _censored_mean(
            self._join_durations, self._join_open, window_end
        )
        metrics.time_to_first_packet_s = _censored_mean(
            self._first_packet_durations, self._first_packet_open, window_end
        )
        if self._first_fault_time is not None:
            cutoff = self._first_fault_time
            churn_generated = [
                packet_id
                for packet_id, record in self._generated.items()
                if record.created_at >= cutoff
            ]
            if churn_generated:
                churn_delivered = sum(
                    1 for packet_id in churn_generated if packet_id in self._delivered
                )
                metrics.pdr_under_churn_percent = (
                    100.0 * churn_delivered / len(churn_generated)
                )

        metrics.queue_loss_total = queue_loss_total
        metrics.mac_drop_total = mac_drop_total
        metrics.no_route_drops = no_route_total
        metrics.control_packets_sent = control_total
        metrics.sixp_cell_relocations = relocation_total
        if lb_period_s > 0:
            metrics.sixp_relocations_per_lb_period = (
                relocation_total * lb_period_s / duration
            )
        if node_list:
            metrics.queue_loss_per_node = queue_loss_total / len(node_list)
            metrics.radio_duty_cycle_percent = duty_sum / len(node_list)
        return metrics
