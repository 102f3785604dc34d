"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live network.

Every fault fires as an ordinary :class:`~repro.sim.events.EventQueue`
callback at an absolute simulation time, which is the whole trick: both
slot loops (the slot-skipping kernel and ``step_slot_reference``) drain
the event queue at slot boundaries through exactly the same
``events.run_until`` calls, so a fault mutates the network at the same
ASN, in the same callback order, with the same random-stream state in
either loop.  The mutations themselves only ever go through hooks that
are already settlement barriers for the fast kernel:

* schedule teardown runs through ``TschEngine.clear_schedule`` /
  per-cell removals, whose ``on_schedule_change`` hook fires before the
  change applies and settles deferred CSMA and duty-cycle accounting
  under the schedule still installed;
* queue flushes run through ``TschEngine.flush_queue``, whose
  ``mark_queue_mutated`` hook settles deferred CSMA state and maintains
  the backlog index;
* a node's stack goes down only through ``Node.power_down`` (shared with
  the keepalive desync) and comes up only through ``Node.power_up``
  (shared with network start and a cold node's synchronisation);
* RPL state changes only through :class:`~repro.rpl.engine.RplEngine`'s
  own methods: a crashing node detaches silently (``detach``, called by
  ``Node.power_down``), survivors learn of the crash through
  ``remove_child`` / ``evict_neighbor``, a late arrival's presets are
  erased with ``detach`` / ``forget``, and a warm rejoin re-attaches with
  ``warm_start``;
* link-quality epochs rebuild the frozen ``Medium`` PRR rows through
  ``Medium.set_prr_scale`` without unfreezing, so the dispatch kernel's
  audience/interference tables stay valid.

Because of that, the injector adds no new synchronisation of its own --
the fault-on equivalence suite in ``tests/net/test_fast_kernel.py`` holds
the two loops bit-identical under crash, rejoin, link-degradation,
parent-loss and late-arrival faults.  Late arrivals
(:class:`~repro.faults.plan.NodeArrival`) are additionally *pre-marked*
absent at arm time -- before slot 0 -- so the initial state both loops
start from is identical by construction.  See ``docs/faults.md`` for the
full contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.faults.plan import (
    FaultPlan,
    LinkDegradation,
    NodeArrival,
    NodeCrash,
    NodeRejoin,
    ParentLoss,
)
from repro.net.packet import PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.net.node import Node

__all__ = ["FaultInjector"]


@dataclass
class _CrashRecord:
    """DODAG state and traffic flag at power-off, for the next power-on."""

    parent: Optional[int]
    rank: int
    dodag_id: Optional[int]
    traffic_enabled: bool


class FaultInjector:
    """Schedules and executes the events of one :class:`FaultPlan`.

    A rejoin boots the node with a *fresh* scheduling-function instance
    (cold-reboot semantics -- the old instance's cell bookkeeping died with
    the schedule), as does a late arrival: ``Node.reboot_scheduler`` builds
    it from the factory the node was built with, so every node a plan
    reboots needs one (``Network.build_from_topology`` gives it).
    """

    def __init__(self, network: "Network", plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self._records: dict[int, _CrashRecord] = {}
        #: PRR scales of the currently open link-degradation epochs; the
        #: medium always carries their product, recomputed from scratch on
        #: every change so closing the last epoch restores *exactly* 1.0.
        self._active_scales: list[float] = []
        self.armed = False

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Validate the plan and schedule every fault event (idempotent)."""
        if self.armed:
            return
        for crash in self.plan.crashes:
            node = self.network.nodes.get(crash.node_id)
            if node is None:
                raise ValueError(f"fault plan names unknown node {crash.node_id}")
            if node.is_root:
                raise ValueError(
                    f"fault plan crashes root node {crash.node_id}; a rootless "
                    "DODAG has no recovery to measure"
                )
        for arrival in self.plan.arrivals:
            node = self.network.nodes.get(arrival.node_id)
            if node is None:
                raise ValueError(f"fault plan names unknown node {arrival.node_id}")
            if node.is_root:
                raise ValueError(
                    f"fault plan delays root node {arrival.node_id}; the root "
                    "anchors the ASN and the DODAG and cannot arrive late"
                )
        for reboot in (*self.plan.rejoins, *self.plan.arrivals):
            node = self.network.nodes.get(reboot.node_id)
            if node is None:
                raise ValueError(f"fault plan names unknown node {reboot.node_id}")
            if node.scheduler_factory is None:
                raise ValueError(
                    f"fault plan reboots node {reboot.node_id}, which has no "
                    "scheduler_factory (it was added with a bare scheduler)"
                )
        if self.plan.arrivals:
            if self.network._started:
                raise ValueError(
                    "arrival plans must be armed before the network starts"
                )
            # Pre-mark every late arrival absent *now*, before slot 0: both
            # slot loops then see identical initial state, and Network.start
            # skips the dead nodes (their boot is the scheduled event below).
            for arrival in self.plan.arrivals:
                self._mark_absent(self.network.nodes[arrival.node_id])
        events = self.network.events
        for time_s, _order, event in self.plan.events():
            if isinstance(event, NodeCrash):
                events.schedule(
                    time_s, self._crash, event, label=f"fault-crash.{event.node_id}"
                )
                events.schedule(
                    time_s + event.detect_after_s,
                    self._detect,
                    event,
                    label=f"fault-detect.{event.node_id}",
                )
            elif isinstance(event, NodeRejoin):
                events.schedule(
                    time_s, self._rejoin, event, label=f"fault-rejoin.{event.node_id}"
                )
            elif isinstance(event, LinkDegradation):
                events.schedule(time_s, self._begin_epoch, event, label="fault-degrade")
                events.schedule(
                    time_s + event.duration_s,
                    self._end_epoch,
                    event,
                    label="fault-restore",
                )
            elif isinstance(event, ParentLoss):
                events.schedule(
                    time_s,
                    self._parent_loss,
                    event,
                    label=f"fault-parent-loss.{event.node_id}",
                )
            elif isinstance(event, NodeArrival):
                events.schedule(
                    time_s,
                    self._arrival,
                    event,
                    label=f"fault-arrival.{event.node_id}",
                )
        self.armed = True

    def _mark_absent(self, node: "Node") -> None:
        """Strip a late arrival's presence before the simulation starts.

        Runs at arm time, before any scheduler starts, so every mutation is
        hook-free by construction: there are no installed cells to tear
        down and no queued packets to flush.  The node keeps its medium row
        (the medium stays frozen); only its liveness and any warm-started
        DODAG state -- its own and every reference other nodes' presets
        hold to it -- are erased.  The Trickle timer its preset armed keeps
        running, with no rank to advertise.
        """
        node.rpl.detach()
        self._power_off(node)
        # A survivor whose warm-start preset routed through the absent node
        # boots detached and joins through DIO exchange like any cold node.
        for survivor in self.network.nodes.values():
            if survivor is not node:
                survivor.rpl.forget(node.node_id)

    # ------------------------------------------------------------------
    # power-off / power-on, shared by every fault that kills or boots a node
    # ------------------------------------------------------------------
    def _power_off(self, node: "Node") -> None:
        """Record what the node's next power-on restores, then kill it."""
        rpl = node.rpl
        self._records[node.node_id] = _CrashRecord(
            parent=rpl.preferred_parent,
            rank=rpl.rank,
            dodag_id=rpl.dodag_id,
            traffic_enabled=node.traffic_enabled,
        )
        node.alive = False
        node.traffic_enabled = False

    def _power_on(self, fault: NodeRejoin | NodeArrival, kind: str) -> Optional["Node"]:
        """The power-on a rejoin and an arrival share: liveness, a fresh
        scheduler, the recorded traffic flag and the fault count.

        Returns the node if the caller must power its stack up now; ``None``
        if it was alive, or if it is a cold-start node, which scans for an
        EB and boots on the first one (``Node._synchronise``).
        """
        node = self.network.nodes[fault.node_id]
        if node.alive:
            return None
        node.alive = True
        node.reboot_scheduler()
        node.traffic_enabled = self._records[node.node_id].traffic_enabled
        metrics = self.network.metrics
        if metrics is not None:
            metrics.on_fault_injected(kind, self.network.events.now)
        if node.cold_start:
            node.begin_scan()
            return None
        return node

    # ------------------------------------------------------------------
    # node crash / detection / rejoin
    # ------------------------------------------------------------------
    def _crash(self, fault: NodeCrash) -> None:
        """Hard power-off: radio, timers and queue die instantly."""
        node = self.network.nodes[fault.node_id]
        if not node.alive:
            return
        self._power_off(node)
        # RPL detaches without advertising anything: neighbors only find
        # out at detection time.
        node.power_down("crash")

    def _detect(self, fault: NodeCrash) -> None:
        """Survivors react to the crash ``detect_after_s`` later.

        Models neighbor-liveness expiry collapsed to one deterministic
        instant: every surviving node counts the cells it had scheduled
        with the dead neighbor (the orphaned-slot metric), flushes traffic
        addressed to it, tears down child state and evicts it from the
        RPL candidate set -- which, for its children, detaches and
        immediately re-runs parent selection.
        """
        dead = fault.node_id
        if self.network.nodes[dead].alive:
            return  # rebooted before anyone noticed
        metrics = self.network.metrics
        for survivor in self.network.nodes.values():
            if survivor.node_id == dead or not survivor.alive:
                continue
            orphaned = sum(
                len(frame.cells_with_neighbor(dead))
                for frame in survivor.tsch.slotframes.values()
            )
            if orphaned and metrics is not None:
                metrics.on_cells_orphaned(orphaned)
            for packet in survivor.tsch.flush_queue(destination=dead):
                if packet.ptype is PacketType.DATA and metrics is not None:
                    metrics.on_data_lost(survivor, packet, reason="crash")
            survivor.rpl.remove_child(dead)
            survivor.rpl.evict_neighbor(dead)

    def _rejoin(self, fault: NodeRejoin) -> None:
        """Cold reboot: fresh scheduler, empty schedule, warm RPL re-attach
        when the pre-crash parent is still alive (else listen for DIOs)."""
        node = self._power_on(fault, "rejoin")
        if node is None:
            return
        record = self._records[node.node_id]
        parent, dodag_id = record.parent, record.dodag_id
        if parent is not None and dodag_id is not None and self.network.nodes[parent].alive:
            node.power_up(
                lambda: node.rpl.warm_start(parent=parent, rank=record.rank, dodag_id=dodag_id)
            )
        else:
            # Cold re-attach: the node listens until a DIO adopts it.
            node.power_up()

    def _arrival(self, fault: NodeArrival) -> None:
        """Late power-on: fresh scheduler, *no* DODAG state, cold join.

        Shares a rejoin's power-on, but never warm-starts: the node either
        scans for an Enhanced Beacon first (cold-start-join configs) or
        boots its stack at once -- the idealisation matching warm rejoin --
        and listens until a DIO adopts it.
        """
        node = self._power_on(fault, "arrival")
        if node is None:
            return
        node.open_join_episode()
        node.power_up()
        # A booting RPL node multicasts a DIS solicitation; audible joined
        # neighbors react per RFC 6206 by resetting their Trickle timers
        # (prompt DIO).  The reaction is modelled without simulating the
        # DIS frame itself -- by arrival time the neighbors' intervals have
        # backed off so far that an unsolicited join could outwait the run.
        self.network.solicit_dios(node)

    # ------------------------------------------------------------------
    # parent loss
    # ------------------------------------------------------------------
    def _parent_loss(self, fault: ParentLoss) -> None:
        """Unconfirmed link death: flush towards the parent, evict, reselect."""
        node = self.network.nodes[fault.node_id]
        if not node.alive:
            return
        metrics = self.network.metrics
        if metrics is not None:
            metrics.on_fault_injected("parent-loss", self.network.events.now)
        parent = node.rpl.preferred_parent
        if parent is None:
            return
        for packet in node.tsch.flush_queue(destination=parent):
            if packet.ptype is PacketType.DATA and metrics is not None:
                metrics.on_data_lost(node, packet, reason="parent-loss")
        node.rpl.evict_neighbor(parent)

    # ------------------------------------------------------------------
    # link-degradation epochs
    # ------------------------------------------------------------------
    def _begin_epoch(self, epoch: LinkDegradation) -> None:
        if self.network.metrics is not None:
            self.network.metrics.on_fault_injected(
                "link-degradation", self.network.events.now
            )
        self._active_scales.append(epoch.prr_scale)
        self._apply_scale()

    def _end_epoch(self, epoch: LinkDegradation) -> None:
        self._active_scales.remove(epoch.prr_scale)
        self._apply_scale()

    def _apply_scale(self) -> None:
        product = 1.0
        for scale in self._active_scales:
            product *= scale
        self.network.medium.set_prr_scale(product)
