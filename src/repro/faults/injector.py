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
  per-cell removals, whose ``on_schedule_change`` hook settles deferred
  duty-cycle accounting under the pre-mutation profile and dirties the
  participant index;
* queue flushes run through ``TschEngine.flush_queue``, whose
  ``mark_queue_mutated`` hook settles deferred CSMA state and maintains
  the backlog index;
* RPL detach/re-attach runs through the public ``evict_neighbor`` /
  ``remove_child`` / ``warm_start`` APIs, which bump the rank memo's
  input counter themselves;
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
from typing import TYPE_CHECKING, Callable, Optional

from repro.faults.plan import (
    FaultPlan,
    LinkDegradation,
    NodeArrival,
    NodeCrash,
    NodeRejoin,
    ParentLoss,
)
from repro.net.packet import PacketType
from repro.rpl.rank import INFINITE_RANK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.net.node import Node

__all__ = ["FaultInjector"]


@dataclass
class _CrashRecord:
    """Pre-crash DODAG state, used to warm-rejoin a rebooted node."""

    parent: Optional[int]
    rank: int
    dodag_id: Optional[int]
    traffic_enabled: bool


class FaultInjector:
    """Schedules and executes the events of one :class:`FaultPlan`.

    ``scheduler_factory`` is the same ``(node_id, is_root) -> scheduler``
    callable the network was built with; a rejoin boots the node with a
    *fresh* scheduling-function instance (cold-reboot semantics -- the
    old instance's cell bookkeeping died with the schedule).  It is only
    required when the plan contains rejoins.
    """

    def __init__(
        self,
        network: "Network",
        plan: FaultPlan,
        scheduler_factory: Optional[Callable] = None,
    ) -> None:
        self.network = network
        self.plan = plan
        self._scheduler_factory = scheduler_factory
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
        if self.plan.rejoins and self._scheduler_factory is None:
            raise ValueError(
                "plan contains rejoins but no scheduler_factory was provided"
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
        if self.plan.arrivals:
            if self._scheduler_factory is None:
                raise ValueError(
                    "plan contains arrivals but no scheduler_factory was provided"
                )
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

        Runs at arm time, before any timer is armed and before any
        scheduler starts, so every mutation is hook-free by construction:
        there are no installed cells to tear down, no queued packets to
        flush, and no running timer to stop.  The node keeps its medium row
        (the medium stays frozen); only its liveness and any
        warm-started DODAG state -- its own and every reference other
        nodes' presets hold to it -- are erased.
        """
        rpl = node.rpl
        self._records[node.node_id] = _CrashRecord(
            parent=None,
            rank=INFINITE_RANK,
            dodag_id=None,
            traffic_enabled=node.traffic_enabled,
        )
        node.alive = False
        node.traffic_enabled = False
        rpl.preferred_parent = None
        rpl.rank = INFINITE_RANK
        if not rpl.is_root:
            rpl.dodag_id = None
        rpl.neighbors.clear()
        rpl.children.clear()
        rpl._memo_inputs += 1
        absent = node.node_id
        for survivor in self.network.nodes.values():
            if survivor.node_id == absent:
                continue
            survivor_rpl = survivor.rpl
            changed = False
            if absent in survivor_rpl.children:
                survivor_rpl.children.discard(absent)
                changed = True
            if survivor_rpl.neighbors.pop(absent, None) is not None:
                changed = True
            if survivor_rpl.preferred_parent == absent:
                # The warm-start preset routed through a node that is not
                # there yet: the survivor boots detached and joins through
                # DIO exchange like any cold node.
                survivor_rpl.preferred_parent = None
                survivor_rpl.rank = INFINITE_RANK
                if not survivor_rpl.is_root:
                    survivor_rpl.dodag_id = None
                changed = True
            if changed:
                survivor_rpl._memo_inputs += 1

    # ------------------------------------------------------------------
    # node crash / detection / rejoin
    # ------------------------------------------------------------------
    def _crash(self, fault: NodeCrash) -> None:
        """Hard power-off: radio, timers and queue die instantly."""
        node = self.network.nodes[fault.node_id]
        if not node.alive:
            return
        now = self.network.events.now
        metrics = self.network.metrics
        rpl = node.rpl
        self._records[fault.node_id] = _CrashRecord(
            parent=rpl.preferred_parent,
            rank=rpl.rank,
            dodag_id=rpl.dodag_id,
            traffic_enabled=node.traffic_enabled,
        )
        if metrics is not None:
            metrics.on_fault_injected("crash", now)
            if rpl.preferred_parent is not None:
                metrics.on_node_orphaned(node.node_id, now)
        node.alive = False
        node.traffic_enabled = False
        if node.traffic is not None:
            node.traffic.stop()
        node._eb_timer.stop()
        if node._keepalive_timer is not None:
            node._keepalive_timer.stop()
        # A cold-start node may die mid-scan: settle the listen window it
        # accumulated and drop it from the dispatch kernel's scan registry
        # (a dead radio listens to nothing).
        node.abort_scan()
        node.scheduler.stop()
        # Silent RPL detach: the node's own state dies with it, but nothing
        # is advertised (it is *off*) -- neighbors only find out at
        # detection time.  The memo-input bump keeps the rank memo honest.
        rpl.trickle.stop()
        rpl.preferred_parent = None
        rpl.rank = INFINITE_RANK
        if not rpl.is_root:
            rpl.dodag_id = None
        rpl.neighbors.clear()
        rpl.children.clear()
        rpl._memo_inputs += 1
        # Everything still queued is lost with the device (loss-accounted),
        # then the whole schedule goes: clear_schedule's mutation hook is
        # the settlement barrier that keeps the fast kernel bit-identical.
        for packet in node.tsch.flush_queue():
            if packet.ptype is PacketType.DATA and metrics is not None:
                metrics.on_data_lost(node, packet, reason="crash")
        node.tsch.clear_quiet_neighbors()
        node.tsch.clear_schedule()

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
        node = self.network.nodes[fault.node_id]
        if node.alive:
            return
        now = self.network.events.now
        metrics = self.network.metrics
        record = self._records.get(fault.node_id)
        node.alive = True
        assert self._scheduler_factory is not None  # enforced by arm()
        scheduler = self._scheduler_factory(node.node_id, node.is_root)
        node.scheduler = scheduler
        scheduler.attach(node)
        node.rpl.dio_extra_provider = scheduler.dio_fields
        if node.cold_start:
            # A cold reboot loses TSCH synchronisation with the rest of the
            # state: the node re-scans for an Enhanced Beacon, and the rest
            # of the stack (scheduler, RPL, EBs, traffic) boots from
            # Node._synchronise.  The pre-crash traffic setting is restored
            # as a flag; the generator itself starts at sync.
            if record is None or record.traffic_enabled:
                node.traffic_enabled = True
            if metrics is not None:
                metrics.on_fault_injected("rejoin", now)
            node.begin_scan()
            return
        scheduler.start()
        parent = record.parent if record is not None else None
        if (
            record is not None
            and parent is not None
            and record.dodag_id is not None
            and self.network.nodes[parent].alive
        ):
            node.rpl.warm_start(
                parent=parent, rank=record.rank, dodag_id=record.dodag_id
            )
        # else: cold re-attach -- the node listens until a DIO adopts it.
        node._eb_timer.start()
        if record is None or record.traffic_enabled:
            node.traffic_enabled = True
            if node.traffic is not None:
                node.traffic.start()
        if metrics is not None:
            metrics.on_fault_injected("rejoin", now)

    def _arrival(self, fault: NodeArrival) -> None:
        """Late power-on: fresh scheduler, *no* DODAG state, cold join.

        Routes through exactly the settlement machinery a rejoin uses
        (fresh scheduling-function instance, liveness flip, timer starts as
        EventQueue events), but never warm-starts: the node either scans
        for an Enhanced Beacon first (cold-start-join configs) or boots its
        stack and listens until a DIO adopts it.
        """
        node = self.network.nodes[fault.node_id]
        if node.alive:
            return
        now = self.network.events.now
        metrics = self.network.metrics
        record = self._records.get(fault.node_id)
        node.alive = True
        assert self._scheduler_factory is not None  # enforced by arm()
        scheduler = self._scheduler_factory(node.node_id, node.is_root)
        node.scheduler = scheduler
        scheduler.attach(node)
        node.rpl.dio_extra_provider = scheduler.dio_fields
        if record is None or record.traffic_enabled:
            node.traffic_enabled = True
        if metrics is not None:
            metrics.on_fault_injected("arrival", now)
        if node.cold_start:
            # Unsynchronised boot; begin_scan registers the join episode
            # itself and Node._synchronise starts everything else.
            node.begin_scan()
            return
        # Synchronised arrival (the idealisation matching warm rejoin):
        # the stack boots immediately and waits for a DIO.
        node._cold_join_pending = True
        if metrics is not None:
            metrics.on_join_pending(node.node_id, now)
        scheduler.start()
        node.rpl.start()
        node._eb_timer.start()
        if node.traffic_enabled and node.traffic is not None:
            node.traffic.start()
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
