"""The slot-synchronous network: nodes, medium, and the main simulation loop.

The :class:`Network` is the Cooja-equivalent of this reproduction: it owns the
shared clock and event queue, the radio medium, the metrics collector and all
nodes, and advances the whole system one TSCH timeslot at a time:

1. asynchronous timers (traffic generation, Trickle, EB period, 6P timeouts,
   the GT-TSCH load-balancing period) that expired before the slot boundary
   are fired;
2. every node plans its slot (transmit / listen / sleep) from its installed
   schedule;
3. the medium arbitrates all concurrent transmissions (collisions, link loss,
   ACKs);
4. decoded frames are delivered, transmitters learn their ACK outcome, and
   radio duty-cycle accounting is updated.

``run_experiment`` wraps the warm-up / measurement / drain phasing used by
every benchmark so the figures measure steady-state behaviour, as the paper
does.

The slot loop comes in two flavours.  The naive loop (``fast=False``) visits
every single timeslot and every node.  The default kernel exploits the facts
that the schedule is periodic and mutations are observable (every
:class:`~repro.mac.slotframe.Slotframe` mutation fires a hook that bumps
its engine's ``schedule_version``), and that only nodes with queued packets
can put energy on the air:

* a *horizon heap* of per-node "earliest ASN whose TX cells match my queued
  packets" entries -- guarded by queue/schedule version stamps and
  maintained push-style through the engines' queue hooks -- answers "who
  could transmit, and when is the next slot anyone can?";
* one jump rule: the clock leaps in O(1) to the earlier of that slot and
  the next slot boundary that fires a timer (:meth:`EventQueue.peek_time`),
  or to the end of the run.  A slot without a possible transmission and
  without a timer changes nothing but duty-cycle counters, whether or not
  cells are active in it;
* each *stepped* slot is dispatched transmitter-centrically: only the due
  transmitters plus their interference audience (precomputed by
  :meth:`Medium.freeze`) decide their slot, each audience member the heap
  did not name with one read of its own slotframes' listen tables, queued
  packets or not; everyone else's radio activity is a pure function of its
  schedule;
* duty-cycle accounting is *deferred*: per-node windows of slots are
  settled in integer bulk (idle-listen where the schedule has an active RX
  cell, sleep elsewhere) by
  :meth:`~repro.mac.tsch.TschEngine.settle_duty_cycle`.  Every schedule
  mutation is a settlement barrier that fires *before* it applies, so a
  window only ever spans one schedule.  A transmitter or decoder gets an
  integer correction against that credit at the end of its slot, so no
  stepped slot settles a window.

Jumped slots and unvisited nodes provably fire no callbacks, draw no random
numbers and touch nothing but integer counters, and visited nodes are
processed in node insertion order, so the kernel's finalized metrics are
bit-identical to the naive loop's.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush
from typing import Optional

from repro.kernel.state import NodeStateStore
from repro.mac.tsch import SlotPlan, TschEngine
from repro.metrics.collector import MetricsCollector, NetworkMetrics
from repro.net.node import Node, NodeConfig
from repro.net.topology import TopologyBuilder
from repro.phy.medium import Medium
from repro.phy.propagation import PropagationModel, UnitDiskLossyEdgeModel
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry

#: Factory signature used when building a network from a topology:
#: ``scheduler_factory(node_id, is_root) -> SchedulingFunction``.
SchedulerFactory = Callable[[int, bool], "object"]
#: ``traffic_factory(node_id, is_root) -> TrafficGenerator | None``.
TrafficFactory = Callable[[int, bool], "object"]


class Network:
    """A complete simulated 6TiSCH network."""

    def __init__(
        self,
        propagation: Optional[PropagationModel] = None,
        seed: int = 0,
        default_node_config: Optional[NodeConfig] = None,
        fast: bool = True,
    ) -> None:
        self.rngs = RngRegistry(seed)
        self.default_node_config = default_node_config or NodeConfig()
        self.clock = SimClock(self.default_node_config.tsch.slot_duration_s)
        self.events = EventQueue()
        #: The dispatch kernel's bulk duty-cycle writers (see
        #: :mod:`repro.kernel.state`).
        self.state = NodeStateStore()
        self.medium = Medium(
            propagation or UnitDiskLossyEdgeModel(), self.rngs.stream("phy")
        )
        self.metrics = MetricsCollector()
        self.nodes: dict[int, Node] = {}
        self._started = False
        #: Use the slot-skipping kernel in :meth:`run_slots` (bit-identical to
        #: the naive loop; ``fast=False`` is the escape hatch).
        self.fast = fast
        #: node id -> position in :attr:`nodes` (the dispatch kernel restores
        #: node insertion order with this).
        self._node_order: dict[int, int] = {}
        #: Backlog index: nodes currently holding at least one queued packet,
        #: push-maintained through :attr:`TschEngine.on_queue_change`.  Only
        #: these nodes can make a slot "risky", so the kernel's transmission
        #: horizon tracking is bounded by backlogged nodes, not network size.
        self._backlogged: dict[int, Node] = {}
        #: Scan registry: nodes currently in the unsynchronised EB scan,
        #: push-maintained through :attr:`Node.on_scan_state`.  A scanning
        #: node has no schedule and an empty queue, but listens on the
        #: deterministic scan channel every slot, so the dispatch kernel
        #: adds these nodes to every stepped slot's audience; in
        #: jumped/transmission-free slots they provably decode nothing and
        #: their all-idle-listen window settles in bulk.
        self._scanning: dict[int, Node] = {}
        #: Min-heap of per-node TX horizons: ``(occurrence, order index,
        #: node, queue version, schedule version)``.  An entry is authoritative
        #: only while both versions still match its node (stale entries are
        #: discarded lazily when they surface).  The order index makes every
        #: live entry's key unique, so pops never depend on push order.
        #: Nodes in :attr:`_risky_dirty` (node id -> node, insertion-ordered)
        #: need their horizon (re)computed.
        self._risky_heap: list[tuple] = []
        self._risky_dirty: dict[int, Node] = {}
        #: Slots actually stepped (planned + arbitrated) by the dispatch
        #: kernel, as opposed to slots jumped in bulk; the scaling benchmark
        #: divides wall-clock by this to report per-active-slot cost.
        self.stepped_slots = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: int,
        position,
        scheduler,
        is_root: bool = False,
        config: Optional[NodeConfig] = None,
        traffic=None,
    ) -> Node:
        """Create a node, register it on the medium and return it."""
        if node_id in self.nodes:
            raise ValueError(f"node id {node_id} already exists")
        node = Node(
            node_id=node_id,
            position=position,
            scheduler=scheduler,
            config=config or self.default_node_config,
            event_queue=self.events,
            rng_registry=self.rngs,
            is_root=is_root,
        )
        node.set_metrics(self.metrics)
        if traffic is not None:
            node.set_traffic_generator(traffic)
        node.tsch.on_schedule_change = lambda bound=node: self._on_schedule_change(bound)
        node.tsch.on_queue_change = lambda bound=node: self._on_queue_change(bound)
        node.on_scan_state = self._on_scan_state
        node.clock = self.clock
        # A node created mid-run owes no duty-cycle accounting for the slots
        # that elapsed before it existed.
        node.tsch.duty_accounted_asn = self.clock.asn
        self._node_order[node_id] = len(self._node_order)
        self.nodes[node_id] = node
        self.medium.register_node(node_id, position)
        return node

    def build_from_topology(
        self,
        topology: TopologyBuilder,
        scheduler_factory: SchedulerFactory,
        traffic_factory: Optional[TrafficFactory] = None,
        warm_start: bool = True,
        config: Optional[NodeConfig] = None,
    ) -> list[Node]:
        """Instantiate every node of ``topology``.

        Each node keeps ``scheduler_factory`` to reboot from
        (:attr:`Node.scheduler_factory`).  ``warm_start=True`` presets the
        RPL parents/ranks declared by the topology (the deterministic setup
        used by the benchmark figures); with ``warm_start=False`` the DODAG
        forms from scratch through DIO exchange.
        """
        created: list[Node] = []
        for spec in topology:
            traffic = traffic_factory(spec.node_id, spec.is_root) if traffic_factory else None
            node = self.add_node(
                node_id=spec.node_id,
                position=spec.position,
                scheduler=scheduler_factory(spec.node_id, spec.is_root),
                is_root=spec.is_root,
                config=config,
                traffic=traffic,
            )
            node.scheduler_factory = scheduler_factory
            created.append(node)
        if warm_start:
            for spec, node in zip(topology, created):
                dodag_id = spec.dodag_id if spec.dodag_id is not None else spec.node_id
                node.rpl.warm_start(
                    parent=spec.parent,
                    rank=spec.initial_rank(),
                    dodag_id=dodag_id,
                )
        return created

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every node's protocol machinery (idempotent).

        The topology is final once the network starts, so the medium's
        PRR / interference rows are precomputed here in one pass (adding a
        node later un-freezes the medium and its next query re-freezes it).
        """
        self.medium.freeze()
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            # Late arrivals (FaultPlan.arrivals) are pre-marked dead at
            # injector arm time; their boot is the scheduled arrival event.
            if node.alive:
                node.start()

    def _step_slot_dispatch(self) -> None:
        """Advance one timeslot, planning only the nodes that matter to it.

        Transmitter-centric two-phase dispatch:

        1. plan the nodes whose queued packets match a TX cell at this ASN --
           the only possible transmitters, named directly by the horizon heap
           (:meth:`_collect_transmitters`); planning them applies all CSMA
           bookkeeping.  If none transmits, the slot is over: every node's
           radio activity is the pure idle-listen/sleep function of its
           schedule that :meth:`~repro.mac.tsch.TschEngine.settle_duty_cycle`
           credits in bulk, and the medium draws nothing.
        2. otherwise additionally plan the transmitters' interference
           audience (precomputed at medium freeze): only those nodes can draw
           RNG numbers or decode.  Listeners outside every audience hear
           nothing by construction, so deferring them as idle-listeners is
           bit-identical.  A member the heap did not name cannot transmit
           and touches no CSMA window, backlogged or not, so it reads its
           channel (or sleep) from its slotframes' listen tables, first
           crediting an armed CSMA deferral's losing pass.

        Nodes are visited in insertion order throughout, so intents,
        listeners, and therefore arbitration and the RNG stream are exactly
        those of the full per-node scan.
        """
        asn = self.clock.asn
        # 1. fire asynchronous timers due at or before this slot boundary
        # (these may mutate schedules and queues, so they run before any
        # node plans this slot).
        self.events.run_until(self.clock.now)
        self.stepped_slots += 1

        # 2a. the possible transmitters plan first (CSMA side effects
        # included); they are the only nodes that can put energy on the air,
        # and the horizon heap names them without scanning anyone else.
        tx_plans: list[SlotPlan] = []
        intents = []
        intent_owners: list[int] = []
        planned: dict[int, SlotPlan] = {}
        for node in self._collect_transmitters(asn):
            plan = node.tsch.plan_slot(asn)
            planned[node.node_id] = plan
            if plan.action == "tx":
                intents.append(node.tsch.build_intent(plan))
                intent_owners.append(node.node_id)
                tx_plans.append(plan)

        if not intents:
            # Transmission-free slot: nothing reaches the medium, no RNG is
            # drawn, and every node's duty cycle stays the pure function of
            # its schedule that deferred settling reproduces.
            self.clock.advance_slot()
            return

        # 2b. the transmitters' interference audience completes the slot;
        # unreachable listeners -- and every listener that ends up decoding
        # nothing -- stay deferred.  A member the heap did not name reads
        # its listen/sleep decision from its slotframes' per-offset listen
        # tables (:meth:`~repro.mac.tsch.TschEngine.listen_channel`),
        # backlog or not.  Crucially, nothing is settled here: an idle
        # listener that decodes nothing this slot is exactly the idle-listen
        # slot its deferred profile settling credits, so only the nodes whose
        # slot *deviates* from the pure schedule function (transmitters, and
        # listeners that actually decode a frame) are corrected in step 4c.
        audience: set = set(planned)
        audience_of = self.medium.audience_of
        for node_id in intent_owners:
            audience |= audience_of(node_id)
        scanning = self._scanning
        if scanning:
            # Unsynchronised scanners listen on their scan channel every
            # slot regardless of interference geometry: the reference loop
            # plans them as listeners unconditionally, so every stepped
            # slot must offer them to the medium (non-audible listeners
            # draw no RNG in resolve_slot, keeping arbitration identical).
            audience |= scanning.keys()
        order = self._node_order
        nodes = self.nodes
        listeners: dict[int, int] = {}
        if 4 * len(audience) >= len(nodes):
            # Network-wide audiences (many concurrently active DODAGs):
            # filtering the insertion-ordered node ids yields the same order
            # as the sort below without the O(A log A) comparison cost per
            # slot.
            ordered_audience = [node_id for node_id in nodes if node_id in audience]
        else:
            ordered_audience = sorted(audience, key=order.__getitem__)
        for node_id in ordered_audience:
            if node_id in scanning:
                # Scanning nodes have no cells and an empty queue; their
                # slot is the pure ASN function of the scan-channel sequence.
                listeners[node_id] = scanning[node_id].tsch.scan_channel(asn)
                continue
            plan = planned.get(node_id)
            if plan is None:
                # Not named by the heap.  Its horizons, refreshed before this
                # slot and stamped with the queue and schedule versions,
                # name every backlogged node with a TX cell matching its
                # queue here, except where an armed CSMA deferral proves the
                # pass a losing one.  So the plan is the first RX cell in
                # planning order, or sleep: the listen tables' answer.
                engine = nodes[node_id].tsch
                deferral = engine._csma_deferral
                if deferral is not None and asn < deferral[3]:
                    # The per-slot loop counts this losing pass live: credit
                    # it now, so a mutation later in this slot settles the
                    # deferral only up to here.
                    engine.absorb_deferred_pass(asn)
                channel = engine.listen_channel(asn)
                if channel is None:
                    # No RX cell at this ASN: pure sleep, exactly what
                    # deferred settling credits.
                    continue
            elif plan.action == "rx":
                channel = plan.channel
            else:
                # Transmitters are accounted in step 4c; a sleeping plan
                # reduces to the lazy schedule function.
                continue
            listeners[node_id] = channel

        # 3. the medium arbitrates, walking only the transmitters' rows.
        results = self.medium.resolve_slot(intents, listeners)

        # 4a. deliver decoded frames.  A unicast frame may be *decoded* by
        # overhearing neighbours (they listened on the same channel), but only
        # the link-layer destination processes it -- real radios filter on the
        # destination address before handing the frame to the MAC.
        # A node decodes at most one frame per slot, so each receiver is
        # listed once.
        receivers: list[TschEngine] = []
        for result in results:
            packet = result.intent.packet
            if packet.is_broadcast:
                for receiver in result.receivers:
                    engine = nodes[receiver].tsch
                    receivers.append(engine)
                    engine.on_frame_received(packet, asn)
            else:
                destination = packet.link_destination
                for receiver in result.receivers:
                    engine = nodes[receiver].tsch
                    receivers.append(engine)
                    if destination == receiver:
                        engine.on_frame_received(packet, asn)

        # 4b. transmitters process their outcome (ACK, retransmission, drop).
        for node_id, plan, result in zip(intent_owners, tx_plans, results):
            nodes[node_id].tsch.on_transmission_result(plan, result, asn)

        # 4c. duty-cycle corrections for exactly the nodes whose slot
        # deviated from the pure function of their schedule: transmitters
        # and decoders.  The slot stays in their deferred window, whose
        # settlement will credit it as idle-listen or sleep under the
        # schedule left at the end of this slot; adding the difference now
        # costs O(1) per node and settles nothing.  Every other listener
        # idle-listened, which is exactly that credit.
        for node_id in intent_owners:
            engine = nodes[node_id].tsch
            meter = engine.duty_cycle
            meter.tx_slots += 1
            if engine.listens_lazily(asn):
                meter.rx_slots -= 1
                meter.idle_listen_slots -= 1
            else:
                meter.sleep_slots -= 1
        if receivers:
            self.state.account_rx_frames(receivers, asn)

        self.clock.advance_slot()

    def step_slot_reference(self) -> None:
        """The seed's slot loop, preserved verbatim as the naive kernel.

        ``run_slots(fast=False)`` drives the network through this method with
        every engine on its reference planner: each slot plans every node with
        the original gather-and-sort, arbitrates the medium, and accounts every
        node through :meth:`~repro.mac.tsch.TschEngine.account_slot`.  It is
        the ground truth the skip-equivalence tests compare the kernel
        against, and the baseline the kernel-speed benchmark measures.
        """
        asn = self.clock.asn
        self.events.run_until(self.clock.now)

        plans: dict[int, SlotPlan] = {}
        intents = []
        intent_owners: list[int] = []
        listeners: dict[int, int] = {}
        for node_id, node in self.nodes.items():
            plan = node.tsch.plan_slot(asn)
            plans[node_id] = plan
            if plan.is_tx:
                intents.append(node.tsch.build_intent(plan))
                intent_owners.append(node_id)
            elif plan.is_rx:
                listeners[node_id] = plan.channel

        results = self.medium.resolve_slot(intents, listeners)

        nodes_that_received = set()
        for result in results:
            packet = result.intent.packet
            for receiver in result.receivers:
                nodes_that_received.add(receiver)
                if packet.is_broadcast or packet.link_destination == receiver:
                    self.nodes[receiver].tsch.on_frame_received(packet, asn)

        for node_id, result in zip(intent_owners, results):
            self.nodes[node_id].tsch.on_transmission_result(plans[node_id], result, asn)

        next_asn = asn + 1
        for node_id, plan in plans.items():
            engine = self.nodes[node_id].tsch
            engine.account_slot(plan, frame_received=node_id in nodes_that_received)
            # Per-slot accounting is complete; keep the deferred-accounting
            # watermark in step so settle hooks firing later are no-ops.
            engine.duty_accounted_asn = next_asn

        self.clock.advance_slot()

    # ------------------------------------------------------------------
    # slot-skipping kernel
    # ------------------------------------------------------------------
    def _on_schedule_change(self, node: Node) -> None:
        """``node``'s schedule is about to change: settle what it governed.

        Runs before the mutation applies, so the node's deferred CSMA
        passes and duty-cycle window are credited under the schedule they
        accumulated under -- after this, windows only ever span a constant
        schedule, which is what makes lazy idle-listen/sleep accounting
        exact.  A backlogged node's TX horizon is recomputed lazily, after
        the change.
        """
        engine = node.tsch
        asn = self.clock.asn
        engine.settle_csma(asn)
        # Only a non-empty window is worth a settle call (perfbench counts
        # them as mac.duty_settle_calls).
        if engine.duty_accounted_asn < asn:
            engine.settle_duty_cycle(asn)
        if node.node_id in self._backlogged:
            self._risky_dirty[node.node_id] = node

    def _on_queue_change(self, node: Node) -> None:
        """A node's MAC queue mutated; update the backlog and horizon indexes.

        An armed CSMA deferral is settled first: its countdown model held
        exactly while the queue (and quiet set, which reports through this
        same hook) was unchanged, so the passes up to the current slot are
        credited under the pre-mutation state.
        """
        node.tsch.settle_csma(self.clock.asn)
        if len(node.tsch.queue):
            self._backlogged[node.node_id] = node
            self._risky_dirty[node.node_id] = node
        else:
            self._backlogged.pop(node.node_id, None)
            self._risky_dirty.pop(node.node_id, None)

    def _on_scan_state(self, node: Node, scanning: bool) -> None:
        """``node`` entered or left the unsynchronised EB scan.

        The engine's own scan transition already settled the node's
        deferred duty-cycle window (``begin_scan``/``end_scan`` are
        settlement barriers), so this hook only maintains the registry the
        dispatch kernel reads.
        """
        if scanning:
            self._scanning[node.node_id] = node
        else:
            self._scanning.pop(node.node_id, None)
            if node.alive:
                # Fresh synchronisation (a dead node leaves the registry
                # with ``alive`` already cleared): the booted RPL stack
                # would now multicast a DIS, so trigger the neighbors'
                # solicited-DIO reaction.
                self.solicit_dios(node)

    def solicit_dios(self, node: Node) -> None:
        """Model the DIS multicast a freshly booted RPL node sends.

        Audible joined neighbors react per RFC 6206 by resetting their
        Trickle timers, which produces a prompt DIO for the newcomer to
        attach to; the DIS frame itself is not simulated.  Without the
        solicitation a node arriving late in a stable network could outwait
        the run: every neighbor's interval has backed off to hundreds of
        seconds by then.  Deterministic: neighbors are visited in sorted id
        order and each reset draws only from that neighbor's own trickle
        RNG stream, inside an event callback both slot loops fire
        identically.
        """
        for neighbor_id in sorted(self.medium.audience_of(node.node_id)):
            neighbor = self.nodes[neighbor_id]
            if neighbor.alive and neighbor.rpl.is_joined():
                neighbor.rpl.trickle.reset()

    def _flush_duty_cycle(self) -> None:
        """Settle every node's deferred duty-cycle window up to the clock.

        Slots in ``[duty_accounted_asn, asn)`` were never explicitly
        recorded, which the kernel only allows while the node's schedule is
        unchanged over the window (schedule mutations settle first): the
        node idle-listened exactly where its profile has an active RX cell
        and slept everywhere else, except in its TX and busy-RX slots, which
        step 4c of the dispatch already corrected against that credit, so
        integer bulk credits reproduce the per-slot loop's counters exactly.
        Each node's idle-listen count is
        computed as :meth:`~repro.mac.tsch.TschEngine.settle_duty_cycle`
        would, and all counters are credited in one bulk call.
        """
        asn = self.clock.asn
        engines: list[TschEngine] = []
        idles: list[int] = []
        for node in self.nodes.values():
            engine = node.tsch
            accounted = engine.duty_accounted_asn
            if accounted >= asn:
                continue
            if engine._scanning:
                # EB scan: every deferred slot was spent listening on the
                # scan channel (record_rx(False) per slot), so idle == window.
                idle = asn - accounted
            else:
                idle = engine.schedule_profile().count_idle_listen(accounted, asn)
            engines.append(engine)
            idles.append(idle)
        if engines:
            self.state.settle_idle_rx(engines, idles, asn)

    def _next_event_asn(self, asn: int, limit: int) -> int:
        """First ASN in [``asn``, ``limit``] whose slot boundary fires a timer.

        Replicates the naive loop's per-slot test (``event_time <= asn *
        slot_duration``, evaluated with the same float arithmetic), so the
        kernel fires every timer at exactly the slot the naive loop would.
        """
        event_time = self.events.peek_time()
        if event_time is None:
            return limit
        slot = self.clock.slot_duration_s
        candidate = int(event_time / slot)
        if candidate < asn:
            candidate = asn
        while event_time > candidate * slot:
            candidate += 1
        while candidate > asn and event_time <= (candidate - 1) * slot:
            candidate -= 1
        return candidate if candidate < limit else limit

    def _push_horizon(self, node: Node, asn: int) -> None:
        """(Re)compute ``node``'s earliest TX-capable ASN >= ``asn`` and heap it.

        Nothing is pushed when no installed cell can ever carry the node's
        backlog; the node re-enters the heap through :attr:`_risky_dirty`
        when its queue or schedule changes.

        A backlog gated entirely behind shared-cell CSMA back-off is heaped
        at its *post-back-off* occurrence (the first matching cell pass with
        the window expired) instead of the next matching cell: the skipped
        passes are pure counter decrements that
        :meth:`~repro.mac.tsch.TschEngine.settle_csma` credits in bulk, so
        the losing slots need not be stepped at all.  Only an armed deferral
        or a unicast backlog towards exactly one destination can be gated
        that way, so no other backlog asks for one.
        """
        engine = node.tsch
        key = engine.queue_signature()
        occurrence = None
        if engine._csma_deferral is not None or (not key[0] and len(key[1]) == 1):
            occurrence = engine.plan_csma_deferral(asn)
        if occurrence is None:
            # Settling an expired deferral above re-dirties the node but
            # leaves the queue, and so its key, as it was.
            occurrence = engine.schedule_profile().next_tx_asn(asn, key)
        if occurrence is not None:
            heappush(
                self._risky_heap,
                (
                    occurrence,
                    self._node_order[node.node_id],
                    node,
                    engine.queue_version,
                    engine.schedule_version,
                ),
            )

    def _refresh_horizons(self) -> None:
        """Recompute the TX horizon of every node whose state changed.

        Iterates a snapshot: arming or settling a CSMA deferral inside
        :meth:`_push_horizon` may re-dirty a node through the queue hook,
        which must land in the next refresh, not mutate this one.  Each
        node's horizon depends on that node alone, and the heap's keys are
        unique, so the order of the snapshot does not matter.
        """
        if not self._risky_dirty:
            return
        asn = self.clock.asn
        backlogged = self._backlogged
        dirty = self._risky_dirty
        self._risky_dirty = {}
        for node_id, node in dirty.items():
            if node_id in backlogged:
                self._push_horizon(node, asn)

    def _next_risky_asn(self, asn: int, limit: int) -> int:
        """First ASN in [``asn``, ``limit``] at which a transmission is possible.

        A slot is "risky" when some node that currently holds queued packets
        reaches a TX cell that could carry one of them: such a slot can
        mutate queues, CSMA state and the medium, so it must be stepped.  The
        test is conservative (CSMA back-off is ignored), which only costs a
        stepped slot, never correctness.  Queues cannot change inside a
        transmission-free, event-free run, so the answer stays valid across
        the whole jump.

        The horizons live in a min-heap of per-node occurrences, each
        stamped with the (queue version, schedule version) it was derived
        from: entries whose stamps no longer match, or whose node drained its
        queue, are discarded lazily when they surface; occurrences that
        passed unused (e.g. CSMA held the packet back) are recomputed from
        the current ASN.  A query therefore costs O(changed nodes), not
        O(backlog) and certainly not O(network size).
        """
        self._refresh_horizons()
        heap = self._risky_heap
        backlogged = self._backlogged
        while heap:
            occurrence, _, node, queue_version, schedule_version = heap[0]
            engine = node.tsch
            if (
                node.node_id not in backlogged
                or queue_version != engine.queue_version
                or schedule_version != engine.schedule_version
            ):
                heappop(heap)
                continue
            if occurrence < asn:
                heappop(heap)
                self._push_horizon(node, asn)
                continue
            return occurrence if occurrence < limit else limit
        return limit

    def _collect_transmitters(self, asn: int) -> list[Node]:
        """Backlogged nodes with a TX cell matching their queue at ``asn``.

        Pops the due horizon entries off the heap (the popped nodes are
        marked dirty, so their next occurrence is recomputed after this
        slot's outcome) and returns the nodes in insertion order -- the only
        candidates :meth:`_step_slot_dispatch` must plan for transmission.
        """
        self._refresh_horizons()
        heap = self._risky_heap
        backlogged = self._backlogged
        matched: list[Node] = []
        matched_ids: set = set()
        while heap:
            occurrence, _, node, queue_version, schedule_version = heap[0]
            if occurrence > asn:
                break
            engine = node.tsch
            heappop(heap)
            if (
                node.node_id not in backlogged
                or queue_version != engine.queue_version
                or schedule_version != engine.schedule_version
                or node.node_id in matched_ids
            ):
                continue
            if occurrence < asn:
                self._push_horizon(node, asn)
                continue
            matched.append(node)
            matched_ids.add(node.node_id)
            self._risky_dirty[node.node_id] = node
        if len(matched) > 1:
            order = self._node_order
            matched.sort(key=lambda node: order[node.node_id])
        return matched

    def _jump_slots(self, target_asn: int) -> None:
        """Leap the clock to ``target_asn`` without visiting any slot.

        Valid over runs the kernel has proven transmission-free and timer-free
        (no backlogged node reaches a matching TX cell, no event is due): no
        callbacks fire, no random numbers are drawn, and every node's radio
        activity over the run is a pure function of its (unchanged)
        schedule, so the accounting is deferred entirely to the next settle.
        O(1) regardless of run length or network size.
        """
        self.clock.asn = target_asn
        # The naive loop's run_until() advances the event clock at every slot
        # boundary it visits; mirror its final position.
        self.events.advance_to((target_asn - 1) * self.clock.slot_duration_s)

    def run_slots(self, num_slots: int, fast: Optional[bool] = None) -> None:
        """Run the network for a fixed number of timeslots.

        With ``fast`` unset the network's :attr:`fast` flag decides between
        the slot-skipping kernel and the naive slot-by-slot loop; results are
        bit-identical either way.
        """
        self.start()
        if fast is None:
            fast = self.fast
        # The naive loop doubles as the reference implementation: it visits
        # every slot, plans every node with the reference planner (a fresh
        # gather-and-sort and a full TX scan) and offers every listener to
        # the medium, which is the ground truth the skip-equivalence tests
        # compare the kernel against.
        for node in self.nodes.values():
            node.tsch.reference_planner = not fast
        if not fast:
            for _ in range(num_slots):
                self.step_slot_reference()
            return
        clock = self.clock
        end_asn = clock.asn + num_slots
        while clock.asn < end_asn:
            asn = clock.asn
            boundary = self._next_event_asn(asn, end_asn)
            if boundary == asn:
                # Fire this slot boundary's timers up front, then
                # re-evaluate: the slot often stays skippable (e.g. a traffic
                # tick on a node whose TX cell is slots away).  The dispatch's
                # own run_until is then a no-op.
                self.events.run_until(asn * clock.slot_duration_s)
                boundary = self._next_event_asn(asn, end_asn)
            if boundary > asn:
                risky = self._next_risky_asn(asn, boundary)
                if risky > asn:
                    # Transmission-free run up to the next possible
                    # transmission or timer: active cells idle-listen, which
                    # deferred accounting settles in bulk later.
                    self._jump_slots(risky)
                    continue
            self._step_slot_dispatch()
        self._flush_duty_cycle()

    def run_seconds(self, seconds: float) -> None:
        """Run the network for (approximately) ``seconds`` of simulated time."""
        self.run_slots(self.clock.seconds_to_slots(seconds))

    def run_experiment(
        self,
        warmup_s: float,
        measurement_s: float,
        drain_s: float = 5.0,
        scheduler_name: str = "",
    ) -> NetworkMetrics:
        """Warm-up, measure, drain, and return the headline metrics.

        * warm-up: the DODAG forms / schedules converge; nothing is measured;
        * measurement: application traffic is generated and all six paper
          metrics are accumulated;
        * drain: generation stops so that packets created near the end of the
          window still get a chance to reach the root (keeps the PDR estimate
          unbiased); MAC counters are frozen at the start of the drain.
        """
        self.start()
        self.run_seconds(warmup_s)
        self.metrics.begin_measurement(self.nodes.values(), self.clock.now)
        self.run_seconds(measurement_s)
        self.metrics.end_measurement(self.nodes.values(), self.clock.now)
        for node in self.nodes.values():
            node.traffic_enabled = False
            if node.traffic is not None:
                node.traffic.stop()
        self.run_seconds(drain_s)
        if not scheduler_name and self.nodes:
            scheduler_name = next(iter(self.nodes.values())).scheduler.name
        return self.metrics.finalize(self.nodes.values(), self.clock.now, scheduler_name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def roots(self) -> list[Node]:
        return [node for node in self.nodes.values() if node.is_root]

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)
