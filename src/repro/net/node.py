"""The simulated IoT node: application + RPL + 6top + TSCH MAC.

A :class:`Node` is the software equivalent of one Zolertia Firefly mote
running Contiki-NG with a given scheduling function.  It wires the protocol
layers together:

* the application layer generates upward data traffic towards the DODAG root
  and acts as the sink on root nodes;
* RPL maintains the parent/children relations and the Rank;
* the 6top layer runs cell negotiation transactions on behalf of the
  scheduling function;
* the TSCH engine executes the schedule slot by slot;
* the scheduling function (GT-TSCH, Orchestra, minimal) installs cells and
  reacts to protocol events.

The node never talks to the radio medium directly -- the
:class:`repro.net.network.Network` drives the slot loop and the PHY
arbitration -- which keeps the layering identical to the real stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.mac.tsch import TschConfig, TschEngine
from repro.net.packet import BROADCAST_ADDRESS, Packet, PacketType, make_data_packet
from repro.rpl.engine import RplConfig, RplEngine
from repro.sim.events import EventQueue, PeriodicTimer
from repro.sixtop.layer import SixPConfig, SixPLayer
from repro.sixtop.messages import SixPMessage, SixPReturnCode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.collector import MetricsCollector
    from repro.net.traffic import TrafficGenerator
    from repro.schedulers.base import SchedulingFunction
    from repro.sim.clock import SimClock


@dataclass
class NodeStats:
    """Application / network-layer counters for one node."""

    data_generated: int = 0
    data_delivered_as_sink: int = 0
    data_forwarded: int = 0
    #: Data packets dropped because the node had no route (no parent yet).
    routing_drops: int = 0
    #: Data packets dropped on MAC-queue overflow at this node.
    queue_drops: int = 0
    eb_sent: int = 0


@dataclass
class NodeConfig:
    """Per-node protocol configuration bundle."""

    tsch: TschConfig = field(default_factory=TschConfig)
    rpl: RplConfig = field(default_factory=RplConfig)
    sixp: SixPConfig = field(default_factory=SixPConfig)
    #: Cold-start join: non-root nodes boot unsynchronised and scan for an
    #: Enhanced Beacon before any upper layer (scheduler, RPL, traffic)
    #: starts -- see :meth:`Node.begin_scan` and ``docs/faults.md``.  Roots
    #: ignore the flag: they anchor the ASN and the DODAG.
    cold_start_join: bool = False


class Node:
    """One IoT node of the simulated 6TiSCH network."""

    def __init__(
        self,
        node_id: int,
        position: tuple[float, float],
        scheduler: "SchedulingFunction",
        config: NodeConfig,
        event_queue: EventQueue,
        rng_registry,
        is_root: bool = False,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.is_root = is_root
        self.config = config
        self.event_queue = event_queue
        self.rng_registry = rng_registry
        self.stats = NodeStats()
        self.metrics: Optional["MetricsCollector"] = None
        self.traffic: Optional["TrafficGenerator"] = None
        #: When False the node silently stops generating new application
        #: packets (used by the experiment runner to drain in-flight traffic
        #: at the end of the measurement window).
        self.traffic_enabled = True
        #: Crash state (fault injection): a dead node's MAC refuses every
        #: enqueue silently -- its timers are stopped by power_down, but
        #: already-scheduled protocol callbacks (6top retransmissions, the
        #: periodic DAO refresh) may still fire and must not transmit.
        self.alive = True
        #: Cold-start join state (see :meth:`begin_scan`).  ``cold_start``
        #: selects the unsynchronised boot path; ``_cold_join_pending`` is
        #: raised while the node scans/acquires a parent and cleared (with a
        #: join-metrics sample) by the first parent acquisition.
        self.cold_start = config.cold_start_join and not is_root
        self._cold_join_pending = False
        #: Set by the network so scan transitions maintain its registry of
        #: scanning listeners: ``on_scan_state(node, scanning)``.
        self.on_scan_state: Optional[Callable[["Node", bool], None]] = None
        #: Shared simulation clock (assigned by ``Network.add_node``); a
        #: standalone node reads ASN 0, which only shifts its scan-channel
        #: phase, never correctness.
        self.clock: Optional["SimClock"] = None
        #: Absolute time of the last frame this node decoded while
        #: synchronised; the keepalive window measures silence against it.
        self._last_heard_s = 0.0

        # --- MAC -------------------------------------------------------
        self.tsch = TschEngine(node_id, config.tsch, rng_registry.stream(f"mac.{node_id}"))
        self.tsch.rx_callback = self._on_mac_rx
        self.tsch.tx_done_callback = self._on_mac_tx_done

        # --- RPL -------------------------------------------------------
        self.rpl = RplEngine(
            node_id=node_id,
            config=config.rpl,
            queue=event_queue,
            rng=rng_registry.stream(f"rpl.{node_id}"),
            send_packet=self.enqueue_packet,
            etx_of=self.tsch.etx.etx,
            is_root=is_root,
        )
        self.rpl.on_parent_changed = self._on_parent_changed
        self.rpl.on_child_added = self._on_child_added
        self.rpl.on_child_removed = self._on_child_removed

        # --- 6top ------------------------------------------------------
        self.sixtop = SixPLayer(
            node_id=node_id,
            config=config.sixp,
            queue=event_queue,
            send_packet=self.enqueue_packet,
        )
        self.sixtop.request_handler = self._on_sixp_request

        # --- scheduling function ----------------------------------------
        self.install_scheduler(scheduler)

        # --- Enhanced Beacon timer --------------------------------------
        eb_rng = rng_registry.stream(f"eb.{node_id}")
        self._eb_timer = PeriodicTimer(
            event_queue,
            config.tsch.eb_period_s,
            self._send_eb,
            start_offset=eb_rng.random() * config.tsch.eb_period_s,
            label=f"eb.{node_id}",
            jitter=0.25,
            rng=eb_rng,
        )

        # --- keepalive / desync watchdog ---------------------------------
        # Cold-start nodes lose synchronisation after a full window of
        # radio silence (no frame decoded): the watchdog tears the stack
        # down to the MAC and re-enters EB scan.  Un-jittered on purpose --
        # its ticks are pure EventQueue callbacks both slot loops drain
        # identically, and it must never perturb any protocol rng stream.
        self._keepalive_timer: Optional[PeriodicTimer] = None
        if self.cold_start and config.tsch.desync_timeout_s > 0.0:
            self._keepalive_timer = PeriodicTimer(
                event_queue,
                config.tsch.desync_timeout_s,
                self._keepalive_check,
                start_offset=config.tsch.desync_timeout_s,
                label=f"keepalive.{node_id}",
            )

        self._app_seqno = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the node at network start.

        A cold-start node boots unsynchronised: it scans for an Enhanced
        Beacon, and :meth:`_synchronise` powers the stack up on the first
        one.  Any other node powers up at once, announcing to its scheduler
        the parent the build-time warm preset gave RPL.
        """
        if self.cold_start:
            self.begin_scan()
            return
        parent = self.rpl.preferred_parent
        if parent is None:
            self.power_up()
        else:
            self.power_up(lambda: self.scheduler.on_parent_changed(None, parent))

    def install_scheduler(self, scheduler: "SchedulingFunction") -> None:
        """Wire a scheduling function into the stack (at build and on reboot)."""
        self.scheduler = scheduler
        scheduler.attach(self)
        self.rpl.dio_extra_provider = scheduler.dio_fields

    def power_up(self, attach: Optional[Callable[[], object]] = None) -> None:
        """Boot the stack above the MAC; every boot of the node runs here.

        Network start, a cold node's synchronisation, a warm rejoin and a
        synchronised arrival all boot in this one order: the scheduler
        starts; ``attach``, when given, hands it the state the node boots
        with (the preset parent at network start, the beacon that
        synchronised a cold node, or the pre-crash parent of a warm rejoin
        through ``RplEngine.warm_start``); RPL starts; the EB timer and, on
        a cold-start node, the keepalive watchdog arm; traffic starts if
        enabled.  GT-TSCH plans its Tx cells from the parent, its EB channel
        and the DIO budget, so every boot hands them over in the same order.
        The mirror of :meth:`power_down`.
        """
        self.scheduler.start()
        if attach is not None:
            attach()
        self.rpl.start()
        self._eb_timer.start()
        if self._keepalive_timer is not None:
            self._last_heard_s = self.event_queue.now
            self._keepalive_timer.start()
        if self.traffic is not None and self.traffic_enabled:
            self.traffic.start()

    def power_down(self, kind: str) -> None:
        """Tear the stack down to a bare MAC: the teardown of a crash or a desync.

        ``kind`` names the fault for the metrics and the loss cause of the
        flushed data packets.  Every timer and the traffic stop, a scan in
        progress is settled, RPL detaches silently, the queue is flushed and
        the schedule cleared.  Liveness is the caller's: a crashed node is dead,
        a desynced one scans again.  The queue and schedule mutations go
        through the fast kernel's barriers (``flush_queue``,
        ``clear_schedule``), so both slot loops stay bit-identical.
        """
        now = self.event_queue.now
        metrics = self.metrics
        if metrics is not None:
            metrics.on_fault_injected(kind, now)
            if self.rpl.preferred_parent is not None:
                metrics.on_node_orphaned(self.node_id, now)
        if self.traffic is not None:
            self.traffic.stop()
        self._eb_timer.stop()
        if self._keepalive_timer is not None:
            self._keepalive_timer.stop()
        self.abort_scan()
        self.scheduler.stop()
        self.rpl.trickle.stop()
        self.rpl.detach()
        for packet in self.tsch.flush_queue():
            if packet.ptype is PacketType.DATA and metrics is not None:
                metrics.on_data_lost(self, packet, reason=kind)
        self.tsch.clear_quiet_neighbors()
        self.tsch.clear_schedule()

    # ------------------------------------------------------------------
    # cold-start join (EB scan / synchronise / desync)
    # ------------------------------------------------------------------
    def _current_asn(self) -> int:
        return self.clock.asn if self.clock is not None else 0

    def begin_scan(self) -> None:
        """Enter (or re-enter) the unsynchronised EB scan.

        The MAC parks its radio on the deterministic scan channel every
        slot (:meth:`~repro.mac.tsch.TschEngine.begin_scan`); no upper
        layer runs until :meth:`_synchronise` decodes a beacon.  The join
        episode is registered with the metrics collector so time-to-join
        can censor nodes that never make it.
        """
        self.open_join_episode()
        self.tsch.begin_scan(self._current_asn())
        if self.on_scan_state is not None:
            self.on_scan_state(self, True)

    def open_join_episode(self) -> None:
        """Raise the join flag the first parent acquisition clears."""
        self._cold_join_pending = True
        if self.metrics is not None:
            self.metrics.on_join_pending(self.node_id, self.event_queue.now)

    def abort_scan(self) -> None:
        """Stop scanning without synchronising (used when a scanning node
        crashes: its radio dies mid-scan, so the listen window up to now is
        settled and the MAC returns to pure sleep)."""
        if not self.tsch.scanning:
            return
        self.tsch.end_scan(self._current_asn())
        if self.on_scan_state is not None:
            self.on_scan_state(self, False)

    def _synchronise(self, packet: Packet, asn: int) -> None:
        """First EB decoded while scanning: sync the clock, boot the stack.

        Order matters for the fast kernel's accounting: the MAC settles the
        scan window *before* the scheduler's first schedule mutation fires
        the settlement barrier, so the barrier sees a clean watermark and
        the sync slot itself is credited as busy-RX by the caller.  The
        stack then powers up, and the scheduler consumes the very beacon
        that synchronised us (GT-TSCH reads its channel-assignment fields).
        """
        self.tsch.end_scan(asn)
        if self.on_scan_state is not None:
            self.on_scan_state(self, False)
        self.power_up(lambda: self.scheduler.on_eb_received(packet))

    def _keepalive_check(self) -> None:
        """Desync-on-silence: a full keepalive window with no decoded frame
        means the node's clock has drifted beyond recovery -- tear down and
        re-scan."""
        if not self.alive or self.tsch.scanning:
            return
        if self.event_queue.now - self._last_heard_s >= self.config.tsch.desync_timeout_s:
            self._desynchronise()

    def _desynchronise(self) -> None:
        """Lose TSCH synchronisation: the crash teardown, then EB scan again."""
        self.power_down("desync")
        self.begin_scan()

    def set_traffic_generator(self, generator: "TrafficGenerator") -> None:
        """Attach an application traffic generator to this node."""
        self.traffic = generator
        generator.attach(self, self.event_queue, self.rng_registry.stream(f"traffic.{self.node_id}"))

    def set_metrics(self, collector: "MetricsCollector") -> None:
        self.metrics = collector

    # ------------------------------------------------------------------
    # application layer
    # ------------------------------------------------------------------
    def generate_data(self) -> Optional[Packet]:
        """Generate one application packet destined to the DODAG root.

        Root nodes and nodes that have not joined a DODAG yet do not generate
        traffic (matching the paper's setup where only non-root motes source
        data).  Returns the packet when one was created, ``None`` otherwise.
        """
        if not self.alive or not self.traffic_enabled or self.is_root:
            return None
        if not self.rpl.is_joined() or self.rpl.dodag_id is None:
            return None
        self._app_seqno += 1
        packet = make_data_packet(
            source=self.node_id,
            destination=self.rpl.dodag_id,
            created_at=self.event_queue.now,
            app_seqno=self._app_seqno,
        )
        self.stats.data_generated += 1
        if self.metrics is not None:
            self.metrics.on_data_generated(self, packet)
        self._route_and_enqueue(packet)
        return packet

    def _deliver_to_application(self, packet: Packet) -> None:
        """Terminal delivery of a data packet at this (root) node."""
        self.stats.data_delivered_as_sink += 1
        if self.metrics is not None:
            self.metrics.on_data_delivered(self, packet)

    # ------------------------------------------------------------------
    # forwarding / queueing
    # ------------------------------------------------------------------
    def _route_and_enqueue(self, packet: Packet) -> bool:
        """Address a data packet to the next hop (the preferred parent)."""
        parent = self.rpl.preferred_parent
        if parent is None:
            self.stats.routing_drops += 1
            if self.metrics is not None and packet.ptype is PacketType.DATA:
                self.metrics.on_data_lost(self, packet, reason="no-route")
            return False
        hop = packet.for_next_hop(self.node_id, parent)
        return self.enqueue_packet(hop)

    def enqueue_packet(self, packet: Packet) -> bool:
        """Put a packet (control or data) on the MAC queue."""
        if not self.alive:
            # Dead device: nothing is queued and nothing is loss-accounted
            # (the packet was never offered to a working stack).
            return False
        # A control frame that meets a full queue takes the place of the
        # youngest data packet, which is lost like a refused one.
        evicted = self.tsch.queue.evict_for(packet)
        accepted = self.tsch.enqueue(packet, now=self.event_queue.now)
        if evicted is not None:
            self._on_queue_loss(evicted)
        if not accepted:
            if packet.ptype is PacketType.DATA:
                self._on_queue_loss(packet)
        else:
            self.scheduler.on_packet_enqueued(packet)
        return accepted

    def _on_queue_loss(self, packet: Packet) -> None:
        """A data packet overflowed the MAC queue: refused, or evicted by a control frame."""
        self.stats.queue_drops += 1
        if self.metrics is not None:
            self.metrics.on_data_lost(self, packet, reason="queue")

    # ------------------------------------------------------------------
    # MAC callbacks
    # ------------------------------------------------------------------
    def _on_mac_rx(self, packet: Packet, asn: int) -> None:
        """Dispatch a frame decoded by the MAC to the proper layer.

        Broadcast control frames (DIO/EB) dominate receptions at scale --
        every neighbor decodes them -- so they are dispatched first.
        """
        if self.tsch.scanning:
            # Unsynchronised: the only frame that means anything is an
            # Enhanced Beacon, which carries the ASN and synchronises us.
            # Anything else decoded on the scan channel is noise to a node
            # with no schedule and no DODAG.
            if packet.ptype is PacketType.EB:
                self._synchronise(packet, asn)
            return
        if self._keepalive_timer is not None:
            self._last_heard_s = self.event_queue.now
        ptype = packet.ptype
        if ptype is PacketType.DIO:
            self.rpl.process_dio(packet, self.event_queue.now)
            self.scheduler.on_dio_received(packet)
        elif ptype is PacketType.EB:
            self.scheduler.on_eb_received(packet)
        elif ptype is PacketType.DATA:
            forwarded = packet.for_next_hop(packet.link_source, packet.link_destination)
            forwarded.hops += 1
            if forwarded.destination == self.node_id:
                self._deliver_to_application(forwarded)
            else:
                self.stats.data_forwarded += 1
                self._route_and_enqueue(forwarded)
        elif ptype is PacketType.DAO:
            self.rpl.process_dao(packet, self.event_queue.now)
        elif ptype is PacketType.SIXP:
            self.sixtop.process_packet(packet)

    def _on_mac_tx_done(self, packet: Packet, success: bool, asn: int) -> None:
        """A unicast packet left the MAC (delivered to next hop, or dropped)."""
        if not success and packet.ptype is PacketType.DATA and self.metrics is not None:
            self.metrics.on_data_lost(self, packet, reason="mac-retries")
        self.scheduler.on_tx_done(packet, success)

    # ------------------------------------------------------------------
    # RPL callbacks
    # ------------------------------------------------------------------
    def _on_parent_changed(self, old_parent: Optional[int], new_parent: Optional[int]) -> None:
        if old_parent is not None and new_parent is not None:
            if self.tsch.queue.retarget(old_parent, new_parent):
                self.tsch.mark_queue_mutated()
        if self.metrics is not None:
            # Recovery accounting (see MetricsCollector): losing the parent
            # opens an orphan episode, regaining one closes it.  Same-parent
            # switches (both ends non-None) are not churn.
            if old_parent is not None and new_parent is None:
                self.metrics.on_node_orphaned(self.node_id, self.event_queue.now)
            elif old_parent is None and new_parent is not None:
                self.metrics.on_node_recovered(self.node_id, self.event_queue.now)
        if new_parent is not None and self._cold_join_pending:
            # First parent since the cold boot (or since a desync): the
            # join episode closes here -- sync alone is not a join, a
            # route to the root is.
            self._cold_join_pending = False
            if self.metrics is not None:
                self.metrics.on_node_joined(self.node_id, self.event_queue.now)
        self.scheduler.on_parent_changed(old_parent, new_parent)

    def _on_child_added(self, child: int) -> None:
        self.scheduler.on_child_added(child)

    def _on_child_removed(self, child: int) -> None:
        self.scheduler.on_child_removed(child)

    # ------------------------------------------------------------------
    # 6top callback
    # ------------------------------------------------------------------
    def _on_sixp_request(
        self, peer: int, message: SixPMessage
    ) -> tuple[SixPReturnCode, dict[str, Any]]:
        return self.scheduler.on_sixp_request(peer, message)

    # ------------------------------------------------------------------
    # Enhanced Beacons
    # ------------------------------------------------------------------
    def _send_eb(self) -> None:
        """Periodically broadcast an Enhanced Beacon.

        Only nodes that are part of a DODAG advertise, matching Contiki-NG
        where EBs start after association.  The scheduling function may
        piggyback fields (GT-TSCH advertises the channel its children must
        use, per Section III of the paper).
        """
        if not self.rpl.is_joined():
            return
        # Do not pile up beacons: if the previous EB is still waiting for a
        # broadcast cell, skip this period (Contiki behaves the same way).
        if self.tsch.queue.contains_ptype(PacketType.EB):
            return
        payload: dict[str, Any] = {
            "join_priority": 0 if self.is_root else 1,
        }
        payload.update(self.scheduler.eb_fields())
        packet = Packet(
            ptype=PacketType.EB,
            source=self.node_id,
            destination=BROADCAST_ADDRESS,
            link_source=self.node_id,
            link_destination=BROADCAST_ADDRESS,
            payload=payload,
            created_at=self.event_queue.now,
            size_bytes=50,
        )
        self.stats.eb_sent += 1
        self.enqueue_packet(packet)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        role = "root" if self.is_root else f"rank={self.rpl.rank}"
        return f"Node({self.node_id}, {role}, scheduler={self.scheduler.name})"
