"""The scheduling-function plug-in interface.

A 6TiSCH Scheduling Function (SF) decides which TSCH cells a node installs
and when the schedule is updated.  RFC 8480 leaves the SF open -- that is the
research gap the paper addresses -- so the simulator treats it as a plug-in:

* the SF observes the node's protocol events (parent switches, new children,
  received EBs/DIOs, finished transmissions);
* it installs/removes cells on the node's :class:`repro.mac.tsch.TschEngine`;
* it may negotiate cells with neighbours through the node's 6P layer;
* it may piggyback fields on EBs and DIOs (GT-TSCH uses both).

All callbacks have default no-op implementations so concrete schedulers only
override what they need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.packet import Packet
from repro.sim.events import PeriodicTimer
from repro.sixtop.messages import SixPMessage, SixPReturnCode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node


class SchedulingFunction:
    """Base class for TSCH scheduling functions.

    Lifecycle contract
    ------------------
    ``attach(node)`` binds the SF to its node (exactly once, before any other
    callback); ``start()`` installs the initial schedule.  Every boot
    (``Node.power_up``) runs ``start()`` first, then hands the SF the state
    the node boots with (a parent through ``on_parent_changed``, or the
    synchronising beacon through ``on_eb_received``), then boots RPL.  An
    SF with a periodic adaptation round arms it in ``start()`` with
    :meth:`start_rounds`.  ``stop()`` runs when the node powers down and
    must cancel every live timer the SF owns, because a reboot boots a
    *fresh* SF instance while the old one's events would otherwise keep
    firing; the base ``stop()`` cancels the round, so override it only for
    other timers.  Every reboot (a keepalive desync, a fault-injected
    rejoin or arrival) builds the replacement instance through the factory
    the node was built with (``Node.scheduler_factory``), so an SF must be
    fully functional when constructed with nothing but its config.

    Settlement-barrier obligations
    ------------------------------
    The fast kernel skips slots in which no node acts, so an SF **must not**
    rely on per-slot callbacks -- all of its logic has to be event-driven
    (periodic timers, ``on_tx_done``, ``on_eb_received``, 6P callbacks), and
    anything resembling "per elapsed slot" accounting must be computed
    arithmetically from time deltas at event boundaries.  Every schedule
    mutation (``Slotframe.add_cell`` / ``remove_cell``) is automatically a
    settlement barrier: the MAC settles duty-cycle and CSMA state up to the
    current slot before the mutation applies, which is what keeps the
    skipping kernel bit-identical to the per-slot reference loop.  Mutating
    the schedule from any event-queue callback is therefore safe; counting
    slots by hooking them is not.
    """

    #: Human-readable name used in metrics and experiment tables.
    name = "base"

    def __init__(self) -> None:
        self.node: Optional["Node"] = None
        self._round: Optional[PeriodicTimer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, node: "Node") -> None:
        """Bind the SF to its node.  Called once, before :meth:`start`."""
        self.node = node

    def start(self) -> None:
        """Install the initial schedule (slotframes, minimal cells)."""

    def start_rounds(self, period: float, callback: Callable[[], Any], name: str) -> None:
        """Arm the SF's periodic adaptation round; call it from :meth:`start`.

        The first round falls at a random phase within ``period`` and each
        later one ``period`` ±10% after it, both drawn from the node's
        ``<name>.timer.<node id>`` stream, so the rounds of different nodes
        never phase-lock.  The base :meth:`stop` cancels the round and
        :meth:`load_balance_period_s` reports ``period``.
        """
        node = self.node
        rng = node.rng_registry.stream(f"{name}.timer.{node.node_id}")
        self._round = PeriodicTimer(
            node.event_queue,
            period,
            callback,
            start_offset=rng.random() * period,
            label=f"{name}-round.{node.node_id}",
            jitter=0.1,
            rng=rng,
        )
        self._round.start()

    def stop(self) -> None:
        """Cancel the live timers when the node powers down.

        ``Node.power_down`` calls it on a crash or a desync; the schedule
        itself is cleared separately (``TschEngine.clear_schedule``) and a
        reboot boots a *fresh* SF instance, so only what would otherwise keep
        firing on the event queue needs cancelling.  The base cancels the
        round of :meth:`start_rounds`; override it only for other timers.
        """
        if self._round is not None:
            self._round.stop()

    # ------------------------------------------------------------------
    # RPL events
    # ------------------------------------------------------------------
    def on_parent_changed(self, old_parent: Optional[int], new_parent: Optional[int]) -> None:
        """The node selected a new preferred parent (or lost its parent)."""

    def on_child_added(self, child: int) -> None:
        """A node announced (via DAO) that it uses us as its parent."""

    def on_child_removed(self, child: int) -> None:
        """A previously known child is gone."""

    # ------------------------------------------------------------------
    # control-plane piggybacking
    # ------------------------------------------------------------------
    def eb_fields(self) -> dict[str, Any]:
        """Extra fields to piggyback on this node's Enhanced Beacons."""
        return {}

    def dio_fields(self) -> dict[str, Any]:
        """Extra fields to piggyback on this node's DIOs (e.g. ``l_rx``)."""
        return {}

    def on_eb_received(self, packet: Packet) -> None:
        """An Enhanced Beacon was received from a neighbor."""

    def on_dio_received(self, packet: Packet) -> None:
        """A DIO was received (after RPL has already processed it)."""

    # ------------------------------------------------------------------
    # 6P events
    # ------------------------------------------------------------------
    def on_sixp_request(
        self, peer: int, message: SixPMessage
    ) -> tuple[SixPReturnCode, dict[str, Any]]:
        """Answer an incoming 6P request.

        Returns the response return code plus the response fields
        (``cell_list``, ``channel_offset``...).  The default rejects every
        request, which is correct for autonomous schedulers that never use 6P.
        """
        return SixPReturnCode.ERR, {}

    # ------------------------------------------------------------------
    # MAC events
    # ------------------------------------------------------------------
    def on_packet_enqueued(self, packet: Packet) -> None:
        """A packet (data or control) entered the MAC queue."""

    def on_tx_done(self, packet: Packet, success: bool) -> None:
        """A unicast packet left the MAC (delivered, or dropped after retries)."""

    def relocation_count(self) -> int:
        """Schedule cells installed or removed through 6P so far (churn).

        Negotiating schedulers (GT-TSCH) override this; autonomous ones have
        no 6P traffic, so the metric is zero.  The collector differences it
        across the measurement window to report cell relocations per
        load-balancing period.
        """
        return 0

    def load_balance_period_s(self) -> float:
        """Length of the SF's adaptation round (0 before :meth:`start_rounds`, or without one)."""
        return 0.0 if self._round is None else self._round.period

    def config_fingerprint(self) -> Any:
        """Value describing everything configurable about this SF instance.

        Folded into the scenario fingerprint (and hence the on-disk result
        cache key) by :func:`repro.experiments.parallel.scenario_fingerprint`,
        so scheduler configuration enters cache keys generically instead of
        through per-scheduler ``ContikiConfig`` special cases -- a
        third-party SF with its own config dataclass is cached correctly
        without touching the experiments layer.  The returned value must be
        canonicalisable: a dataclass, a dict/list/tuple of scalars, or any
        object with a value-based ``__repr__``.  The default returns the
        conventional ``config`` attribute (every first-party scheduler stores
        its config dataclass there), or ``None`` for config-free SFs.
        """
        return getattr(self, "config", None)

    # ------------------------------------------------------------------
    # introspection helpers shared by concrete schedulers
    # ------------------------------------------------------------------
    def describe_schedule(self) -> str:
        """Human-readable dump of installed cells, for examples and debugging."""
        if self.node is None:
            return "<detached scheduler>"
        lines = [f"Schedule of node {self.node.node_id} ({self.name}):"]
        for handle in sorted(self.node.tsch.slotframes):
            slotframe = self.node.tsch.slotframes[handle]
            lines.append(f"  slotframe {handle} (length {slotframe.length}):")
            for cell in slotframe.all_cells():
                lines.append(f"    {cell!r}")
        return "\n".join(lines)
