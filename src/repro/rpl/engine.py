"""Per-node RPL engine: neighbor table, parent selection, DIO/DAO handling.

The engine is a storing-mode RPL node reduced to the behaviours GT-TSCH needs:

* maintain a neighbor table from received DIOs (rank, GT-TSCH ``l_rx``
  option);
* select and keep a preferred parent using MRHOF with ETX and hysteresis;
* advertise its own Rank through Trickle-paced DIOs;
* announce itself to the selected parent with a DAO so the parent learns its
  children set (which GT-TSCH's channel and cell allocation need);
* notify the scheduling function of parent switches and child arrivals.

The evaluation scenarios of the paper use static topologies measured after
the network has formed; to keep runs deterministic, scenario code may
*warm-start* the DODAG (preset parents and ranks) and let RPL maintain it from
there.  Both cold and warm start paths are exercised by the test suite.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.packet import Packet
from repro.rpl.messages import make_dao, make_dio
from repro.rpl.rank import (
    INFINITE_RANK,
    MIN_HOP_RANK_INCREASE,
    MrhofObjectiveFunction,
    RankCalculator,
)
from repro.rpl.trickle import TrickleTimer
from repro.sim.events import EventQueue

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001


@dataclass
class RplConfig:
    """RPL configuration knobs.

    ``dio_interval_min_s`` corresponds to Table II's "minimum DIO interval".
    The paper sets it to 300 s for the measured (steady-state) phase to keep
    control overhead negligible; scenarios in this repository use a small
    value during warm-up so the DODAG forms quickly, then the Trickle doubling
    naturally backs the rate off.
    """

    dio_interval_min_s: float = 4.0
    dio_interval_doublings: int = 8
    dio_redundancy: int = 0
    #: Delay between selecting a parent and sending the DAO announcing it.
    dao_delay_s: float = 1.0
    #: Period of DAO refreshes (keeps the parent's children set alive).
    dao_period_s: float = 60.0
    min_hop_rank_increase: int = MIN_HOP_RANK_INCREASE
    parent_switch_threshold: int = 192
    root_rank: int = MIN_HOP_RANK_INCREASE


@dataclass
class RplNeighbor:
    """An entry of the RPL neighbor (candidate parent) table."""

    node_id: int
    rank: int = INFINITE_RANK
    dodag_id: Optional[int] = None
    version: int = 0
    #: GT-TSCH DIO option: reception cells the neighbor offers to children.
    l_rx: int = 0


class RplEngine:
    """RPL state machine for one node."""

    def __init__(
        self,
        node_id: int,
        config: RplConfig,
        queue: EventQueue,
        rng: random.Random,
        send_packet: Callable[[Packet], None],
        etx_of: Callable[[int], float],
        is_root: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        send_packet:
            Callback handing a control packet (DIO broadcast or DAO unicast)
            to the node's MAC queue.
        etx_of:
            Callback returning the current ETX estimate towards a neighbor
            (provided by the MAC's link statistics).
        """
        self.node_id = node_id
        self.config = config
        self.queue = queue
        self.rng = rng
        self._send_packet = send_packet
        self._etx_of = etx_of
        self.is_root = is_root

        self.objective = MrhofObjectiveFunction(
            min_hop_rank_increase=config.min_hop_rank_increase,
            parent_switch_threshold=config.parent_switch_threshold,
        )
        self.rank_calculator = RankCalculator(
            min_hop_rank_increase=config.min_hop_rank_increase,
            root_rank=config.root_rank,
        )

        self.dodag_id: Optional[int] = node_id if is_root else None
        self.rank: int = config.root_rank if is_root else INFINITE_RANK
        self.version: int = 0
        self.preferred_parent: Optional[int] = None
        self.neighbors: dict[int, RplNeighbor] = {}
        self.children: set[int] = set()

        # Callbacks wired by the node / scheduling function.
        self.on_parent_changed: Optional[Callable[[Optional[int], Optional[int]], None]] = None
        self.on_child_added: Optional[Callable[[int], None]] = None
        self.on_child_removed: Optional[Callable[[int], None]] = None
        #: Provider of scheduler-specific DIO fields (e.g. GT-TSCH ``l_rx``).
        self.dio_extra_provider: Optional[Callable[[], dict]] = None

        self.trickle = TrickleTimer(
            queue,
            rng,
            self._emit_dio,
            i_min=config.dio_interval_min_s,
            doublings=config.dio_interval_doublings,
            redundancy=config.dio_redundancy,
        )
        self._dao_timer_started = False
        #: Diagnostics.
        self.dio_sent = 0
        self.dao_sent = 0
        self.parent_switches = 0
        #: Parent-selection runs.  Every non-root DIO reception runs one.
        self.parent_evaluations = 0
        #: Always 0: no reception skips parent selection.  Kept because
        #: ``perfbench/layers.py`` reads it.
        self.evaluations_skipped = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start advertising (roots) or listening for a DODAG (other nodes)."""
        if self.is_root:
            self.trickle.start()

    def warm_start(self, parent: Optional[int], rank: int, dodag_id: int) -> None:
        """Preset the DODAG state (used by scenario builders for determinism).

        The node behaves exactly as if it had joined through DIO exchange:
        the parent-switch callback fires, a DAO is scheduled and Trickle
        starts advertising the preset Rank.
        """
        self.dodag_id = dodag_id
        self.rank = rank
        if self.is_root:
            self.trickle.start()
            return
        old_parent = self.preferred_parent
        self.preferred_parent = parent
        if parent is not None:
            self.neighbors.setdefault(parent, RplNeighbor(node_id=parent))
            self.neighbors[parent].dodag_id = dodag_id
            if self.on_parent_changed is not None:
                self.on_parent_changed(old_parent, parent)
            self._schedule_dao()
        self.trickle.start()

    def detach(self) -> None:
        """Silently drop all DODAG state: parent, rank and both tables.

        No callback fires, and with no rank the Trickle timer advertises
        nothing: neighbors only find out from the silence.  The timer itself
        is the caller's; a node that powers down stops it first.  A root
        keeps its DODAG id.
        """
        self._drop_route()
        self.neighbors.clear()
        self.children.clear()

    def forget(self, node_id: int) -> None:
        """Silently erase every reference to ``node_id``.

        Drops its child and neighbor entries; if it was the preferred
        parent, the node is left detached and joins again through DIO
        exchange.  No callback fires, which suits presets erased before the
        simulation starts (a late arrival that is not there yet).
        """
        self.children.discard(node_id)
        self.neighbors.pop(node_id, None)
        if self.preferred_parent == node_id:
            self._drop_route()

    def _drop_route(self) -> None:
        self.preferred_parent = None
        self.rank = INFINITE_RANK
        if not self.is_root:
            self.dodag_id = None

    # ------------------------------------------------------------------
    # message processing
    # ------------------------------------------------------------------
    def process_dio(self, packet: Packet) -> None:
        """Handle a received DIO broadcast: refresh the sender's entry, then
        re-run parent selection (non-root nodes)."""
        payload = packet.payload
        sender = packet.link_source
        neighbor = self.neighbors.get(sender)
        if neighbor is None:
            neighbor = self.neighbors[sender] = RplNeighbor(node_id=sender)
        neighbor.rank = payload.get("rank", INFINITE_RANK)
        neighbor.dodag_id = payload.get("dodag_id")
        neighbor.version = payload.get("version", 0)
        neighbor.l_rx = payload.get("l_rx", neighbor.l_rx)
        self.trickle.hear_consistent()
        if not self.is_root:
            self._evaluate_parents()

    def process_dao(self, packet: Packet) -> None:
        """Handle a received DAO: the sender declares us as its parent."""
        child = packet.source
        if child == self.node_id:
            return
        if child not in self.children:
            self.children.add(child)
            if self.on_child_added is not None:
                self.on_child_added(child)

    def remove_child(self, child: int) -> None:
        """Forget a child (e.g. it switched to another parent)."""
        if child in self.children:
            self.children.discard(child)
            if self.on_child_removed is not None:
                self.on_child_removed(child)

    def evict_neighbor(self, node_id: int) -> None:
        """Drop a neighbor from the candidate set (a crash or a lost link).

        Evicting the preferred parent detaches first (callback included),
        then parent selection runs immediately to adopt a replacement if one
        exists.
        """
        if self.neighbors.pop(node_id, None) is None:
            return
        if node_id == self.preferred_parent:
            self.preferred_parent = None
            self.rank = INFINITE_RANK
            if self.on_parent_changed is not None:
                self.on_parent_changed(node_id, None)
        if not self.is_root:
            self._evaluate_parents()

    # ------------------------------------------------------------------
    # parent selection
    # ------------------------------------------------------------------
    def _candidate_rank(self, neighbor: RplNeighbor) -> int:
        """Rank this node would advertise if it joined through ``neighbor``."""
        if neighbor.rank >= INFINITE_RANK or neighbor.dodag_id is None:
            return INFINITE_RANK
        return self.objective.rank_via(neighbor.rank, self._etx_of(neighbor.node_id))

    def _evaluate_parents(self) -> None:
        """Run MRHOF parent selection over the current neighbor table."""
        self.parent_evaluations += 1
        best: Optional[RplNeighbor] = None
        best_rank = INFINITE_RANK
        for neighbor in self.neighbors.values():
            # A child must never be selected as parent (avoids 2-node loops);
            # neither can a neighbor advertising a rank not better than ours
            # (the rank rule), unless it is our parent.
            if neighbor.node_id in self.children:
                continue
            if (
                neighbor.rank >= self.rank
                and self.preferred_parent is not None
                and neighbor.node_id != self.preferred_parent
            ):
                continue
            candidate = self._candidate_rank(neighbor)
            if candidate < best_rank:
                best_rank = candidate
                best = neighbor

        if best is not None:
            if self.preferred_parent is None:
                self._adopt_parent(best, best_rank)
            elif best.node_id == self.preferred_parent:
                # Refresh our own rank through the (possibly changed) link cost.
                self.rank = best_rank
            elif self.objective.is_worth_switching(self.rank, best_rank):
                self._adopt_parent(best, best_rank)

    def _adopt_parent(self, neighbor: RplNeighbor, new_rank: int) -> None:
        old_parent = self.preferred_parent
        self.preferred_parent = neighbor.node_id
        self.dodag_id = neighbor.dodag_id
        self.rank = new_rank
        if old_parent is not None:
            self.parent_switches += 1
        if self.on_parent_changed is not None:
            self.on_parent_changed(old_parent, neighbor.node_id)
        self._schedule_dao()
        if not self.trickle.running:
            self.trickle.start()
        else:
            self.trickle.hear_inconsistent()

    # ------------------------------------------------------------------
    # control traffic emission
    # ------------------------------------------------------------------
    def _emit_dio(self) -> None:
        if self.dodag_id is None or self.rank >= INFINITE_RANK:
            return
        extra = self.dio_extra_provider() if self.dio_extra_provider else None
        l_rx = None
        if extra and "l_rx" in extra:
            extra = dict(extra)
            l_rx = extra.pop("l_rx")
        packet = make_dio(
            sender=self.node_id,
            dodag_id=self.dodag_id,
            rank=self.rank,
            version=self.version,
            l_rx=l_rx,
            extra=extra,
            now=self.queue.now,
        )
        self.dio_sent += 1
        self._send_packet(packet)

    def _schedule_dao(self) -> None:
        self.queue.schedule_in(self.config.dao_delay_s, self._emit_dao, label="rpl-dao")
        if not self._dao_timer_started:
            self._dao_timer_started = True
            self.queue.schedule_in(self.config.dao_period_s, self._periodic_dao, label="rpl-dao-refresh")

    def _periodic_dao(self) -> None:
        self._emit_dao()
        self.queue.schedule_in(self.config.dao_period_s, self._periodic_dao, label="rpl-dao-refresh")

    def _emit_dao(self) -> None:
        if self.preferred_parent is None or self.dodag_id is None:
            return
        packet = make_dao(
            sender=self.node_id,
            parent=self.preferred_parent,
            dodag_id=self.dodag_id,
            rank=self.rank,
            now=self.queue.now,
        )
        self.dao_sent += 1
        self._send_packet(packet)

    # ------------------------------------------------------------------
    # queries used by schedulers and the game model
    # ------------------------------------------------------------------
    def parent_l_rx(self) -> int:
        """The parent's advertised number of reception cells (``l^rx_{p_i}``)."""
        if self.preferred_parent is None:
            return 0
        neighbor = self.neighbors.get(self.preferred_parent)
        return neighbor.l_rx if neighbor else 0

    def normalised_rank(self) -> float:
        """Eq. (3) normalised Rank of this node."""
        return self.rank_calculator.normalised_rank(self.rank)

    def hop_distance(self) -> float:
        """ETX-weighted hop distance to the root implied by the Rank."""
        return self.rank_calculator.hop_distance(self.rank)

    def is_joined(self) -> bool:
        """Whether the node is part of a DODAG (root or has a parent)."""
        return self.is_root or self.preferred_parent is not None
