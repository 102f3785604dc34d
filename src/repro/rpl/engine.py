"""Per-node RPL engine: neighbor table, parent selection, DIO/DAO handling.

The engine is a storing-mode RPL node reduced to the behaviours GT-TSCH needs:

* maintain a neighbor table from received DIOs (rank, GT-TSCH ``l_rx`` option,
  freshness);
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

    from repro.phy.linkstats import EtxEstimator


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
    #: Neighbors not heard from for this long are evicted.
    neighbor_lifetime_s: float = 600.0
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
    last_heard: float = 0.0
    #: Memoised candidate rank (the rank this node would advertise if it
    #: joined through this neighbor) and the input stamp it was computed
    #: under: ``(rank, dodag_id, dodag version, per-link ETX version)``.
    #: ``None`` means never scored; see :meth:`RplEngine._evaluate_parents`.
    cand_rank: int = INFINITE_RANK
    cand_stamp: Optional[tuple] = None


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
        etx_state: Optional[EtxEstimator] = None,
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
        etx_state:
            The :class:`~repro.phy.linkstats.EtxEstimator` behind ``etx_of``
            (anything exposing ``version`` and ``neighbor_versions``).  Its
            version counters let the engine prove an ETX estimate unchanged
            since the last parent evaluation; without it the rank memo is
            disabled and every reception re-ranks, as the seed engine did.
        """
        self.node_id = node_id
        self.config = config
        self.queue = queue
        self.rng = rng
        self._send_packet = send_packet
        self._etx_of = etx_of
        self._etx_state = etx_state
        self.is_root = is_root
        #: Version counter over every non-ETX input of parent selection:
        #: material neighbor-table updates (advertised rank / DODAG id /
        #: DODAG version, insertion, eviction), children-set membership and
        #: warm-started DODAG state.  Compared against
        #: :attr:`_memo_evaluated_inputs` to prove a reception input-free.
        self._memo_inputs = 0
        self._memo_evaluated_inputs = -1
        self._memo_evaluated_etx = -1
        #: True when the last evaluation left our own rank / preferred parent
        #: untouched: only then is re-running it with unchanged inputs a
        #: provable no-op (our own state is itself a selection input -- e.g.
        #: a rank refresh upward can make rank-rule-filtered neighbors
        #: eligible), so only then may a reception be skipped.
        self._memo_fixed_point = False

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
        #: Rank-memo diagnostics: full evaluations run, receptions settled
        #: without re-ranking, and candidate ranks actually recomputed.
        self.parent_evaluations = 0
        self.evaluations_skipped = 0
        self.candidate_recomputes = 0

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
        self._memo_inputs += 1
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

    # ------------------------------------------------------------------
    # message processing
    # ------------------------------------------------------------------
    def process_dio(self, packet: Packet, now: float) -> None:
        """Handle a received DIO broadcast.

        Only *material* changes -- the advertised rank, DODAG id or DODAG
        version, or a brand-new neighbor -- dirty the rank memo; ``l_rx`` and
        freshness updates influence no candidate rank.  A reception that is
        provably input-free (memo clean and no ETX estimate changed since the
        last evaluation) settles without re-ranking anything: re-running the
        evaluation would recompute the same fixed point, fire no callbacks
        and draw no randomness, so skipping it is bit-identical.
        """
        payload = packet.payload
        sender = packet.link_source
        rank = payload.get("rank", INFINITE_RANK)
        dodag_id = payload.get("dodag_id")
        version = payload.get("version", 0)
        neighbor = self.neighbors.get(sender)
        if neighbor is None:
            neighbor = RplNeighbor(node_id=sender)
            self.neighbors[sender] = neighbor
            neighbor.rank = rank
            neighbor.dodag_id = dodag_id
            neighbor.version = version
            self._memo_inputs += 1
        elif (
            rank != neighbor.rank
            or dodag_id != neighbor.dodag_id
            or version != neighbor.version
        ):
            neighbor.rank = rank
            neighbor.dodag_id = dodag_id
            neighbor.version = version
            self._memo_inputs += 1
        neighbor.l_rx = payload.get("l_rx", neighbor.l_rx)
        neighbor.last_heard = now
        self.trickle.hear_consistent()
        if self.is_root:
            return
        if (
            self._memo_fixed_point
            and self._etx_state is not None
            and self._memo_evaluated_inputs == self._memo_inputs
            and self._memo_evaluated_etx == self._etx_state.version
        ):
            self.evaluations_skipped += 1
            return
        self._evaluate_parents()

    def process_dao(self, packet: Packet, now: float) -> None:
        """Handle a received DAO: the sender declares us as its parent."""
        child = packet.source
        if child == self.node_id:
            return
        if child not in self.children:
            self.children.add(child)
            # Children are filtered out of parent selection, so membership is
            # an evaluation input even though no candidate rank changes.
            self._memo_inputs += 1
            if self.on_child_added is not None:
                self.on_child_added(child)

    def remove_child(self, child: int) -> None:
        """Forget a child (e.g. it switched to another parent)."""
        if child in self.children:
            self.children.discard(child)
            self._memo_inputs += 1
            if self.on_child_removed is not None:
                self.on_child_removed(child)

    def evict_neighbor(self, node_id: int) -> None:
        """Drop a neighbor from the candidate set (e.g. lifetime expiry).

        The entry's memoised candidate rank disappears with it and the memo
        is dirtied, so the next reception re-evaluates.  Evicting the
        preferred parent detaches first (callback included), then parent
        selection runs immediately to adopt a replacement if one exists.
        """
        if self.neighbors.pop(node_id, None) is None:
            return
        self._memo_inputs += 1
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
        """Run MRHOF parent selection over the current neighbor table.

        With the rank memo active, each neighbor's candidate rank is a pure
        function of its stamp ``(advertised rank, DODAG id, DODAG version,
        per-link ETX version)``: only stamp-dirtied candidates are re-scored,
        everyone else reuses the memoised rank.  The selection itself (the
        children filter, the rank rule, hysteresis) always runs live -- it
        depends on this node's own state, which the stamps do not cover.
        """
        self.parent_evaluations += 1
        entry_rank = self.rank
        entry_parent = self.preferred_parent
        best: Optional[RplNeighbor] = None
        best_rank = INFINITE_RANK
        memo = self._etx_state is not None
        etx_versions = self._etx_state.neighbor_versions if memo else None
        for neighbor in self.neighbors.values():
            # A child must never be selected as parent (avoids 2-node loops);
            # neither can a neighbor advertising a rank not better than ours.
            if neighbor.node_id in self.children:
                continue
            if memo:
                stamp = (
                    neighbor.rank,
                    neighbor.dodag_id,
                    neighbor.version,
                    etx_versions.get(neighbor.node_id, 0),
                )
                if stamp != neighbor.cand_stamp:
                    neighbor.cand_rank = self._candidate_rank(neighbor)
                    neighbor.cand_stamp = stamp
                    self.candidate_recomputes += 1
                candidate = neighbor.cand_rank
            else:
                candidate = self._candidate_rank(neighbor)
                self.candidate_recomputes += 1
            if candidate >= INFINITE_RANK:
                continue
            if neighbor.rank >= self.rank and self.preferred_parent is not None:
                # Rank rule: never attach to a neighbor deeper than ourselves.
                if neighbor.node_id != self.preferred_parent:
                    continue
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

        if memo:
            self._memo_evaluated_inputs = self._memo_inputs
            self._memo_evaluated_etx = self._etx_state.version
            self._memo_fixed_point = (
                self.rank == entry_rank and self.preferred_parent == entry_parent
            )

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
