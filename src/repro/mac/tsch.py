"""The per-node TSCH engine.

This is the software equivalent of Contiki-NG's ``tsch.c`` slot operation: at
every ASN the engine inspects its installed slotframes, picks the active cell
following the same precedence rules (transmit before receive, dedicated before
shared, lower slotframe handle first), applies CSMA/CA back-off in shared
cells, and -- once the medium has arbitrated the slot -- handles ACKs,
retransmissions, queue management and ETX bookkeeping.

The engine is deliberately scheduler-agnostic: scheduling functions (GT-TSCH,
Orchestra, 6TiSCH minimal) only install and remove cells; everything below the
schedule is identical for every scheduler, which makes the paper's comparisons
apples-to-apples.

One simplification relative to real TSCH is documented in DESIGN.md: nodes
are assumed to share the ASN from the start (perfect time synchronisation).
The paper's metrics are all measured after the network has formed, so
association dynamics do not influence them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Optional

from repro.mac.cell import Cell, CellOption, CellPurpose
from repro.mac.csma import CsmaBackoff
from repro.mac.duty_cycle import DutyCycleMeter
from repro.mac.hopping import DEFAULT_HOPPING_SEQUENCE, ChannelHopping
from repro.mac.queue import TxQueue
from repro.mac.slotframe import ListenEntry, Slotframe, planning_priority
from repro.net.packet import BROADCAST_ADDRESS, Packet
from repro.phy.linkstats import EtxEstimator
from repro.phy.medium import TransmissionIntent, TransmissionResult

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001


@dataclass
class TschConfig:
    """MAC-level configuration (defaults follow Table II of the paper)."""

    slot_duration_s: float = 0.015
    hopping_sequence: Sequence[int] = DEFAULT_HOPPING_SEQUENCE
    #: Maximum number of link-layer retransmissions after the first attempt.
    max_retries: int = 4
    #: MAC queue capacity (QMax); Contiki-NG's default QUEUEBUF_CONF_NUM is 8.
    queue_capacity: int = 8
    #: Enhanced Beacon period in seconds.
    eb_period_s: float = 2.0
    #: CSMA/CA back-off exponents for shared cells.
    min_backoff_exponent: int = 1
    max_backoff_exponent: int = 5
    #: EWMA weight of the ETX estimator (fraction kept from the old estimate).
    etx_alpha: float = 0.9
    #: ETX assumed for links with no transmission history yet.
    initial_etx: float = 2.0
    #: Cold-start EB scan: slots spent listening on one channel before the
    #: scanner hops to the next (an unsynchronised node cannot follow the
    #: hopping sequence, so it parks on each channel in turn).
    scan_dwell_slots: int = 64
    #: Desync-on-silence keepalive window in seconds: a cold-start node that
    #: decodes *nothing* for this long after synchronising drops back to the
    #: EB scan.  0 disables the keepalive (the default -- converged-network
    #: scenarios never desynchronise).
    desync_timeout_s: float = 0.0


class SlotPlan:
    """The engine's decision for one timeslot.

    Hand-rolled ``__slots__`` class (not a dataclass): one is allocated per
    transmitting slot on the kernel's hot path.
    """

    __slots__ = ("action", "cell", "packet", "channel")

    def __init__(
        self,
        action: str,  # "tx", "rx" or "sleep"
        cell: Optional[Cell] = None,
        packet: Optional[Packet] = None,
        channel: Optional[int] = None,
    ) -> None:
        self.action = action
        self.cell = cell
        self.packet = packet
        self.channel = channel

    @property
    def is_tx(self) -> bool:
        return self.action == "tx"

    @property
    def is_rx(self) -> bool:
        return self.action == "rx"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SlotPlan({self.action}, cell={self.cell!r}, channel={self.channel})"


#: Shared immutable "do nothing" plan.  A node with no active cell, or with
#: active cells that neither transmit nor listen, sleeps, so
#: :meth:`TschEngine.plan_slot` returns this singleton instead of allocating
#: a fresh ``SlotPlan``.  Treat it as read-only.
SLEEP_PLAN = SlotPlan(action="sleep")

#: Shared empty active-cell list (read-only) returned for idle ASNs.
_NO_CELLS: list["Cell"] = []


def _intersect_progressions(a: tuple, b: tuple) -> Optional[tuple]:
    """CRT intersection of two arithmetic progressions ``(offset, period)``.

    Returns the ``(offset, period)`` of ASNs lying on both progressions, or
    ``None`` when they never coincide.
    """
    offset_a, period_a = a
    offset_b, period_b = b
    gcd = math.gcd(period_a, period_b)
    if (offset_b - offset_a) % gcd:
        return None
    lcm = period_a // gcd * period_b
    step = period_a // gcd
    modulus = period_b // gcd
    # Solve offset_a + period_a * t ≡ offset_b (mod period_b).
    t = ((offset_b - offset_a) // gcd * pow(step, -1, modulus)) % modulus
    return ((offset_a + period_a * t) % lcm, lcm)


def _count_progression(offset: int, period: int, start: int, end: int) -> int:
    """Number of ASNs in [``start``, ``end``) congruent to ``offset`` mod ``period``."""
    first = start + (offset - start) % period
    if first >= end:
        return 0
    return (end - 1 - first) // period + 1


def next_offset_occurrence(asn: int, length: int, offsets: Sequence[int]) -> Optional[int]:
    """Smallest ASN >= ``asn`` whose residue modulo ``length`` is in ``offsets``.

    ``offsets`` must be sorted.  Returns ``None`` when empty.
    """
    if not offsets:
        return None
    residue = asn % length
    index = bisect_left(offsets, residue)
    if index < len(offsets):
        return asn + (offsets[index] - residue)
    return asn + (offsets[0] + length - residue)


class ScheduleProfile:
    """Derived, read-only facts about one node's installed schedule.

    Built lazily from the slotframes and invalidated through the engine's
    :attr:`~TschEngine.schedule_version`; the network's slot-skipping kernel
    uses it to answer, without planning the slot:

    * at which ASNs a node holding queued packets could possibly transmit
      (:meth:`next_tx_asn`, one bisect per slotframe into a table memoised
      per queue signature), and
    * how many of a run of guaranteed transmission-free slots the node spends
      idle-listening rather than sleeping (:meth:`count_idle_listen`) -- the
      node listens whenever any active cell carries the RX option, exactly the
      fall-through decision of :meth:`TschEngine.plan_slot`.
    """

    __slots__ = (
        "version",
        "has_rx",
        "_frames",
        "_single",
        "_rx_incexc",
        "_tx_tables",
        "_contention",
    )

    #: Above this many RX progressions the 2^k inclusion-exclusion expansion
    #: stops paying off and window counting falls back to the merged walk.
    MAX_INCEXC_PROGRESSIONS = 6

    def __init__(self, slotframes: Sequence[Slotframe], version: int) -> None:
        self.version = version
        #: Per slotframe: ``(length, rx offsets, rx prefix counts, broadcast
        #: TX offsets, anycast TX cells, neighbor -> dedicated TX cells)``.
        self._frames: list[tuple] = []
        #: Memo of :meth:`next_tx_asn`: queue signature key -> per slotframe
        #: ``(length, sorted TX offsets that could carry that backlog)``.
        self._tx_tables: dict[tuple, list[tuple]] = {}
        #: Memo of :meth:`shared_contention_progressions` per destination.
        self._contention: dict[int, Optional[list[tuple]]] = {}
        for sf in slotframes:
            length = sf.length
            used = sf.used_slot_offsets()
            # An offset listens exactly when its bucket holds an RX cell.
            rx_offsets = [offset for offset in used if sf.listen_at(offset) is not None]
            #: Offsets whose cells can carry a link-layer broadcast frame.
            broadcast_tx: list[int] = []
            #: ``(offset, shared)`` of every cell that can carry a unicast
            #: frame to *any* neighbor (shared neighbor-less cells, e.g.
            #: Orchestra's common cell), in planning order.
            anycast_tx: list[tuple] = []
            #: neighbor id -> ``(offset, shared)`` of its dedicated cells.
            neighbor_tx: dict[int, list[tuple]] = {}
            for offset in used:
                for cell in sf.cells_at_offset(offset):
                    if not cell.is_tx:
                        continue
                    # Mirror _packet_for_cell: which queued packet kinds could
                    # this cell carry?
                    neighbor = cell.neighbor
                    if cell.is_broadcast:
                        broadcast_tx.append(offset)
                        if cell.is_shared and neighbor is None:
                            anycast_tx.append((offset, True))
                    elif neighbor is None:
                        anycast_tx.append((offset, cell.is_shared))
                    else:
                        neighbor_tx.setdefault(neighbor, []).append((offset, cell.is_shared))
            marks = [0] * length
            for offset in rx_offsets:
                marks[offset] = 1
            prefix = list(accumulate(marks, initial=0))
            self._frames.append(
                (length, rx_offsets, prefix, broadcast_tx, anycast_tx, neighbor_tx)
            )
        self.has_rx = any(frame[1] for frame in self._frames)
        self._single = len(self._frames) == 1
        self._rx_incexc = None if self._single else self._build_rx_incexc()

    def _build_rx_incexc(self) -> Optional[list[tuple]]:
        """Inclusion-exclusion terms for counting multi-slotframe RX slots.

        The node's RX occurrences are a union of arithmetic progressions
        (one per RX offset per slotframe).  For a handful of progressions the
        union size over any window is a signed sum over their pairwise /
        higher CRT intersections, each itself a progression -- giving an O(1)
        :meth:`count_idle_listen` independent of the window length.  Returns
        ``None`` when there are too many progressions (fall back to the
        walk).
        """
        progressions: list[tuple] = []
        seen = set()
        for frame in self._frames:
            length, rx_offsets = frame[0], frame[1]
            for offset in rx_offsets:
                key = (offset % length, length)
                if key not in seen:
                    seen.add(key)
                    progressions.append(key)
        if not progressions or len(progressions) > self.MAX_INCEXC_PROGRESSIONS:
            return None
        # merged[mask] = the intersection progression of the chosen subset
        # (or None when empty); standard subset DP over the lowest set bit.
        count = len(progressions)
        merged: list[Optional[tuple]] = [None] * (1 << count)
        terms: list[tuple] = []
        for mask in range(1, 1 << count):
            low = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            if rest == 0:
                merged[mask] = progressions[low]
            elif merged[rest] is not None:
                merged[mask] = _intersect_progressions(merged[rest], progressions[low])
            if merged[mask] is not None:
                sign = 1 if bin(mask).count("1") % 2 else -1
                terms.append((sign, merged[mask][0], merged[mask][1]))
        return terms

    def next_tx_asn(self, asn: int, key: tuple) -> Optional[int]:
        """Earliest ASN >= ``asn`` at which a queued packet could be sent.

        ``key`` is the queue's :meth:`TschEngine.queue_signature`: whether a
        broadcast frame is pending, and the sorted unicast link destinations.
        A cell counts when :meth:`TschEngine._packet_for_cell` could match one
        of those packets to it; CSMA back-off state is deliberately ignored,
        which only makes the answer conservative (earlier), never wrong.
        """
        table = self._tx_tables.get(key)
        if table is None:
            table = self._tx_table(key)
            self._tx_tables[key] = table
        best: Optional[int] = None
        for length, offsets in table:
            occurrence = next_offset_occurrence(asn, length, offsets)
            if occurrence is not None and (best is None or occurrence < best):
                best = occurrence
        return best

    def _tx_table(self, key: tuple) -> list[tuple]:
        """Per slotframe, the sorted offsets whose TX cells match ``key``."""
        has_broadcast, destinations = key
        table: list[tuple] = []
        for length, _, _, broadcast_tx, anycast_tx, neighbor_tx in self._frames:
            offsets = set(broadcast_tx) if has_broadcast else set()
            if destinations:
                offsets.update(offset for offset, _ in anycast_tx)
                for destination in destinations:
                    offsets.update(offset for offset, _ in neighbor_tx.get(destination, ()))
            if offsets:
                table.append((length, sorted(offsets)))
        return table

    def shared_contention_progressions(self, destination: int) -> Optional[list[tuple]]:
        """TX opportunities of a unicast-only, single-destination backlog.

        Returns ``[(offset, length, cells)]`` arithmetic progressions -- one
        per slot offset with at least one matching TX cell, with ``cells``
        the number of matching cells the planning scan visits there -- or
        ``None`` when pruning is unsound because some matching cell is not
        shared (a dedicated or anycast cell without the SHARED option
        transmits regardless of CSMA state, so the back-off window does not
        gate the node's next transmission).

        Only valid for the queue signature the kernel checked: no broadcast
        frame pending and every queued unicast addressed to ``destination``
        -- exactly then does every matching cell resolve its packet (and its
        CSMA state) to that one destination.  Memoised per destination;
        treat the list as read-only.
        """
        if destination not in self._contention:
            self._contention[destination] = self._contention_progressions(destination)
        return self._contention[destination]

    def _contention_progressions(self, destination: int) -> Optional[list[tuple]]:
        # The unicast-match rule of TschEngine._packet_for_cell for a queue
        # holding only unicast frames to ``destination``: its anycast cells
        # and the cells dedicated to it, counted per offset.
        progressions: list[tuple] = []
        for length, _, _, _, anycast_tx, neighbor_tx in self._frames:
            merged: dict[int, int] = {}
            for cells in (anycast_tx, neighbor_tx.get(destination, ())):
                for offset, shared in cells:
                    if not shared:
                        return None
                    merged[offset] = merged.get(offset, 0) + 1
            for offset, count in merged.items():
                progressions.append((offset, length, count))
        return progressions

    @staticmethod
    def _count_residues(prefix: list[int], length: int, start_asn: int, end_asn: int) -> int:
        """Count ASNs in [start_asn, end_asn) whose residue is marked in ``prefix``."""
        span = end_asn - start_asn
        full, rem = divmod(span, length)
        count = full * prefix[length]
        start = start_asn % length
        if start + rem <= length:
            count += prefix[start + rem] - prefix[start]
        else:
            count += (prefix[length] - prefix[start]) + prefix[start + rem - length]
        return count

    def count_idle_listen(self, start_asn: int, end_asn: int) -> int:
        """Number of ASNs in [start_asn, end_asn) where this node idle-listens.

        Only valid over windows the kernel has proven transmission-free: the
        node listens exactly when any of its active cells has the RX option.
        """
        if not self.has_rx:
            return 0
        if self._single:
            length, _, prefix = self._frames[0][:3]
            return self._count_residues(prefix, length, start_asn, end_asn)
        if self._rx_incexc is not None:
            # Union of few arithmetic progressions: signed sum over their CRT
            # intersections, O(1) in the window length.
            total = 0
            for sign, offset, period in self._rx_incexc:
                total += sign * _count_progression(offset, period, start_asn, end_asn)
            return total
        # Many progressions: walk the merged arithmetic progressions of RX
        # occurrences, deduplicating ASNs covered by several frames.  Costs
        # O(listen slots), independent of the window length.
        heads: list[list[int]] = []
        for frame in self._frames:
            length, rx_offsets = frame[0], frame[1]
            for offset in rx_offsets:
                occurrence = start_asn + (offset - start_asn) % length
                if occurrence < end_asn:
                    heads.append([occurrence, length])
        count = 0
        previous = -1
        while heads:
            best_index = 0
            best = heads[0][0]
            for index in range(1, len(heads)):
                if heads[index][0] < best:
                    best = heads[index][0]
                    best_index = index
            if best != previous:
                count += 1
                previous = best
            head = heads[best_index]
            head[0] += head[1]
            if head[0] >= end_asn:
                heads.pop(best_index)
        return count


@dataclass
class MacStats:
    """Link-layer counters exposed to the metrics layer."""

    unicast_tx_packets: int = 0
    unicast_tx_attempts: int = 0
    unicast_acked: int = 0
    mac_drops: int = 0
    broadcast_sent: int = 0
    frames_received: int = 0
    collisions_observed: int = 0


class TschEngine:
    """Slot-by-slot TSCH MAC machine for one node."""

    def __init__(self, node_id: int, config: TschConfig, rng: random.Random) -> None:
        self.node_id = node_id
        self.config = config
        self.rng = rng
        self.hopping = ChannelHopping(config.hopping_sequence)
        self.queue = TxQueue(capacity=config.queue_capacity)
        self.csma = CsmaBackoff(
            rng, min_be=config.min_backoff_exponent, max_be=config.max_backoff_exponent
        )
        self.duty_cycle = DutyCycleMeter()
        self.etx = EtxEstimator(alpha=config.etx_alpha, initial_etx=config.initial_etx)
        self.stats = MacStats()
        self.slotframes: dict[int, Slotframe] = {}
        #: Monotonic counter covering every schedule mutation: any cell
        #: installed or removed in any slotframe, and any slotframe added or
        #: removed, strictly increases it once the ``on_schedule_change``
        #: hook has returned.  Derived facts (the :class:`ScheduleProfile`,
        #: the network's TX-horizon stamps) compare it to decide whether they
        #: are stale.
        self.schedule_version = 0
        #: Invoked before every schedule mutation applies, while the schedule
        #: and :attr:`schedule_version` are still the old ones; the network
        #: hooks this to settle the node's deferred CSMA and duty-cycle state
        #: under the schedule that held until now.
        self.on_schedule_change: Optional[Callable[[], None]] = None
        #: Invoked after every MAC-queue mutation (packet accepted, removed,
        #: or re-addressed); the network hooks this to maintain its backlog
        #: index (the set of nodes that could possibly transmit), so the
        #: slot-skipping kernel never scans idle nodes for queued packets.
        self.on_queue_change: Optional[Callable[[], None]] = None
        #: Monotonic counter covering every MAC-queue mutation; paired with
        #: :attr:`schedule_version` it guards the kernel's cached per-node
        #: "next possible transmission" horizon.
        self.queue_version = 0
        #: Memoised :meth:`queue_signature` and the queue version it was
        #: computed at.
        self._signature: tuple[bool, tuple] = (False, ())
        self._signature_version = -1
        #: ASN up to which this node's duty-cycle accounting is complete.
        #: Owned by the network's dispatch kernel: every slot in
        #: ``[duty_accounted_asn, clock.asn)`` is credited lazily in bulk by
        #: :meth:`settle_duty_cycle` as the idle-listen or sleep slot of the
        #: node's (constant-over-the-window) schedule.  The kernel corrects
        #: the meter in advance for the slots in that range that deviate from
        #: it (transmissions, decoded frames; see :meth:`listens_lazily`).
        self.duty_accounted_asn = 0
        #: Slotframes sorted by handle (the planning precedence order).
        self._frames: Optional[list[Slotframe]] = None
        #: True switches :meth:`plan_slot` to the reference planner: a fresh
        #: per-slot gather-and-sort of the active cells and a TX scan even
        #: with an empty queue (the naive loop's ground truth; plans are
        #: identical either way, only the cost differs).
        self.reference_planner = False
        self._hop_period = len(self.hopping.sequence)
        self._profile: Optional[ScheduleProfile] = None
        #: Neighbors towards which *data* transmissions on shared cells are
        #: temporarily suppressed.  A scheduling function sets this while it
        #: awaits a 6P response from that neighbor: the response arrives on
        #: the same shared cells, so the node must spend them listening rather
        #: than pushing data (control frames are still allowed through).
        #: Changed only through :meth:`add_quiet_neighbor`,
        #: :meth:`discard_quiet_neighbor` and :meth:`clear_quiet_neighbors`,
        #: which invalidate the kernel's deferred CSMA settlement.
        self._quiet: set[int] = set()
        #: Armed bulk-settlement record of the slot-skipping kernel:
        #: ``(start_asn, destination, progressions, tx_asn)``.  While
        #: armed, the node's backlog is provably gated behind shared-cell
        #: CSMA back-off: every pass over a matching shared cell in
        #: ``[start_asn, tx_asn)`` counts the window down without any other
        #: effect, so those slots need not be planned -- the pass-bys are
        #: credited in one integer step by :meth:`settle_csma` before the
        #: node is next planned or its queue/schedule/quiet state changes.
        self._csma_deferral: Optional[tuple] = None
        #: Number of over-the-air attempts already spent on each queued packet.
        self._attempts: dict[int, int] = {}
        #: Cold-start join state: while True the node is *unsynchronised* --
        #: it has no schedule, draws no RNG, and spends every slot listening
        #: on the scan channel (a pure function of the ASN) waiting for an
        #: Enhanced Beacon.  Checked first in :meth:`plan_slot`, and by
        #: :meth:`settle_duty_cycle`, whose bulk credit for a scanning window
        #: is all idle-listen instead of the schedule-derived listen/sleep
        #: split.
        self._scanning = False
        #: Interned scan plans, one per physical channel (the scan plan is a
        #: pure function of the scan channel).
        self._scan_plan_cache: dict[int, SlotPlan] = {}
        #: Upper-layer callback invoked with (packet, asn) for every decoded frame.
        self.rx_callback: Optional[Callable[[Packet, int], None]] = None
        #: Upper-layer callback invoked with (packet, success, asn) when a
        #: unicast packet leaves the MAC (delivered or dropped after retries).
        self.tx_done_callback: Optional[Callable[[Packet, bool, int], None]] = None

    # ------------------------------------------------------------------
    # slotframe management (used by scheduling functions)
    # ------------------------------------------------------------------
    def add_slotframe(self, handle: int, length: int) -> Slotframe:
        """Create (or return the existing) slotframe with the given handle."""
        if handle in self.slotframes:
            existing = self.slotframes[handle]
            if existing.length != length:
                raise ValueError(
                    f"slotframe {handle} already exists with length {existing.length}"
                )
            return existing
        slotframe = Slotframe(handle, length)
        slotframe.on_change = self._on_schedule_mutated
        self._on_schedule_mutated()
        self.slotframes[handle] = slotframe
        self._frames = None
        return slotframe

    def get_slotframe(self, handle: int) -> Optional[Slotframe]:
        return self.slotframes.get(handle)

    def remove_slotframe(self, handle: int) -> None:
        slotframe = self.slotframes.get(handle)
        if slotframe is not None:
            self._on_schedule_mutated()
            del self.slotframes[handle]
            slotframe.on_change = None
            self._frames = None

    def clear_schedule(self) -> None:
        """Remove every slotframe (used when re-initialising a scheduler)."""
        self._on_schedule_mutated()
        for slotframe in self.slotframes.values():
            slotframe.on_change = None
        self.slotframes.clear()
        self._frames = None

    # ------------------------------------------------------------------
    # schedule facts (used by plan_slot and the slot-skipping kernel)
    # ------------------------------------------------------------------
    def _on_schedule_mutated(self) -> None:
        """Settle before a schedule mutation applies, then record it.

        The network's hook runs first, while :meth:`schedule_profile` still
        describes the schedule that held over the node's deferred window;
        the version bump after it makes the next profile query rebuild.
        """
        if self.on_schedule_change is not None:
            self.on_schedule_change()
        self.schedule_version += 1

    def _sorted_frames(self) -> list[Slotframe]:
        frames = self._frames
        if frames is None:
            frames = [self.slotframes[handle] for handle in sorted(self.slotframes)]
            self._frames = frames
        return frames

    def _active_cells(self, asn: int) -> list[Cell]:
        """Active cells at ``asn`` in planning order.

        Ordered by GT-TSCH purpose priority, then slotframe handle, then
        insertion order.  Almost always at most one slotframe has cells at
        the ASN, and its bucket (:meth:`Slotframe.cells_at`, kept in
        planning order) is the answer; otherwise the non-empty buckets,
        concatenated in handle order, are stably sorted by priority.  Treat
        as read-only: the single-slotframe answer is the slotframe's own
        list.
        """
        if self.reference_planner:
            active: list[Cell] = []
            for handle in sorted(self.slotframes):
                # list() preserves the original cells_at contract (a fresh
                # list per call), keeping the reference loop cost-faithful.
                active.extend(list(self.slotframes[handle].cells_at(asn)))
            active.sort(
                key=lambda c: (c.purpose.priority, c.slotframe_handle, c.slot_offset)
            )
            return active
        active = _NO_CELLS
        merged = False
        for frame in self._sorted_frames():
            cells = frame.cells_at(asn)
            if cells:
                if active:
                    active = active + cells
                    merged = True
                else:
                    active = cells
        if merged:
            active.sort(key=planning_priority)
        return active

    def listen_channel(self, asn: int) -> Optional[int]:
        """Physical channel this node idle-listens on at ``asn`` (None = sleep).

        Only valid where the slot cannot involve the node's queue: no queued
        packet matches a TX cell active at ``asn`` (the dispatch kernel's
        horizon heap names every node with one), or an armed CSMA deferral
        has already credited this slot's losing pass
        (:meth:`absorb_deferred_pass`).  The decision then reduces to "first
        RX cell in planning order, if any".  Planning order is purpose priority, then slotframe
        handle, so that cell is the lowest-priority entry of the slotframes'
        listen tables (:meth:`Slotframe.listen_at`, indexed here directly),
        the earliest handle winning ties.  Exactly :meth:`plan_slot`'s
        fall-through listen/sleep choice, without allocating a plan.
        """
        frames = self._frames
        if frames is None:
            frames = self._sorted_frames()
        best: Optional[ListenEntry] = None
        for frame in frames:
            entry = frame._listen[asn % frame.length]
            if entry is not None and (best is None or entry[0] < best[0]):
                best = entry
        if best is None:
            return None
        return self.hopping.sequence[(asn + best[1]) % self._hop_period]

    def schedule_profile(self) -> ScheduleProfile:
        """Current :class:`ScheduleProfile` (rebuilt when the schedule changes)."""
        version = self.schedule_version
        profile = self._profile
        if profile is None or profile.version != version:
            profile = ScheduleProfile(self._sorted_frames(), version)
            self._profile = profile
        return profile

    def listens_lazily(self, asn: int) -> bool:
        """Whether deferred settling credits ``asn`` as idle-listen, not sleep.

        True while scanning, else when an RX cell is active at ``asn`` (any
        slotframe's listen table has an entry there) -- the credit
        :meth:`settle_duty_cycle` will give the slot as long as the schedule
        stays as it is now.  The dispatch kernel corrects a TX or busy-RX
        slot against it at the end of that slot.
        """
        if self._scanning:
            return True
        frames = self._frames
        if frames is None:
            frames = self._sorted_frames()
        for frame in frames:
            if frame._listen[asn % frame.length] is not None:
                return True
        return False

    def settle_duty_cycle(self, asn: int) -> None:
        """Credit the deferred window ``[duty_accounted_asn, asn)`` in bulk.

        Every slot in the window is credited as the current schedule spends
        it: idle-listening where it has an active RX cell, sleeping
        everywhere else.  The kernel guarantees the schedule was constant
        over the window -- every mutation settles through this method
        before it applies -- and has already corrected the meter for the
        window's TX and busy-RX slots (see :meth:`listens_lazily`), so
        integer bulk credits make the meter bit-identical to per-slot
        recording.
        """
        accounted = self.duty_accounted_asn
        if accounted >= asn:
            return
        meter = self.duty_cycle
        window = asn - accounted
        if self._scanning:
            # Every scan slot is an idle listen (the reference loop records
            # record_rx(False) for each); slots in which the scanner decoded
            # a frame were corrected by NodeStateStore.account_rx_frames.
            idle = window
        else:
            idle = self.schedule_profile().count_idle_listen(accounted, asn)
        meter.rx_slots += idle
        meter.idle_listen_slots += idle
        meter.sleep_slots += window - idle
        meter.total_slots += window
        self.duty_accounted_asn = asn

    # ------------------------------------------------------------------
    # cold-start EB scan (unsynchronised join)
    # ------------------------------------------------------------------
    @property
    def scanning(self) -> bool:
        """Whether this node is in the unsynchronised EB-scan state."""
        return self._scanning

    def scan_channel(self, asn: int) -> int:
        """Physical channel the scanner parks on at ``asn``.

        A pure function of the ASN (no RNG, no state): the scanner dwells
        ``scan_dwell_slots`` slots per channel and walks the hopping
        sequence, so it eventually coincides with any periodic beacon's
        hopping phase.  Both slot loops compute the identical channel.
        """
        dwell = self.config.scan_dwell_slots
        return int(self.hopping.sequence[(asn // dwell) % self._hop_period])

    def scan_plan(self, asn: int) -> SlotPlan:
        """The scanning node's plan for ``asn``: listen on the scan channel."""
        channel = self.scan_channel(asn)
        plan = self._scan_plan_cache.get(channel)
        if plan is None:
            plan = SlotPlan(action="rx", cell=None, channel=channel)
            self._scan_plan_cache[channel] = plan
        return plan

    def begin_scan(self, asn: int) -> None:
        """Enter the EB scan at ``asn`` (idempotent).

        The deferred duty window accumulated under the previous state is
        settled first (callers that just tore a schedule down have already
        settled through the mutation barrier, making this a no-op), then
        every subsequent slot is accounted as a scan idle-listen.
        """
        if self._scanning:
            return
        self.settle_duty_cycle(asn)
        self._scanning = True

    def end_scan(self, asn: int) -> None:
        """Leave the EB scan at ``asn`` (first EB decoded -- idempotent).

        Settles the scan window ``[duty_accounted_asn, asn)`` as idle-listen
        before flipping the flag: the sync slot ``asn`` itself is credited by
        the caller's normal busy-RX accounting (both loops account it as a
        received frame), and any schedule the node installs next starts its
        deferred window at ``asn`` exactly.
        """
        if not self._scanning:
            return
        self.settle_duty_cycle(asn)
        self._scanning = False

    # ------------------------------------------------------------------
    # deferred shared-cell contention (used by the slot-skipping kernel)
    # ------------------------------------------------------------------
    def plan_csma_deferral(self, asn: int) -> Optional[int]:
        """Arm (or report) a bulk CSMA settlement; returns the true TX ASN.

        When every transmission opportunity of the current backlog is a
        *shared* cell towards one destination whose back-off window is still
        open, the node provably skips the next ``window`` matching cell
        passes -- each a pure integer countdown -- and transmits at the first
        pass with the window expired.  That ASN is returned (the kernel heaps
        it as the node's horizon) and the settlement record is armed so the
        skipped passes are credited exactly once.  ``None`` means the node is
        not prunable (broadcast pending, several destinations, a non-shared
        matching cell, quiet suppression, or no open window) and the kernel
        must fall back to the conservative CSMA-blind horizon.
        """
        deferral = self._csma_deferral
        if deferral is not None:
            if deferral[3] >= asn:
                # Still armed (nothing invalidated it): the horizon holds.
                return deferral[3]
            # A deferral should never outlive its TX slot (the kernel steps
            # it); settle defensively and rebuild from live state below.
            self.settle_csma(asn)
        has_broadcast, destinations = self.queue_signature()
        if has_broadcast or len(destinations) != 1:
            return None
        (destination,) = destinations
        if destination in self._quiet:
            return None
        window = self.csma.window(destination)
        if window <= 0:
            return None
        progressions = self.schedule_profile().shared_contention_progressions(destination)
        if not progressions:
            # None: a non-shared matching cell makes pruning unsound;
            # empty: no matching cell at all (no horizon either way).
            return None
        if len(progressions) == 1:
            # Single progression (e.g. 6TiSCH minimal's lone shared cell):
            # each occurrence consumes ``count`` window units, so the
            # transmission lands exactly ``window // count`` occurrences
            # after the next one -- the closed form of the walk below.
            offset, length, count = progressions[0]
            first = asn + (offset - asn) % length
            tx_asn = first + (window // count) * length
            self._csma_deferral = (asn, destination, progressions, tx_asn)
            return tx_asn
        # Walk the merged occurrence slots until the window runs out.  The
        # planning scan counts one pass per matching cell, and the first
        # matching cell reached with the window at zero transmits -- possibly
        # in the same slot that consumed the window's last unit.
        remaining = window
        cursor = asn
        while True:
            best: Optional[int] = None
            cells = 0
            for offset, length, count in progressions:
                occurrence = cursor + (offset - cursor) % length
                if best is None or occurrence < best:
                    best = occurrence
                    cells = count
                elif occurrence == best:
                    cells += count
            if cells > remaining:
                tx_asn = best
                break
            remaining -= cells
            cursor = best + 1
        self._csma_deferral = (asn, destination, progressions, tx_asn)
        return tx_asn

    def settle_csma(self, asn: int) -> None:
        """Credit the armed deferral's skipped cell passes up to ``asn``.

        Called before anything that could observe or perturb the back-off
        state: planning this node's slot (the current slot's pass is then
        counted live by the scan), or a queue/schedule/quiet mutation (the
        countdown model was derived under the pre-mutation state, which held
        for every strictly earlier slot).  Clears the record and re-dirties
        the kernel's horizon through the queue hook.
        """
        deferral = self._csma_deferral
        if deferral is None:
            return
        self._csma_deferral = None
        start, destination, progressions, tx_asn = deferral
        end = asn if asn < tx_asn else tx_asn
        if end > start:
            skipped = 0
            for offset, length, count in progressions:
                skipped += count * _count_progression(offset, length, start, end)
            if skipped:
                self.csma.settle_skips(destination, skipped)
        self.mark_queue_mutated()

    def _advance_csma_deferral(self, credit_until: int, new_start: int) -> None:
        """Re-anchor the armed deferral without tearing it down.

        Credits the contention passes in ``[start, credit_until)`` and moves
        the record's anchor to ``new_start``, keeping it armed.  The deferred
        TX slot is invariant under live counting (each occurrence consumes
        one window unit either way), so the heaped horizon and its version
        stamps remain valid and no recomputation cascades.
        """
        start, destination, progressions, tx_asn = self._csma_deferral
        if credit_until > start:
            skipped = 0
            for offset, length, count in progressions:
                skipped += count * _count_progression(offset, length, start, credit_until)
            if skipped:
                self.csma.settle_skips(destination, skipped)
        self._csma_deferral = (new_start, destination, progressions, tx_asn)

    def absorb_deferred_pass(self, asn: int) -> None:
        """Credit the armed deferral through ``asn``; the caller skips planning.

        Only valid while ``asn`` precedes the deferred TX slot: every
        matching cell at ``asn`` is then provably a losing shared-cell pass
        (a pure window decrement), and the plan's outcome is exactly the
        idle listen/sleep fall-through -- so the dispatch loop reads the
        node's slot from :meth:`listen_channel` without running the TX scan.
        """
        self._advance_csma_deferral(asn + 1, asn + 1)

    # ------------------------------------------------------------------
    # quiet shared neighbors (used by scheduling functions)
    # ------------------------------------------------------------------
    # A membership change makes the contention model stale.  It propagates
    # through the queue-mutation hook: the network settles the armed
    # deferral (quiet skips do not count the window down, so the credit must
    # stop at the mutation instant) and recomputes the horizon.  A call that
    # changes nothing notifies nobody.
    def add_quiet_neighbor(self, neighbor: int) -> None:
        """Keep data off the shared cells towards ``neighbor``."""
        if neighbor not in self._quiet:
            self._quiet.add(neighbor)
            self.mark_queue_mutated()

    def discard_quiet_neighbor(self, neighbor: int) -> None:
        """Let data use the shared cells towards ``neighbor`` again."""
        if neighbor in self._quiet:
            self._quiet.discard(neighbor)
            self.mark_queue_mutated()

    def clear_quiet_neighbors(self) -> None:
        """Lift every quiet suppression (schedule teardown)."""
        if self._quiet:
            self._quiet.clear()
            self.mark_queue_mutated()

    # ------------------------------------------------------------------
    # queue interface (used by the node / upper layers)
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float = 0.0) -> bool:
        """Add a packet to the MAC queue; returns False on queue loss."""
        packet.enqueued_at = now
        accepted = self.queue.add(packet)
        if accepted:
            self._attempts.setdefault(packet.packet_id, 0)
            self.mark_queue_mutated()
        return accepted

    def mark_queue_mutated(self) -> None:
        """Record a queue mutation and propagate it to the network kernel.

        Called internally after enqueue/dequeue; the node also calls it after
        re-addressing queued packets on a parent switch (the packet set is
        unchanged but the destinations the kernel's horizon cache was computed
        from are not).
        """
        self.queue_version += 1
        if self.on_queue_change is not None:
            self.on_queue_change()

    def _dequeue(self, packet: Packet) -> None:
        """Remove ``packet`` after delivery or drop, notifying the backlog index."""
        self.queue.remove(packet)
        self._attempts.pop(packet.packet_id, None)
        self.mark_queue_mutated()

    def flush_queue(self, destination: Optional[int] = None) -> list[Packet]:
        """Drop every queued packet -- or only those link-addressed to
        ``destination`` -- returning the flushed packets in queue order.

        The fault-injection flush policy: a crashing node loses its whole
        queue with the device, and a survivor flushes traffic addressed to
        a dead neighbor instead of burning retries on it.  Loss accounting
        is the caller's responsibility (the MAC does not know *why* it is
        flushing); retry state is forgotten here so a packet id reused
        after a reboot starts from a clean attempt count.  The single
        mutation notification keeps the kernel's CSMA settlement and
        backlog index exact.
        """
        flushed = [
            packet
            for packet in self.queue
            if destination is None or packet.link_destination == destination
        ]
        for packet in flushed:
            self.queue.remove(packet)
            self._attempts.pop(packet.packet_id, None)
        if flushed:
            self.mark_queue_mutated()
        return flushed

    def queue_length(self) -> int:
        """Current number of queued packets (the game's ``q_i(t)``)."""
        return len(self.queue)

    def queue_signature(self) -> tuple[bool, tuple]:
        """``(has_broadcast, sorted unicast destinations)`` of the queue.

        Memoised per :attr:`queue_version`; the network kernel uses it to
        decide which TX cells could carry the current backlog without
        walking the queue on every slot.  Hashable: it keys the memo of
        :meth:`ScheduleProfile.next_tx_asn`.
        """
        if self._signature_version != self.queue_version:
            has_broadcast = False
            destinations: set = set()
            # Iterate the backing deque directly: TxQueue.__iter__ snapshots
            # into a list (callers may mutate mid-iteration), which this
            # read-only signature scan does not need.
            for packet in self.queue._queue:
                destination = packet.link_destination
                if destination == BROADCAST_ADDRESS:
                    has_broadcast = True
                else:
                    destinations.add(destination)
            self._signature = (has_broadcast, tuple(sorted(destinations)))
            self._signature_version = self.queue_version
        return self._signature

    def data_queue_length(self) -> int:
        """Number of queued application-data packets."""
        return len(self.queue.data_packets())

    # ------------------------------------------------------------------
    # slot planning
    # ------------------------------------------------------------------
    def plan_slot(self, asn: int) -> SlotPlan:
        """Decide what this node does at ``asn``.

        Precedence (matching Contiki-NG):

        1. a transmission, if any active cell with the TX option has a
           matching pending packet (and, for shared cells, the CSMA back-off
           window has expired);
        2. otherwise a reception, if any active cell has the RX option;
        3. otherwise sleep.

        Ties between cells are broken by GT-TSCH purpose priority, then by
        slotframe handle.  Both planners run the one scan below; the fast
        one reads the slotframes' priority-ordered buckets and skips the TX
        scan when the queue is empty.
        """
        if self._scanning:
            # Unsynchronised: no schedule, no queue scan -- park on the scan
            # channel.  Checked first by BOTH planners so the two loops agree
            # slot for slot.
            return self.scan_plan(asn)
        deferral = self._csma_deferral
        if deferral is not None:
            # The kernel deferred this node's shared-cell countdown; credit
            # the passes strictly before this slot so the scan below sees
            # exactly the back-off state the per-slot loop would have.  A
            # plan before the deferred TX slot keeps the record armed (the
            # countdown model still holds); the TX slot itself retires it.
            if asn < deferral[3]:
                self._advance_csma_deferral(asn, asn + 1)
            else:
                self.settle_csma(asn)
        return self._plan_slot_impl(asn)

    def _plan_slot_impl(self, asn: int) -> SlotPlan:
        active = self._active_cells(asn)
        if not active:
            return SLEEP_PLAN

        tx_choice: Optional[tuple[Cell, Packet]] = None
        # An empty queue cannot feed any TX cell; skip straight to listening
        # (the reference planner scans every cell, as the seed loop did).
        cells_to_scan = active if (len(self.queue) or self.reference_planner) else ()
        for cell in cells_to_scan:
            if not cell.is_tx:
                continue
            packet = self._packet_for_cell(cell)
            if packet is None:
                continue
            if cell.is_shared and not packet.is_broadcast:
                if packet.link_destination in self._quiet and not packet.is_control:
                    # Awaiting a 6P response from this neighbor: keep the
                    # shared cells free (and our radio listening) for it.
                    continue
                if not self.csma.can_transmit(packet.link_destination):
                    # An eligible shared cell passes by unused: count down.
                    self.csma.on_shared_cell_skipped(packet.link_destination)
                    continue
            tx_choice = (cell, packet)
            break

        if tx_choice is not None:
            cell, packet = tx_choice
            channel = self.hopping.channel_for(asn, cell.channel_offset)
            return SlotPlan(action="tx", cell=cell, packet=packet, channel=channel)

        for cell in active:
            if cell.is_rx:
                channel = self.hopping.channel_for(asn, cell.channel_offset)
                return SlotPlan(action="rx", cell=cell, channel=channel)

        return SLEEP_PLAN

    def _packet_for_cell(self, cell: Cell) -> Optional[Packet]:
        """Pick the queued packet (if any) that this TX cell may carry."""
        if cell.is_broadcast:
            packet = self.queue.peek_for(None, broadcast=True)
            if packet is not None:
                return packet
            # Orchestra's common shared cell also carries unicast control
            # traffic (DAOs) when no broadcast frame is pending.
            if cell.is_shared and cell.neighbor is None:
                return self.queue.peek_for(None)
            return None
        return self.queue.peek_for(cell.neighbor)

    def build_intent(self, plan: SlotPlan) -> TransmissionIntent:
        """Turn a TX slot plan into a medium-level transmission intent."""
        if not plan.is_tx or plan.packet is None or plan.channel is None:
            raise ValueError("build_intent requires a TX plan")
        return TransmissionIntent(
            sender=self.node_id,
            packet=plan.packet,
            channel=plan.channel,
            expects_ack=not plan.packet.is_broadcast,
        )

    # ------------------------------------------------------------------
    # outcome handling
    # ------------------------------------------------------------------
    def on_transmission_result(self, plan: SlotPlan, result: TransmissionResult, asn: int) -> None:
        """Process the medium's verdict for a transmission made this slot."""
        packet = plan.packet
        cell = plan.cell
        if packet is None or cell is None:
            return

        if packet.is_broadcast:
            # Broadcast frames are fire-and-forget: one attempt, no ACK.
            self._dequeue(packet)
            self.stats.broadcast_sent += 1
            return

        destination = packet.link_destination
        attempts = self._attempts.get(packet.packet_id, 0) + 1
        self._attempts[packet.packet_id] = attempts
        self.stats.unicast_tx_attempts += 1
        if result.collided:
            self.stats.collisions_observed += 1

        if result.acked:
            self._dequeue(packet)
            self.stats.unicast_tx_packets += 1
            self.stats.unicast_acked += 1
            self.etx.record_tx(destination, True, attempts=attempts)
            if cell.is_shared:
                self.csma.on_transmission_success(destination)
            if self.tx_done_callback is not None:
                self.tx_done_callback(packet, True, asn)
            return

        # Transmission failed (no ACK): back off on shared cells, retry until
        # the retransmission budget (Table II: 4) is exhausted.
        packet.retransmissions += 1
        if cell.is_shared:
            self.csma.on_transmission_failure(destination)
        if attempts >= 1 + self.config.max_retries:
            self._dequeue(packet)
            self.stats.unicast_tx_packets += 1
            self.stats.mac_drops += 1
            self.etx.record_tx(destination, False, attempts=attempts)
            if self.tx_done_callback is not None:
                self.tx_done_callback(packet, False, asn)

    def on_frame_received(self, packet: Packet, asn: int) -> None:
        """Handle a frame decoded by this node's radio."""
        self.stats.frames_received += 1
        if self.rx_callback is not None:
            self.rx_callback(packet, asn)

    # ------------------------------------------------------------------
    # duty-cycle accounting (driven by the network loop)
    # ------------------------------------------------------------------
    def account_slot(self, plan: SlotPlan, frame_received: bool = False) -> None:
        """Record this slot's radio activity for the duty-cycle metric."""
        if plan.is_tx:
            self.duty_cycle.record_tx()
        elif plan.is_rx:
            self.duty_cycle.record_rx(frame_received)
        else:
            self.duty_cycle.record_sleep()

    # ------------------------------------------------------------------
    # schedule introspection helpers (used by scheduling functions)
    # ------------------------------------------------------------------
    def count_cells(
        self,
        options: Optional[CellOption] = None,
        neighbor: Optional[int] = None,
        purpose: Optional[CellPurpose] = None,
    ) -> int:
        """Total matching cells across all slotframes."""
        return sum(
            sf.count_cells(options=options, neighbor=neighbor, purpose=purpose)
            for sf in self.slotframes.values()
        )

    def all_cells(self) -> list[Cell]:
        cells: list[Cell] = []
        for handle in sorted(self.slotframes):
            cells.extend(self.slotframes[handle].all_cells())
        return cells
