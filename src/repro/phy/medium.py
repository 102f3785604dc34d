"""Per-slot arbitration of concurrent transmissions (the radio medium).

In a TSCH network every synchronised node acts within the same timeslot, so
the medium can be resolved slot-by-slot:

1.  every node declares an *intent*: transmit a frame on a physical channel,
    listen on a physical channel, or sleep;
2.  the medium decides, for every listener, whether it decodes a frame,
    hears a collision (two or more transmitters on its channel within
    interference range), or hears nothing;
3.  for unicast frames the medium also resolves the acknowledgement sent by
    the receiver in the same slot.

The collision rules intentionally reproduce the four interference problems of
Section III of the paper (same-slot parent/child conflicts, sibling conflicts,
uncle conflicts, hidden terminals): any listener that is within interference
range of two or more simultaneous transmitters on its channel decodes
nothing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional

from repro.net.packet import BROADCAST_ADDRESS, Packet
from repro.phy.propagation import Position, PropagationModel

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001

#: Relative widening of the freeze grid's cell side over the model's reach:
#: two nodes exactly ``reach`` apart stay in neighbouring cells even when
#: rounding nudges a coordinate / cell-side quotient across a cell boundary.
_GRID_SLACK = 1e-9


class TransmissionIntent:
    """A node's decision to transmit a frame in the current slot.

    Hand-rolled ``__slots__`` class (not a dataclass): one is allocated per
    transmission on the kernel's hot path.
    """

    __slots__ = ("sender", "packet", "channel", "expects_ack")

    def __init__(
        self,
        sender: int,
        packet: Packet,
        channel: int,
        expects_ack: bool = True,
    ) -> None:
        self.sender = sender
        self.packet = packet
        self.channel = channel
        #: True when the sender expects a link-layer ACK (unicast data/6P).
        self.expects_ack = expects_ack

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TransmissionIntent(sender={self.sender}, channel={self.channel}, "
            f"packet={self.packet!r})"
        )


class TransmissionResult:
    """Outcome of one transmission intent after medium arbitration.

    ``__slots__`` class for the same hot-path reason as its intent.
    """

    __slots__ = ("intent", "receivers", "delivered", "acked", "collided")

    def __init__(
        self,
        intent: TransmissionIntent,
        receivers: Optional[list[int]] = None,
        delivered: bool = False,
        acked: bool = False,
        collided: bool = False,
    ) -> None:
        self.intent = intent
        #: Node ids that decoded the frame.
        self.receivers = [] if receivers is None else receivers
        #: Whether the intended unicast destination decoded the frame.
        self.delivered = delivered
        #: Whether the sender received the link-layer ACK (unicast only).
        self.acked = acked
        #: True when the frame was lost because of a collision at the
        #: intended destination (as opposed to channel error).
        self.collided = collided

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TransmissionResult(delivered={self.delivered}, acked={self.acked}, "
            f"collided={self.collided}, receivers={self.receivers})"
        )


class Medium:
    """The shared radio medium: positions, propagation, per-slot arbitration."""

    def __init__(
        self,
        propagation: PropagationModel,
        rng: random.Random,
        ack_prr_scale: float = 1.0,
    ) -> None:
        """
        Parameters
        ----------
        propagation:
            Model answering PRR / interference-range queries.
        rng:
            ``random.Random`` stream used for packet-loss draws.
        ack_prr_scale:
            Multiplier applied to the reverse-link PRR when resolving ACKs
            (ACK frames are short, so they often survive links that drop full
            data frames; 1.0 keeps both identical).
        """
        self.propagation = propagation
        self.rng = rng
        self.ack_prr_scale = ack_prr_scale
        self._positions: dict[int, Position] = {}
        #: Frozen tables (filled by :meth:`freeze`): node id -> registration
        #: index, and one sparse row per sender mapping, in node-index order,
        #: every listener whose PRR is > 0 or that lies within interference
        #: range to its PRR (a listener missing from the row has PRR 0.0 and
        #: hears nothing), plus the interfering subset of the row.
        self._frozen = False
        self._index_of: dict[int, int] = {}
        self._prr_rows: dict[int, dict[int, float]] = {}
        self._audience: dict[int, frozenset] = {}
        #: The pristine rows computed by :meth:`freeze`.  Link-degradation
        #: epochs install scaled copies in ``_prr_rows`` and re-install these
        #: very objects when the last epoch closes, so the pristine PRRs come
        #: back bit-exactly.
        self._prr_base_rows: dict[int, dict[int, float]] = {}
        self._prr_scale = 1.0
        #: Per-link scale epoch (dynamic medium): sender id -> multipliers
        #: aligned with the sender's row, composed on top of the scalar
        #: scale.  ``None`` means no per-link epoch is open.
        self._link_scale_rows: Optional[dict[int, list[float]]] = None
        #: Count of per-link epoch transitions since freeze().
        self._link_epoch = 0
        #: Counters for diagnostics / tests.
        self.total_transmissions = 0
        self.total_collisions = 0

    # ------------------------------------------------------------------
    # topology registration
    # ------------------------------------------------------------------
    def register_node(self, node_id: int, position: Position) -> None:
        """Register (or move) a node at ``position``; the next query re-freezes."""
        self._positions[node_id] = position
        self._frozen = False
        self._prr_scale = 1.0
        self._link_scale_rows = None
        self._link_epoch = 0

    @property
    def frozen(self) -> bool:
        """Whether the sparse PRR / interference rows are current."""
        return self._frozen

    def freeze(self) -> None:
        """Precompute every link arbitration can touch (idempotent).

        Called when the topology is final (the network does this on
        :meth:`~repro.net.network.Network.start`); any query on an unfrozen
        medium freezes it first, and registering (or moving) a node
        un-freezes it.  Nodes are bucketed into a square grid whose cell
        side is the propagation model's ``reach``, and the model's scalar
        ``prr`` / ``in_interference_range`` are called only for pairs in
        neighbouring cells: every other pair is 0.0 / False by the model's
        contract.  Freezing is therefore linear in nodes times in-range
        peers, not quadratic in nodes; a model with infinite reach puts
        every node in one cell.  Each stored value comes from the same scalar
        call a per-pair query would make, so freezing never changes results.
        """
        if self._frozen:
            return
        positions = self._positions
        index_of = {node_id: index for index, node_id in enumerate(positions)}
        reach = self.propagation.reach
        side = reach * (1.0 + _GRID_SLACK) if reach > 0.0 else math.inf
        cell_of: dict[int, tuple[int, int]] = {}
        cells: dict[tuple[int, int], list[int]] = {}
        for node_id, (x, y) in positions.items():
            cell = (math.floor(x / side), math.floor(y / side))
            cell_of[node_id] = cell
            cells.setdefault(cell, []).append(node_id)
        prr = self.propagation.prr
        in_range = self.propagation.in_interference_range
        near_cells: dict[tuple[int, int], list[int]] = {}
        rows: dict[int, dict[int, float]] = {}
        audience: dict[int, frozenset] = {}
        for a, position_a in positions.items():
            cell = cell_of[a]
            near = near_cells.get(cell)
            if near is None:
                cx, cy = cell
                near = sorted(
                    (
                        b
                        for dx in (-1, 0, 1)
                        for dy in (-1, 0, 1)
                        for b in cells.get((cx + dx, cy + dy), ())
                    ),
                    key=index_of.__getitem__,
                )
                near_cells[cell] = near
            row: dict[int, float] = {}
            heard: list[int] = []
            for b in near:
                if b == a:
                    continue
                position_b = positions[b]
                value = prr(position_a, position_b)
                audible = in_range(position_a, position_b)
                if value > 0.0 or audible:
                    row[b] = value
                    if audible:
                        heard.append(b)
            rows[a] = row
            audience[a] = frozenset(heard)
        self._index_of = index_of
        self._prr_rows = self._prr_base_rows = rows
        self._audience = audience
        self._frozen = True

    def set_prr_scale(self, scale: float) -> None:
        """Enter (or leave) a link-degradation epoch on a frozen medium.

        Installs rows of ``pristine PRR * scale`` without unfreezing:
        interference ranges, audience sets and neighbor reachability are
        untouched (``scale`` is strictly positive, so ``prr > 0`` membership
        is preserved), which keeps the dispatch kernel's audience pass valid
        across epochs.  The pristine rows come back -- the very same objects,
        bit-exact -- when the scale returns to 1.0.
        """
        if not self._frozen:
            raise RuntimeError("set_prr_scale() requires a frozen medium")
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"PRR scale must be in (0, 1], got {scale}")
        if scale == self._prr_scale:
            return
        self._prr_scale = scale
        self._recompute_scaled_rows()

    def set_link_prr_scales(
        self, scale_rows: Optional[dict[int, Sequence[float]]]
    ) -> None:
        """Enter (or, with ``None``, leave) a *per-link* scale epoch.

        The dynamic-medium policy (:mod:`repro.phy.dynamic`) perturbs
        individual links rather than the whole medium: ``scale_rows`` maps
        every sender id to a per-listener multiplier vector indexed like
        :meth:`node_ids` (values in ``(0, 1]`` so audience membership is
        preserved).  Only the entries of links the sender's row holds can
        change a PRR; every other link has PRR 0.0 whatever its scale.  The
        vectors compose multiplicatively with the scalar
        :meth:`set_prr_scale` epochs and, like them, install new rows
        computed from the pristine ones without unfreezing.
        """
        if not self._frozen:
            raise RuntimeError("set_link_prr_scales() requires a frozen medium")
        if scale_rows is None:
            if self._link_scale_rows is None:
                return
            self._link_scale_rows = None
            self._link_epoch += 1
            self._recompute_scaled_rows()
            return
        index_of = self._index_of
        width = len(index_of)
        validated: dict[int, list[float]] = {}
        for sender, row in self._prr_base_rows.items():
            values = scale_rows.get(sender)
            if values is None:
                raise ValueError(f"per-link scale rows missing sender {sender}")
            if len(values) != width:
                raise ValueError(
                    f"per-link scale row for sender {sender} has "
                    f"{len(values)} entries, expected {width}"
                )
            for value in values:
                if not 0.0 < value <= 1.0:
                    raise ValueError(
                        f"per-link PRR scale must be in (0, 1], got {value}"
                    )
            validated[sender] = [values[index_of[listener]] for listener in row]
        self._link_scale_rows = validated
        self._link_epoch += 1
        self._recompute_scaled_rows()

    def _recompute_scaled_rows(self) -> None:
        """Install the effective PRR rows: ``pristine * scalar * per-link``.

        Shared by the scalar and per-link epoch entry points.  The operand
        order of each product is part of the bit-identity contract: float
        multiplication is not associative.
        """
        base = self._prr_base_rows
        scale = self._prr_scale
        link = self._link_scale_rows
        if scale == 1.0 and link is None:
            self._prr_rows = base
        elif link is None:
            self._prr_rows = {
                sender: {listener: value * scale for listener, value in row.items()}
                for sender, row in base.items()
            }
        elif scale == 1.0:
            self._prr_rows = {
                sender: {
                    listener: value * s
                    for (listener, value), s in zip(row.items(), link[sender])
                }
                for sender, row in base.items()
            }
        else:
            self._prr_rows = {
                sender: {
                    listener: value * scale * s
                    for (listener, value), s in zip(row.items(), link[sender])
                }
                for sender, row in base.items()
            }

    @property
    def prr_scale(self) -> float:
        """The link-degradation scale currently applied (1.0 = pristine)."""
        return self._prr_scale

    @property
    def link_epoch(self) -> int:
        """Count of per-link epoch transitions applied since freeze()."""
        return self._link_epoch

    @property
    def in_link_epoch(self) -> bool:
        """Whether a per-link scale epoch is currently open."""
        return self._link_scale_rows is not None

    def audience_of(self, sender: int) -> frozenset:
        """Node ids within interference range of ``sender``.

        Exactly the listeners that could draw an RNG number or decode when
        ``sender`` transmits; everyone else provably hears nothing, which the
        network's dispatch kernel exploits to leave them unplanned.
        """
        if not self._frozen:
            self.freeze()
        return self._audience[sender]

    def position_of(self, node_id: int) -> Position:
        return self._positions[node_id]

    def node_ids(self) -> Sequence[int]:
        return tuple(self._positions)

    # ------------------------------------------------------------------
    # link queries
    # ------------------------------------------------------------------
    def link_prr(self, sender: int, receiver: int) -> float:
        """Interference-free PRR of the directed link sender -> receiver."""
        if not self._frozen:
            self.freeze()
        return self._prr_rows[sender].get(receiver, 0.0)

    def interferes(self, transmitter: int, listener: int) -> bool:
        """Whether energy from ``transmitter`` reaches ``listener`` at all."""
        if not self._frozen:
            self.freeze()
        return listener in self._audience[transmitter]

    def neighbors_of(self, node_id: int, min_prr: float = 0.0) -> list[int]:
        """Node ids with a usable link from ``node_id`` (PRR > ``min_prr``)."""
        if not self._frozen:
            self.freeze()
        return [
            other for other, prr in self._prr_rows[node_id].items() if prr > min_prr
        ]

    # ------------------------------------------------------------------
    # per-slot arbitration
    # ------------------------------------------------------------------
    def resolve_slot(
        self,
        intents: Sequence[TransmissionIntent],
        listeners: dict[int, int],
    ) -> list[TransmissionResult]:
        """Arbitrate one timeslot.

        Parameters
        ----------
        intents:
            All transmissions attempted in this slot (across all channels).
        listeners:
            Mapping ``node_id -> physical channel`` for every node whose radio
            is in receive mode this slot.  Transmitting nodes must not appear
            here (half-duplex radios).

        Each intent's sparse row names, in node-index order, the only
        listeners it can reach, so every listener's audible senders are
        gathered in work proportional to the transmitters' rows: the first
        one per listener, and the full list only where a second one on the
        same channel collides with it.  Listeners are then visited in
        ``listeners`` order for collisions, PRR draws and receiver marks, so
        the RNG stream is that of checking every listener against every
        intent.

        Returns
        -------
        One :class:`TransmissionResult` per intent, in input order.
        """
        results = [TransmissionResult(intent=intent) for intent in intents]
        self.total_transmissions += len(intents)
        if not intents:
            return results
        if not self._frozen:
            self.freeze()
        rows = self._prr_rows
        audiences = self._audience
        channel_of = listeners.get
        first: dict[int, int] = {}
        collided: dict[int, list[int]] = {}
        for index, intent in enumerate(intents):
            channel = intent.channel
            audience = audiences[intent.sender]
            for listener in rows[intent.sender]:
                if listener in audience and channel_of(listener) == channel:
                    earlier = first.setdefault(listener, index)
                    if earlier != index:
                        heard = collided.get(listener)
                        if heard is None:
                            collided[listener] = [earlier, index]
                        else:
                            heard.append(index)
        rng_random = self.rng.random
        for listener in listeners:
            sender_index = first.get(listener)
            if sender_index is None:
                continue
            heard = collided.get(listener)
            if heard is not None:
                # Two or more frames overlap at this listener: collision, the
                # listener decodes nothing.  This is exactly the failure mode
                # of problems 1-4 in Section III of the paper.
                for index in heard:
                    if intents[index].packet.link_destination in (listener, BROADCAST_ADDRESS):
                        results[index].collided = True
                self.total_collisions += 1
                continue
            intent = intents[sender_index]
            prr = rows[intent.sender][listener]
            if prr <= 0.0:
                # Energy is audible (interference range) but too weak to decode.
                continue
            if rng_random() <= prr:
                result = results[sender_index]
                result.receivers.append(listener)
                if intent.packet.link_destination == listener:
                    result.delivered = True
        self._resolve_acks(results)
        return results

    def _resolve_acks(self, results: list[TransmissionResult]) -> None:
        """Resolve ACKs for unicast frames that reached their destination."""
        for result in results:
            intent = result.intent
            if not intent.expects_ack or intent.packet.is_broadcast:
                continue
            if not result.delivered:
                continue
            destination = intent.packet.link_destination
            ack_prr = min(1.0, self.link_prr(destination, intent.sender) * self.ack_prr_scale)
            result.acked = self.rng.random() <= ack_prr
