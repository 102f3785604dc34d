"""GT-TSCH load balancing (Section VI, Eqs. (1) and (6)).

The load-balancing algorithm runs periodically on every node and decides
whether the TSCH schedule must grow (6P ADD towards the parent) or may shrink
(6P DELETE).  Its inputs are

* ``l^g_i`` -- the Tx cells needed for the node's own packet generation,
  estimated from the application rate observed over the last period;
* ``l^tx_{cs_i}`` -- the Tx cells requested by children (every cell granted
  to a child becomes an Rx cell whose traffic must be forwarded upward);
* ``l^{tx-free}_i`` -- the node's currently spare Tx cells.

Eq. (1): ``l^{tx-min}_i = l^g_i + l^tx_{cs_i} - l^{tx-free}_i`` is the minimum
number of *additional* Tx cells the node must obtain to keep its outgoing
capacity ahead of its load; the game of Section VII then decides how many to
actually request within ``[l^{tx-min}_i, l^rx_{p_i}]``.

The queue signal entering the game is not the raw queue length but the EWMA
metric of Eq. (6), implemented by :class:`QueueMetric`, which filters out the
slot-scale burstiness of a TDMA system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from repro.core.game import ewma_queue_metric


def compute_minimum_tx_cells(
    generation_cells: int,
    child_requested_cells: int,
    free_tx_cells: int,
) -> int:
    """Eq. (1): minimum additional Tx cells needed this period.

    Negative results (more spare capacity than new demand) are clamped to
    zero: Eq. (1) feeds the lower bound of the game's strategy set, and a
    node never *requests* a negative number of cells -- shrinking the
    schedule is a separate DELETE decision driven by the over-provisioning
    check of the scheduler.
    """
    if generation_cells < 0 or child_requested_cells < 0 or free_tx_cells < 0:
        raise ValueError("cell counts cannot be negative")
    return max(0, generation_cells + child_requested_cells - free_tx_cells)


def generation_cells_per_slotframe(
    packets_per_minute: float, slotframe_length: int, slot_duration_s: float
) -> int:
    """``l^g_i``: Tx cells per slotframe needed for a given generation rate.

    A slotframe lasts ``m x t_slot`` seconds; generating ``r`` packets per
    minute therefore needs ``ceil(r/60 x m x t_slot)`` transmission
    opportunities per slotframe (each Tx cell carries one packet per
    slotframe iteration).
    """
    if packets_per_minute < 0:
        raise ValueError("packets_per_minute cannot be negative")
    if slotframe_length <= 0 or slot_duration_s <= 0:
        raise ValueError("slotframe_length and slot_duration_s must be positive")
    slotframe_duration_s = slotframe_length * slot_duration_s
    packets_per_slotframe = (packets_per_minute / 60.0) * slotframe_duration_s
    return int(math.ceil(packets_per_slotframe - 1e-9))


@dataclass
class QueueMetric:
    """The EWMA queue metric ``Q_i`` of Eq. (6)."""

    zeta: float = 0.5
    q_max: int = 8
    value: float = 0.0
    #: Number of updates applied (diagnostics).
    updates: int = field(default=0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")
        if self.q_max <= 0:
            raise ValueError("q_max must be positive")

    def update(self, queue_length: int) -> float:
        """Apply one EWMA step with the current instantaneous queue length."""
        clamped = min(max(queue_length, 0), self.q_max)
        self.value = ewma_queue_metric(self.value, float(clamped), self.zeta)
        self.updates += 1
        return self.value

    @property
    def occupancy(self) -> float:
        """``Q_i / QMax`` in [0, 1], the quantity used by the queue cost."""
        return min(max(self.value / self.q_max, 0.0), 1.0)

    def reset(self) -> None:
        self.value = 0.0
        self.updates = 0
