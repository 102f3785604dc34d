"""Struct-of-arrays store for per-node hot state.

Profiling (EXPERIMENTS.md, "Struct-of-arrays kernel") showed the residual
per-stepped-slot cost at sparse-telemetry scale is pointer-chasing across
per-node Python objects: duty-cycle settlement walks hundreds of
``DutyCycleMeter`` instances, broadcast delivery bumps per-node ``MacStats``
one attribute at a time, and the audience pass re-reads ``alive``/``joined``
flags object by object.  This module moves those fields into contiguous
columns indexed by a dense node *row*, so the dispatch kernel can operate on
them as bulk column operations.

Layout -- one column per field, all rows allocated by :meth:`NodeStateStore.add_row`:

====================== ======= ==============================================
column                 dtype   meaning
====================== ======= ==============================================
``tx_slots``           int64   duty-cycle counters (five columns, mirrors
``rx_slots``                   :class:`repro.mac.duty_cycle.DutyCycleMeter`)
``idle_listen_slots``
``sleep_slots``
``total_slots``
``duty_accounted_asn`` int64   deferred-settlement watermark per node
``queue_len``          int64   TX-queue occupancy
``ptype_counts``       int64   2-D ``(rows, 5)``: queued packets per
                               :class:`~repro.net.packet.PacketType`
``alive``              int64   node powered (fault injector clears on crash)
``joined``             int64   RPL-joined: root, or has a preferred parent
``adv_rank``           float64 the node's own advertised rank (RPL)
``etx_version``        int64   the node's ETX estimator version stamp
``eb_phase``           float64 next EB timer fire time (-1.0 = timer idle)
``traffic_phase``      float64 next traffic-generator fire time (-1.0 = none)
``trickle_phase``      float64 next Trickle fire time (-1.0 = timer idle)
``tx_horizon``         int64   node's next potentially-TX ASN (-1 = unknown)
====================== ======= ==============================================

View contract -- the object classes (``DutyCycleMeter``, ``TxQueue``,
``TschEngine``, ``RplEngine``, ``Node``...) do **not** keep copies of these
fields: their attributes are properties reading and writing the store row, so
a mutation through either side is immediately visible on the other.  A view
constructed standalone (unit tests, pre-``add_node``) starts on a private
:class:`LocalBacking` single row and is migrated onto the shared store --
values copied, identity preserved -- by ``bind``.  Only the dispatch kernel
in :mod:`repro.net.network` may *bulk*-write columns directly; every other
writer goes through the views (see ``docs/soa.md``).

Storage is a typed contiguous buffer per column (``array.array``, int64 /
float64): scalar view access then costs the same as a plain list index and
yields native Python ints and floats.  The bulk writers are plain loops over
the same buffers, so there is never a second copy to keep coherent, and all
counters stay integers (RL006).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import PacketType

#: Dense index of each :class:`~repro.net.packet.PacketType` into the
#: ``ptype_counts`` columns, in enum declaration order (DATA, EB, DIO, DAO,
#: SIXP).  Filled lazily on first backing construction: importing
#: :mod:`repro.net.packet` here at module level would close an import cycle
#: (this module is imported by the MAC/RPL view classes, which the ``net``
#: package init pulls in).  Consumers import the dict object itself, so the
#: deferred fill is visible through every reference.
PTYPE_INDEX: "dict[PacketType, int]" = {}
#: Width of the ``ptype_counts`` columns; checked against the enum on fill.
NUM_PTYPES = 5


def _ensure_ptype_index() -> None:
    if PTYPE_INDEX:
        return
    from repro.net.packet import PacketType
    for index, ptype in enumerate(PacketType):
        PTYPE_INDEX[ptype] = index
    if len(PTYPE_INDEX) != NUM_PTYPES:  # pragma: no cover - enum drift guard
        raise RuntimeError("PacketType count drifted from NUM_PTYPES")

#: Integer columns (grown zero-filled).
_INT_COLUMNS = (
    "tx_slots",
    "rx_slots",
    "idle_listen_slots",
    "sleep_slots",
    "total_slots",
    "duty_accounted_asn",
    "queue_len",
    "alive",
    "joined",
    "etx_version",
    "tx_horizon",
)
#: Float columns (grown with the given fill).
_FLOAT_COLUMNS = ("adv_rank", "eb_phase", "traffic_phase", "trickle_phase")
_FLOAT_FILL = {"adv_rank": 0.0, "eb_phase": -1.0, "traffic_phase": -1.0, "trickle_phase": -1.0}
_INT_FILL = {"tx_horizon": -1, "alive": 1}


class LocalBacking:
    """Single-row, list-backed stand-in for a :class:`NodeStateStore` row.

    Standalone views (a ``DutyCycleMeter`` built in a unit test, a node not
    yet added to a network) read and write row 0 of one of these; ``bind``
    copies the values into the shared store and retargets the view.  The
    columns are plain one-element lists, so the view code is byte-for-byte
    identical on both backings.
    """

    __slots__ = tuple(_INT_COLUMNS) + tuple(_FLOAT_COLUMNS) + ("ptype_counts",)

    # Column attributes are created dynamically from the tables above; the
    # annotations keep static analysis aware of them.
    tx_slots: Any
    rx_slots: Any
    idle_listen_slots: Any
    sleep_slots: Any
    total_slots: Any
    duty_accounted_asn: Any
    queue_len: Any
    alive: Any
    joined: Any
    etx_version: Any
    tx_horizon: Any
    adv_rank: Any
    eb_phase: Any
    traffic_phase: Any
    trickle_phase: Any
    ptype_counts: Any

    def __init__(self) -> None:
        _ensure_ptype_index()
        for name in _INT_COLUMNS:
            setattr(self, name, [_INT_FILL.get(name, 0)])
        for name in _FLOAT_COLUMNS:
            setattr(self, name, [_FLOAT_FILL[name]])
        self.ptype_counts: Any = [[0] * NUM_PTYPES]


class NodeStateStore:
    """Struct-of-arrays store for the per-node hot state of one network.

    Rows are dense and append-only (``add_row``); node death does not free a
    row -- the ``alive`` flag is cleared instead, which keeps every view's
    row index stable for the lifetime of the network.

    Growth may reallocate the column buffers, so any code caching a raw
    column reference must refetch it when :attr:`layout_version` changes;
    the views never cache (they index through the store attribute on every
    access) and the bulk writers fetch their columns per call.
    """

    __slots__ = (
        tuple(_INT_COLUMNS)
        + tuple(_FLOAT_COLUMNS)
        + ("ptype_counts", "layout_version", "rows", "_capacity")
    )

    tx_slots: Any
    rx_slots: Any
    idle_listen_slots: Any
    sleep_slots: Any
    total_slots: Any
    duty_accounted_asn: Any
    queue_len: Any
    alive: Any
    joined: Any
    etx_version: Any
    tx_horizon: Any
    adv_rank: Any
    eb_phase: Any
    traffic_phase: Any
    trickle_phase: Any
    ptype_counts: Any

    def __init__(self, capacity: int = 64) -> None:
        _ensure_ptype_index()
        #: Bumped whenever the column storage grows (capacity change);
        #: cached raw column references are invalid across bumps.
        self.layout_version = 0
        self.rows = 0
        self._capacity = 0
        for name in _INT_COLUMNS:
            setattr(self, name, array("q"))
        for name in _FLOAT_COLUMNS:
            setattr(self, name, array("d"))
        self.ptype_counts = []
        self._allocate(max(1, capacity))

    # ------------------------------------------------------------------
    # Row allocation
    # ------------------------------------------------------------------
    def _allocate(self, capacity: int) -> None:
        """Grow every column to ``capacity`` rows (appending fill values)."""
        grow = capacity - self._capacity
        for name in _INT_COLUMNS:
            getattr(self, name).extend([_INT_FILL.get(name, 0)] * grow)
        for name in _FLOAT_COLUMNS:
            getattr(self, name).extend([_FLOAT_FILL[name]] * grow)
        self.ptype_counts.extend(array("q", [0] * NUM_PTYPES) for _ in range(grow))
        self._capacity = capacity
        self.layout_version += 1

    def add_row(self) -> int:
        """Allocate (and zero-initialise) the next node row; returns its index."""
        if self.rows >= self._capacity:
            self._allocate(self._capacity * 2)
        row = self.rows
        self.rows += 1
        return row

    # ------------------------------------------------------------------
    # Bulk writers (the dispatch kernel's duty-cycle settlement)
    # ------------------------------------------------------------------
    def settle_idle_rx(
        self, rows: "list[int]", idles: "list[int]", windows: "list[int]", asn: int
    ) -> None:
        """Credit deferred duty windows for many nodes at once.

        For each node ``rows[i]``: ``idles[i]`` idle-listen slots, the rest of
        the ``windows[i]``-slot window asleep, watermark advanced to ``asn``.
        Semantically identical to ``windows[i]`` individual
        ``record_rx(False)`` / ``record_sleep`` calls (the meter's integer
        counters make bulk and one-by-one crediting indistinguishable).
        """
        rx = self.rx_slots
        idle_col = self.idle_listen_slots
        sleep = self.sleep_slots
        total = self.total_slots
        accounted = self.duty_accounted_asn
        for row, idle, window in zip(rows, idles, windows):
            rx[row] += idle
            idle_col[row] += idle
            sleep[row] += window - idle
            total[row] += window
            accounted[row] = asn

    def account_rx_frames(self, rows: "list[int]", asn: int) -> None:
        """Account one frame-received slot for each row, eagerly.

        Equivalent to per-node ``DutyCycleMeter.record_rx(True)`` plus
        advancing each watermark to ``asn + 1``; rows must be unique within
        one call (a node decodes at most one frame per slot), and callers
        settle each node's deferred window *before* this credit.
        """
        rx = self.rx_slots
        total = self.total_slots
        accounted = self.duty_accounted_asn
        for row in rows:
            rx[row] += 1
            total[row] += 1
            accounted[row] = asn + 1


def bind_backing(
    view: Any, store: NodeStateStore, row: int, columns: "tuple[str, ...]"
) -> None:
    """Retarget a view onto ``store[row]``, copying ``columns`` across.

    Shared helper for the views' ``bind`` methods: preserves the values a
    standalone object accumulated before the network adopted it (e.g. a
    meter mutated in a test before ``add_node``).  ``ptype_counts`` (the 2-D
    column) is copied element-wise.
    """
    old = view._backing
    old_row = view._row
    if old is store and old_row == row:
        return
    for name in columns:
        if name == "ptype_counts":
            source = old.ptype_counts[old_row]
            target = store.ptype_counts[row]
            for index in range(NUM_PTYPES):
                target[index] = source[index]
        else:
            getattr(store, name)[row] = getattr(old, name)[old_row]
    view._backing = store
    view._row = row
