"""The dispatch kernel's two bulk duty-cycle writers.

:mod:`repro.net.network` credits the duty-cycle meters of many nodes in one
call in two places: settling deferred idle-listen/sleep windows, and
crediting one received frame per receiver.  Both are plain loops over the
nodes' TSCH engines, kept as methods of one class so that a tracer can wrap
and count the bulk calls by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mac.tsch import TschEngine


class NodeStateStore:
    """Bulk duty-cycle settlement over many nodes' meters."""

    __slots__ = ()

    def settle_idle_rx(self, engines: list[TschEngine], idles: list[int], asn: int) -> None:
        """Credit deferred duty windows for many nodes at once.

        For each ``engines[i]``: ``idles[i]`` idle-listen slots, the rest of
        its window ``[duty_accounted_asn, asn)`` asleep, watermark advanced
        to ``asn``.  Semantically identical to one ``record_rx(False)`` /
        ``record_sleep`` call per slot (the meter's integer counters make
        bulk and one-by-one crediting indistinguishable).
        """
        for engine, idle in zip(engines, idles):
            meter = engine.duty_cycle
            window = asn - engine.duty_accounted_asn
            meter.rx_slots += idle
            meter.idle_listen_slots += idle
            meter.sleep_slots += window - idle
            meter.total_slots += window
            engine.duty_accounted_asn = asn

    def account_rx_frames(self, engines: list[TschEngine], asn: int) -> None:
        """Account one frame-received slot for each engine, eagerly.

        Equivalent to per-node ``DutyCycleMeter.record_rx(True)`` plus
        advancing each watermark to ``asn + 1``; engines must be unique
        within one call (a node decodes at most one frame per slot), and
        callers settle each node's deferred window *before* this credit.
        """
        for engine in engines:
            meter = engine.duty_cycle
            meter.rx_slots += 1
            meter.total_slots += 1
            engine.duty_accounted_asn = asn + 1
