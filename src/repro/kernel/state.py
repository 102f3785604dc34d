"""The dispatch kernel's two bulk duty-cycle writers.

:mod:`repro.net.network` credits the duty-cycle meters of many nodes in one
call in two places: settling deferred idle-listen/sleep windows, and
correcting one decoded frame per receiver.  Both are plain loops over the
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
        """Correct each engine's meter for the frame it decoded at ``asn``.

        Slot ``asn`` stays in each node's deferred window, whose settlement
        will credit it as idle-listen or sleep
        (:meth:`~repro.mac.tsch.TschEngine.listens_lazily`, read at the end
        of the slot).  Adding the difference to ``record_rx(True)`` now makes
        the settled meter equal the per-slot loop's; no window is settled and
        no watermark moves.  Engines must be unique within one call (a node
        decodes at most one frame per slot).
        """
        for engine in engines:
            meter = engine.duty_cycle
            if engine.listens_lazily(asn):
                meter.idle_listen_slots -= 1
            else:
                meter.rx_slots += 1
                meter.sleep_slots -= 1
