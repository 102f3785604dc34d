"""Radio duty-cycle accounting.

The paper reports the *radio duty cycle* -- the fraction of time the radio
transceiver is powered -- as its energy-consumption proxy (Figs. 8d, 9d,
10d), measured by Contiki-NG's Energest module on real motes.  Energest counts
actual radio-on time within each 15 ms timeslot, not whole slots:

* an idle Rx slot only keeps the radio on for the packet-wait guard time
  (TsLongGT, about 2.2 ms) before shutting it down again;
* a slot in which a frame is actually received keeps the radio on for the
  frame (up to 4.3 ms) plus the ACK turnaround;
* a transmitting slot powers the radio for the frame plus the ACK wait.

:class:`DutyCycleMeter` therefore weighs each slot by the fraction of the
slot the radio is realistically powered (the defaults below follow the
IEEE 802.15.4e timeslot template used by Contiki-NG for 15 ms slots); the raw
slot counters are kept as well for tests and diagnostics.

Only integer slot counters are accumulated; the weighted radio-on time is
derived from them on demand.  This keeps the meter exact under the simulation
kernel's deferred bulk settling (crediting ``k`` sleep or idle-listen slots
at once, see :meth:`repro.mac.tsch.TschEngine.settle_duty_cycle`, is
indistinguishable from recording them one by one), where a floating-point
accumulator would drift with the order of additions.
"""

from __future__ import annotations

#: Fraction of the timeslot the radio is on when transmitting a full frame
#: and waiting for its ACK (about 4.3 ms data + 1 ms turnaround + 2.4 ms ACK
#: window out of 15 ms).
TX_SLOT_FRACTION = 0.5
#: Fraction when receiving a frame and transmitting the ACK.
RX_SLOT_FRACTION = 0.6
#: Fraction for an idle listen: the receiver quits after the guard time
#: (TsLongGT ~2.2 ms of 15 ms).
IDLE_LISTEN_FRACTION = 0.15


class DutyCycleMeter:
    """Per-node Energest-style radio-on accounting at slot granularity."""

    __slots__ = (
        "tx_slots",
        "rx_slots",
        "idle_listen_slots",
        "sleep_slots",
        "total_slots",
        "tx_fraction",
        "rx_fraction",
        "idle_fraction",
    )

    def __init__(
        self,
        tx_slots: int = 0,
        rx_slots: int = 0,
        idle_listen_slots: int = 0,
        sleep_slots: int = 0,
        total_slots: int = 0,
        tx_fraction: float = TX_SLOT_FRACTION,
        rx_fraction: float = RX_SLOT_FRACTION,
        idle_fraction: float = IDLE_LISTEN_FRACTION,
    ) -> None:
        self.tx_slots = tx_slots
        self.rx_slots = rx_slots
        self.idle_listen_slots = idle_listen_slots
        self.sleep_slots = sleep_slots
        self.total_slots = total_slots
        self.tx_fraction = tx_fraction
        self.rx_fraction = rx_fraction
        self.idle_fraction = idle_fraction

    def _key(self) -> tuple:
        return (
            self.tx_slots,
            self.rx_slots,
            self.idle_listen_slots,
            self.sleep_slots,
            self.total_slots,
            self.tx_fraction,
            self.rx_fraction,
            self.idle_fraction,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DutyCycleMeter:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]  # mutable value semantics

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DutyCycleMeter(tx={self.tx_slots} rx={self.rx_slots} "
            f"idle={self.idle_listen_slots} sleep={self.sleep_slots} "
            f"total={self.total_slots})"
        )

    def record_tx(self) -> None:
        """The node transmitted (and listened for an ACK) this slot."""
        self.tx_slots += 1
        self.total_slots += 1

    def record_rx(self, frame_received: bool) -> None:
        """The node listened this slot; ``frame_received`` marks a decode."""
        self.rx_slots += 1
        if not frame_received:
            self.idle_listen_slots += 1
        self.total_slots += 1

    def record_sleep(self) -> None:
        """The node kept its radio off this slot."""
        self.sleep_slots += 1
        self.total_slots += 1

    @property
    def radio_on_slot_equivalents(self) -> float:
        """Accumulated radio-on time expressed in slot units (weighted)."""
        return (
            self.tx_slots * self.tx_fraction
            + (self.rx_slots - self.idle_listen_slots) * self.rx_fraction
            + self.idle_listen_slots * self.idle_fraction
        )

    @property
    def radio_on_slots(self) -> int:
        """Number of slots in which the radio was powered at all."""
        return self.tx_slots + self.rx_slots

    @property
    def duty_cycle(self) -> float:
        """Radio-on time as a fraction of elapsed time, in [0, 1]."""
        if self.total_slots == 0:
            return 0.0
        return self.radio_on_slot_equivalents / self.total_slots

    @property
    def duty_cycle_percent(self) -> float:
        """Duty cycle expressed in percent, as plotted in the paper."""
        return 100.0 * self.duty_cycle

    def snapshot(self) -> dict:
        """Plain-dict snapshot for the metrics layer."""
        return {
            "tx_slots": self.tx_slots,
            "rx_slots": self.rx_slots,
            "idle_listen_slots": self.idle_listen_slots,
            "sleep_slots": self.sleep_slots,
            "total_slots": self.total_slots,
            "radio_on_slot_equivalents": self.radio_on_slot_equivalents,
            "duty_cycle": self.duty_cycle,
        }

    def reset(self) -> None:
        """Zero all counters (used when the measurement window starts after warm-up)."""
        self.tx_slots = 0
        self.rx_slots = 0
        self.idle_listen_slots = 0
        self.sleep_slots = 0
        self.total_slots = 0
