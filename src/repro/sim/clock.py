"""Simulation clock for slot-synchronous TSCH simulations.

TSCH divides time into fixed-length timeslots.  The global timeslot counter is
the Absolute Slot Number (ASN); every node in a synchronised TSCH network
shares the same ASN.  The simulator advances the clock one ASN at a time, and
all higher-level timers (traffic generation, Trickle, 6P timeouts, the
GT-TSCH load-balancing period) are expressed in seconds and resolved against
this clock at slot boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Default TSCH timeslot duration used in the paper (Table II): 15 ms.
DEFAULT_SLOT_DURATION_S = 0.015


@dataclass
class SimClock:
    """Tracks simulated time both as seconds and as a TSCH ASN.

    Parameters
    ----------
    slot_duration_s:
        Duration of a single TSCH timeslot in seconds.  The paper uses
        15 ms timeslots (Table II), which is also the Contiki-NG default for
        the CC2538-based Zolertia Firefly platform.
    """

    slot_duration_s: float = DEFAULT_SLOT_DURATION_S
    asn: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.slot_duration_s <= 0:
            raise ValueError("slot_duration_s must be positive")

    @property
    def now(self) -> float:
        """Current simulated time in seconds (start of the current slot)."""
        return self.asn * self.slot_duration_s

    def advance_slot(self) -> int:
        """Advance the clock by exactly one timeslot and return the new ASN."""
        self.asn += 1
        return self.asn

    def advance_slots(self, count: int) -> int:
        """Jump the clock forward by ``count`` timeslots and return the new ASN.

        Used by the slot-skipping simulation kernel to leap over runs of
        guaranteed-idle slots in one step.
        """
        if count < 0:
            raise ValueError("cannot advance the clock backwards")
        self.asn += count
        return self.asn

    def seconds_to_slots(self, seconds: float) -> int:
        """Convert a duration in seconds to a whole number of timeslots.

        The result is rounded to the nearest slot count with :func:`round`
        (an exact half-slot tie goes to the even count), so it may be up to
        half a slot shorter or longer than ``seconds``; a zero or negative
        duration, or one that rounds to zero slots, maps to a single slot.
        """
        if seconds <= 0:
            return 1
        slots = int(round(seconds / self.slot_duration_s))
        return max(1, slots)

    def slots_to_seconds(self, slots: int) -> float:
        """Convert a number of timeslots to seconds."""
        return slots * self.slot_duration_s

    def reset(self) -> None:
        """Reset the clock to ASN 0 (used when re-running a scenario)."""
        self.asn = 0
