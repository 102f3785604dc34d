"""ETX estimation from unicast transmission outcomes.

The GT-TSCH game uses the Expected Transmission Count (ETX) of the link to the
preferred parent as its link-quality signal (Eq. (4): ``ETX = 1 / PRR``).  On
real motes ETX is estimated from unicast transmission outcomes (ACK received
or not); this module reproduces the Contiki-NG ``link-stats`` behaviour: an
exponentially weighted moving average over per-transmission outcomes, seeded
with a configurable initial guess for fresh links.
"""

from __future__ import annotations

#: Contiki-NG expresses ETX in fixed point with a divisor of 128; we keep
#: floating point but bound the estimate the same way (1..16 transmissions).
ETX_MIN = 1.0
ETX_MAX = 16.0


class EtxEstimator:
    """EWMA-based ETX estimator over unicast transmission outcomes.

    Parameters
    ----------
    alpha:
        EWMA weight given to the previous estimate (Contiki-NG uses 90 %
        "old" / 10 % "new" per transmission batch; we apply it per attempt).
    initial_etx:
        Estimate used before any feedback is available.  Contiki-NG
        initialises fresh links at 2 transmissions.
    """

    def __init__(self, alpha: float = 0.9, initial_etx: float = 2.0) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        if not ETX_MIN <= initial_etx <= ETX_MAX:
            raise ValueError("initial_etx must lie within [ETX_MIN, ETX_MAX]")
        self.alpha = alpha
        self.initial_etx = initial_etx
        self._etx: dict[int, float] = {}

    def etx(self, neighbor: int) -> float:
        """Current ETX estimate for the link towards ``neighbor``."""
        return self._etx.get(neighbor, self.initial_etx)

    def record_tx(self, neighbor: int, success: bool, attempts: int = 1) -> float:
        """Record the outcome of one unicast transmission (with retries).

        ``attempts`` is the number of over-the-air transmissions it took to
        either receive an ACK (``success=True``) or give up
        (``success=False``).  Returns the updated ETX estimate.
        """
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        # The instantaneous sample is the number of attempts this packet
        # needed; a failed packet is penalised as if it needed one more
        # attempt than the retry limit allowed.
        sample = float(attempts if success else attempts + 1)
        sample = min(max(sample, ETX_MIN), ETX_MAX)
        previous = self._etx.get(neighbor, self.initial_etx)
        updated = self.alpha * previous + (1.0 - self.alpha) * sample
        self._etx[neighbor] = min(max(updated, ETX_MIN), ETX_MAX)
        return self._etx[neighbor]
