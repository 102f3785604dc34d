"""Per-link transmission statistics and ETX estimation.

The GT-TSCH game uses the Expected Transmission Count (ETX) of the link to the
preferred parent as its link-quality signal (Eq. (4): ``ETX = 1 / PRR``).  On
real motes ETX is estimated from unicast transmission outcomes (ACK received
or not); this module reproduces the Contiki-NG ``link-stats`` behaviour: an
exponentially weighted moving average over per-transmission outcomes, seeded
with a configurable initial guess for fresh links.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Contiki-NG expresses ETX in fixed point with a divisor of 128; we keep
#: floating point but bound the estimate the same way (1..16 transmissions).
ETX_MIN = 1.0
ETX_MAX = 16.0


@dataclass
class LinkStats:
    """Raw counters for a single directed link."""

    tx_attempts: int = 0
    tx_successes: int = 0
    rx_frames: int = 0
    last_tx_time: float = 0.0
    last_rx_time: float = 0.0

    @property
    def prr(self) -> float:
        """Empirical packet reception ratio measured from unicast attempts."""
        if self.tx_attempts == 0:
            return 0.0
        return self.tx_successes / self.tx_attempts


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
        self._stats: dict[int, LinkStats] = {}
        #: Monotonic counter bumped whenever any neighbor's ETX estimate may
        #: have changed (a transmission outcome or a reset; received frames
        #: leave the estimate untouched).  RPL's rank memoisation compares it
        #: to decide whether a reception can settle without re-ranking.
        self.version = 0
        #: Per-neighbor flavour of :attr:`version`: bumped only when *that*
        #: link's estimate may have changed, so a stale candidate rank is
        #: re-scored for exactly the dirtied neighbor.
        self.neighbor_versions: dict[int, int] = {}

    def stats(self, neighbor: int) -> LinkStats:
        """Raw counters for the link towards ``neighbor`` (created on demand)."""
        if neighbor not in self._stats:
            self._stats[neighbor] = LinkStats()
        return self._stats[neighbor]

    def etx(self, neighbor: int) -> float:
        """Current ETX estimate for the link towards ``neighbor``."""
        return self._etx.get(neighbor, self.initial_etx)

    def neighbor_version(self, neighbor: int) -> int:
        """Version of the ETX estimate towards ``neighbor`` (0 = untouched)."""
        return self.neighbor_versions.get(neighbor, 0)

    def prr(self, neighbor: int) -> float:
        """PRR implied by the current ETX estimate (Eq. (4) inverted)."""
        return 1.0 / self.etx(neighbor)

    def record_tx(self, neighbor: int, success: bool, attempts: int = 1, now: float = 0.0) -> float:
        """Record the outcome of one unicast transmission (with retries).

        ``attempts`` is the number of over-the-air transmissions it took to
        either receive an ACK (``success=True``) or give up
        (``success=False``).  Returns the updated ETX estimate.
        """
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        stats = self.stats(neighbor)
        stats.tx_attempts += attempts
        if success:
            stats.tx_successes += 1
        stats.last_tx_time = now

        # The instantaneous sample is the number of attempts this packet
        # needed; a failed packet is penalised as if it needed one more
        # attempt than the retry limit allowed.
        sample = float(attempts if success else attempts + 1)
        sample = min(max(sample, ETX_MIN), ETX_MAX)
        previous = self._etx.get(neighbor, self.initial_etx)
        updated = self.alpha * previous + (1.0 - self.alpha) * sample
        self._etx[neighbor] = min(max(updated, ETX_MIN), ETX_MAX)
        self.version += 1
        self.neighbor_versions[neighbor] = self.neighbor_versions.get(neighbor, 0) + 1
        return self._etx[neighbor]

    def record_rx(self, neighbor: int, now: float = 0.0) -> None:
        """Record a frame received from ``neighbor`` (used for neighbor freshness).

        Broadcast-heavy scenarios hit this once per decoded frame per
        receiver, so the stats entry is fetched with a plain dict get (the
        miss path allocates at most once per neighbor).
        """
        stats = self._stats.get(neighbor)
        if stats is None:
            stats = self._stats[neighbor] = LinkStats()
        stats.rx_frames += 1
        stats.last_rx_time = now

    def known_neighbors(self) -> set[int]:
        """Neighbors for which any statistic exists."""
        return set(self._stats) | set(self._etx)

    def reset(self, neighbor: int) -> None:
        """Forget everything about ``neighbor`` (e.g. after a parent switch)."""
        self._etx.pop(neighbor, None)
        self._stats.pop(neighbor, None)
        self.version += 1
        self.neighbor_versions[neighbor] = self.neighbor_versions.get(neighbor, 0) + 1
