"""Link-quality (packet reception ratio) models.

The paper's testbed uses Zolertia Firefly motes emulated in Cooja, whose
default radio medium is the Unit Disk Graph Medium (UDGM): frames are received
with a configurable success ratio inside the transmission range, and
transmissions inside the (larger) interference range corrupt concurrent
receptions.  :class:`UnitDiskLossyEdgeModel` reproduces that behaviour with an
additional lossy edge band so ETX varies smoothly with distance, which is what
drives the link-quality cost term of the GT-TSCH game (Eq. (5)).

All models answer two questions about an ordered pair of positions:

* ``prr(a, b)`` -- probability that a frame sent from ``a`` is correctly
  decoded at ``b`` in the absence of interference;
* ``in_interference_range(a, b)`` -- whether energy from a transmitter at
  ``a`` is strong enough at ``b`` to corrupt another reception (even if it is
  too weak to be decoded).

and declare their ``reach``: the distance beyond which both answers are
guaranteed to be ``0.0`` / ``False``, which bounds the pairs the medium has to
ask about at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

Position = tuple[float, float]


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two 2-D positions (metres)."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


class PropagationModel:
    """Interface for link-quality models."""

    def prr(self, a: Position, b: Position) -> float:
        """Interference-free packet reception ratio for a frame a -> b."""
        raise NotImplementedError

    def in_interference_range(self, a: Position, b: Position) -> bool:
        """Whether a transmission at ``a`` can corrupt a reception at ``b``."""
        raise NotImplementedError

    def in_communication_range(self, a: Position, b: Position) -> bool:
        """Whether a frame from ``a`` has a non-negligible chance of decoding at ``b``."""
        return self.prr(a, b) > 0.0

    @property
    def reach(self) -> float:
        """Distance beyond which ``prr`` is 0.0 and ``in_interference_range`` False.

        The medium only queries pairs at most this far apart.  ``math.inf``
        (the default, for models whose answers do not depend on distance)
        makes it query every pair.
        """
        return math.inf


@dataclass
class UnitDiskLossyEdgeModel(PropagationModel):
    """Unit-disk radio with a lossy outer edge (Cooja-UDGM-like).

    * within ``reliable_range``: PRR equals ``prr_max``;
    * between ``reliable_range`` and ``communication_range``: PRR decays
      linearly from ``prr_max`` down to ``prr_edge``;
    * beyond ``communication_range``: PRR is zero;
    * within ``interference_range`` (>= communication range): the transmitter
      still corrupts concurrent receptions at the same channel.

    Distances are in metres; the defaults model a short-range 2.4 GHz
    802.15.4 deployment comparable to the indoor layouts used in the paper.
    """

    reliable_range: float = 30.0
    communication_range: float = 45.0
    interference_range: float = 70.0
    prr_max: float = 0.97
    prr_edge: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.reliable_range <= self.communication_range <= self.interference_range):
            raise ValueError(
                "ranges must satisfy 0 < reliable <= communication <= interference"
            )
        if not (0.0 <= self.prr_edge <= self.prr_max <= 1.0):
            raise ValueError("PRRs must satisfy 0 <= prr_edge <= prr_max <= 1")

    def prr(self, a: Position, b: Position) -> float:
        d = distance(a, b)
        if d <= self.reliable_range:
            return self.prr_max
        if d >= self.communication_range:
            return 0.0
        span = self.communication_range - self.reliable_range
        fraction = (d - self.reliable_range) / span
        return self.prr_max - fraction * (self.prr_max - self.prr_edge)

    def in_interference_range(self, a: Position, b: Position) -> bool:
        return distance(a, b) <= self.interference_range

    @property
    def reach(self) -> float:
        # PRR is zero from communication_range on, which __post_init__
        # bounds by interference_range.
        return self.interference_range


@dataclass
class LogisticPrrModel(PropagationModel):
    """Smooth logistic PRR-vs-distance curve.

    ``prr(d) = prr_max / (1 + exp(steepness * (d - midpoint)))``

    Useful for experiments that need gradually degrading links (e.g. the
    link-quality ablation), where the piecewise-linear unit-disk edge would
    introduce artificial thresholds.
    """

    midpoint: float = 35.0
    steepness: float = 0.25
    prr_max: float = 0.98
    interference_range: float = 80.0
    #: PRRs below this value are clamped to zero (link considered unusable).
    prr_floor: float = 0.01

    def _curve(self, d: float) -> float:
        return self.prr_max / (1.0 + math.exp(self.steepness * (d - self.midpoint)))

    def prr(self, a: Position, b: Position) -> float:
        value = self._curve(distance(a, b))
        return value if value >= self.prr_floor else 0.0

    def in_interference_range(self, a: Position, b: Position) -> bool:
        return distance(a, b) <= self.interference_range

    @property
    def reach(self) -> float:
        if self.prr_max < self.prr_floor:
            return self.interference_range  # the curve never reaches the floor
        if self.steepness <= 0.0 or self.prr_floor <= 0.0:
            return math.inf  # the curve never falls below the floor
        # Where the curve crosses prr_floor, nudged outwards until the very
        # float evaluation prr() uses is below the floor; the curve only
        # decreases from there, so every farther pair has PRR 0.0.
        ratio = self.prr_max / self.prr_floor - 1.0
        tail = self.midpoint
        if ratio > 0.0:
            tail += math.log(ratio) / self.steepness
        step = 1e-9 * max(1.0, abs(tail))
        while self._curve(tail) >= self.prr_floor:
            tail += step
            step *= 2.0
        return max(self.interference_range, tail)


class FixedPrrModel(PropagationModel):
    """Per-link PRR table with a default, for hand-crafted topologies.

    Tests and the illustrative examples (the 7-node DAG of Fig. 6, the
    interference cases of Fig. 2) use this model to pin exact link qualities
    regardless of node positions.
    """

    def __init__(
        self,
        default_prr: float = 0.0,
        interference_pairs: Optional[set] = None,
        symmetric: bool = True,
    ) -> None:
        if not 0.0 <= default_prr <= 1.0:
            raise ValueError("default_prr must be within [0, 1]")
        self.default_prr = default_prr
        self.symmetric = symmetric
        self._links: dict[tuple[Position, Position], float] = {}
        self._interference_pairs = interference_pairs or set()
        #: Optional mapping from position to an identifier, purely cosmetic.
        self.labels: dict[Position, str] = {}

    def set_link(self, a: Position, b: Position, prr: float) -> None:
        """Set the PRR for the ordered link a -> b (and b -> a if symmetric)."""
        if not 0.0 <= prr <= 1.0:
            raise ValueError("prr must be within [0, 1]")
        self._links[(a, b)] = prr
        if self.symmetric:
            self._links[(b, a)] = prr

    def add_interference(self, a: Position, b: Position) -> None:
        """Declare that a transmitter at ``a`` interferes with receptions at ``b``."""
        self._interference_pairs.add((a, b))
        if self.symmetric:
            self._interference_pairs.add((b, a))

    def prr(self, a: Position, b: Position) -> float:
        return self._links.get((a, b), self.default_prr)

    def in_interference_range(self, a: Position, b: Position) -> bool:
        if (a, b) in self._interference_pairs:
            return True
        # Any pair that can communicate also interferes.
        return self.prr(a, b) > 0.0
