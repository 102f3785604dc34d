"""Application traffic generators.

The paper's workload axis is the per-node data generation rate in packets per
minute (ppm): Fig. 8 sweeps 30-165 ppm per node, Figs. 9-10 fix 120 ppm.  Two
generators are provided:

* :class:`PeriodicTrafficGenerator` -- constant-bit-rate generation with a
  small random jitter so nodes do not fire in lockstep (the behaviour of the
  periodic sensing applications used in the paper's experiments);
* :class:`PoissonTrafficGenerator` -- exponentially distributed inter-arrival
  times, useful for burstier ablation studies.

Generators call back into the node (``node.generate_data()``); the node
decides the destination (its DODAG root) and handles queueing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.events import EventQueue, PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node


class TrafficGenerator:
    """Base class for application-level packet generators.

    Generation rides a :class:`~repro.sim.events.PeriodicTimer`; every tick
    asks the node for a packet, and the node declines while it has not
    joined a DODAG or while the experiment's drain phase has disabled
    generation.
    """

    def __init__(self, rate_ppm: float, start_delay_s: float = 0.0) -> None:
        if rate_ppm < 0:
            raise ValueError("rate_ppm must be non-negative")
        if start_delay_s < 0:
            raise ValueError("start_delay_s must be non-negative")
        self.rate_ppm = rate_ppm
        #: Seconds to wait before the first packet -- scenarios use this to
        #: let the network form (DODAG + schedule negotiation) before load is
        #: applied, matching the paper's steady-state measurements.
        self.start_delay_s = start_delay_s
        self.node: Optional["Node"] = None
        self.queue: Optional[EventQueue] = None
        self.rng = None
        self.enabled = True
        #: Number of generation events fired (whether or not the packet was
        #: accepted by the queue).
        self.generated = 0
        self._timer: Optional[PeriodicTimer] = None

    @property
    def period_s(self) -> float:
        """Mean inter-packet interval in seconds."""
        if self.rate_ppm == 0:
            return float("inf")
        return 60.0 / self.rate_ppm

    def attach(self, node: "Node", queue: EventQueue, rng) -> None:
        self.node = node
        self.queue = queue
        self.rng = rng

    def start(self) -> None:
        """Schedule the first generation event."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop generating new packets (existing queue contents still drain).

        Cancels the underlying timer outright rather than letting it die on
        its next tick: a stop/start cycle (node crash + reboot) must never
        leave a zombie timer armed next to the fresh one ``start`` creates.
        """
        self.enabled = False
        if self._timer is not None:
            self._timer.stop()

    def _start_timer(self, first_offset: float) -> None:
        """Arm the shared periodic machinery with the subclass's period draw."""
        self._timer = PeriodicTimer(
            self.queue,
            self.period_s,
            self._fire,
            start_offset=first_offset,
            label="app-traffic",
            period_fn=self._draw_interval,
        )
        self._timer.start()

    def _fire(self):
        if not self.enabled or self.node is None:
            # Returning False stops the timer: the naive chain equally died
            # here by not rescheduling itself.
            return False
        self.generated += 1
        self.node.generate_data()
        return None

    def _draw_interval(self) -> float:
        raise NotImplementedError


class PeriodicTrafficGenerator(TrafficGenerator):
    """Constant-rate generation with uniform jitter around the nominal period."""

    def __init__(
        self, rate_ppm: float, jitter_fraction: float = 0.1, start_delay_s: float = 0.0
    ) -> None:
        super().__init__(rate_ppm, start_delay_s=start_delay_s)
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must lie in [0, 1)")
        self.jitter_fraction = jitter_fraction

    def start(self) -> None:
        if self.rate_ppm == 0 or self.queue is None:
            return
        self.enabled = True
        # Random phase so all nodes do not generate in the same slot.
        self._start_timer(self.start_delay_s + self.rng.random() * self.period_s)

    def _draw_interval(self) -> float:
        jitter = 1.0 + self.jitter_fraction * (2.0 * self.rng.random() - 1.0)
        return self.period_s * jitter


class PoissonTrafficGenerator(TrafficGenerator):
    """Poisson arrivals with the given mean rate."""

    def start(self) -> None:
        if self.rate_ppm == 0 or self.queue is None:
            return
        self.enabled = True
        self._start_timer(self.start_delay_s + self._draw_interval())

    def _draw_interval(self) -> float:
        return self.rng.expovariate(1.0 / self.period_s)
