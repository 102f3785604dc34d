"""Epoch-varying link quality: the dynamic-medium policy.

Every static scenario freezes the :class:`~repro.phy.medium.Medium` once and
runs against one immutable PRR table — the least production-like regime.  A
:class:`DynamicMediumPolicy` describes a *seeded epoch schedule* of per-link
PRR perturbations layered on top of the frozen tables: at every epoch
boundary a fresh per-link scale-vector table is drawn from a stream derived
purely from ``(policy seed, epoch index)`` and applied through
:meth:`~repro.phy.medium.Medium.set_link_prr_scales`, which re-freezes the
PRR rows from the pristine ones without unfreezing the medium.  After the
last epoch the pristine rows are restored bit-exactly.

Determinism contract: the epoch boundaries are ordinary
:class:`~repro.sim.events.EventQueue` callbacks at absolute times, drained at
slot boundaries by both slot loops through the same ``run_until`` calls, and
each epoch's table is a pure function of the policy — no state is carried
between epochs and no draw depends on the simulation's own streams.  The
fast kernel therefore stays bit-identical to ``step_slot_reference`` under
link drift (proven by ``TestDynamicEquivalence``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random  # reprolint: disable=RL001

    from repro.net.network import Network

__all__ = ["DynamicMediumPolicy", "DynamicMediumDriver", "default_drift_policy"]


@dataclass(frozen=True)
class DynamicMediumPolicy:
    """A seeded schedule of per-link PRR perturbation epochs.

    ``num_epochs`` epochs of ``epoch_s`` seconds start at ``start_s``; during
    epoch ``i`` every directed link is, with probability ``link_fraction``,
    scaled by a factor drawn uniformly from ``[scale_low, scale_high]`` (the
    rest keep scale 1.0).  Draws come from a stream named after the epoch
    index in a registry seeded by ``seed`` alone, so the schedule is a pure
    function of the policy — independent of the simulation seed, the slot
    loop, and of anything the network does.  After the last epoch the medium
    returns to its pristine frozen tables.

    The class is frozen and slotted: it is part of the scenario fingerprint
    (the result cache hashes its fields) and must never mutate mid-run.
    """

    __slots__ = (
        "seed",
        "start_s",
        "epoch_s",
        "num_epochs",
        "scale_low",
        "scale_high",
        "link_fraction",
    )

    seed: int
    start_s: float
    epoch_s: float
    num_epochs: int
    scale_low: float
    scale_high: float
    link_fraction: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.start_s) or self.start_s < 0.0:
            raise ValueError(f"start_s must be finite and >= 0, got {self.start_s}")
        if not math.isfinite(self.epoch_s) or self.epoch_s <= 0.0:
            raise ValueError(f"epoch_s must be finite and positive, got {self.epoch_s}")
        if self.num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1, got {self.num_epochs}")
        if not 0.0 < self.scale_low <= self.scale_high <= 1.0:
            raise ValueError(
                "scales must satisfy 0 < scale_low <= scale_high <= 1, got "
                f"[{self.scale_low}, {self.scale_high}]"
            )
        if not 0.0 <= self.link_fraction <= 1.0:
            raise ValueError(
                f"link_fraction must be in [0, 1], got {self.link_fraction}"
            )

    def __reduce__(self) -> tuple[type[DynamicMediumPolicy], tuple[object, ...]]:
        # Pickle through the constructor: the default slotted-object
        # protocol restores each field with setattr, which a frozen
        # dataclass refuses, so pool workers could not receive a policy.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    def end_s(self) -> float:
        """Absolute time at which the last epoch closes."""
        return self.start_s + self.num_epochs * self.epoch_s


def default_drift_policy(
    seed: int = 1,
    start_s: float = 0.0,
    epoch_s: float = 5.0,
    num_epochs: int = 3,
    scale_low: float = 0.5,
    scale_high: float = 0.9,
    link_fraction: float = 0.3,
) -> DynamicMediumPolicy:
    """Build a :class:`DynamicMediumPolicy` with sensible defaults.

    The policy dataclass itself carries no field defaults (slotted frozen
    dataclasses with defaults need Python 3.10's ``slots=True``; the repo
    supports 3.9), so this factory is the ergonomic front door.
    """
    return DynamicMediumPolicy(
        seed=seed,
        start_s=start_s,
        epoch_s=epoch_s,
        num_epochs=num_epochs,
        scale_low=scale_low,
        scale_high=scale_high,
        link_fraction=link_fraction,
    )


class DynamicMediumDriver:
    """Arms one :class:`DynamicMediumPolicy` on a network's event queue."""

    __slots__ = ("network", "policy", "armed")

    def __init__(self, network: "Network", policy: DynamicMediumPolicy) -> None:
        self.network = network
        self.policy = policy
        self.armed = False

    def arm(self) -> None:
        """Schedule every epoch boundary plus the final restore (idempotent)."""
        if self.armed:
            return
        events = self.network.events
        policy = self.policy
        for index in range(policy.num_epochs):
            events.schedule(
                policy.start_s + index * policy.epoch_s,
                self._begin_epoch,
                index,
                label=f"medium-epoch.{index}",
            )
        events.schedule(policy.end_s(), self._restore, label="medium-epoch-restore")
        self.armed = True

    def draw_scale_rows(self, index: int) -> dict[int, list[float]]:
        """Epoch ``index``'s per-link scale table (pure function, no state).

        A fresh stream is derived per call from ``(policy.seed, index)``, so
        the same epoch always yields the same table regardless of which slot
        loop (or test) asks, and regardless of how often.
        """
        policy = self.policy
        rng: random.Random = RngRegistry(policy.seed).stream(f"medium.epoch.{index}")
        ids = list(self.network.medium.node_ids())
        rows: dict[int, list[float]] = {}
        for sender in ids:
            row: list[float] = []
            for _listener in ids:
                if rng.random() < policy.link_fraction:
                    row.append(rng.uniform(policy.scale_low, policy.scale_high))
                else:
                    row.append(1.0)
            rows[sender] = row
        return rows

    def _begin_epoch(self, index: int) -> None:
        metrics = self.network.metrics
        if metrics is not None:
            metrics.on_fault_injected("link-drift", self.network.events.now)
        self.network.medium.set_link_prr_scales(self.draw_scale_rows(index))

    def _restore(self) -> None:
        self.network.medium.set_link_prr_scales(None)


def arm_link_drift(
    network: "Network", policy: Optional[DynamicMediumPolicy]
) -> Optional[DynamicMediumDriver]:
    """Convenience: build + arm a driver when ``policy`` is given."""
    if policy is None:
        return None
    driver = DynamicMediumDriver(network, policy)
    driver.arm()
    return driver
