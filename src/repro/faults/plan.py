"""Seeded fault plans: the *what-and-when* of deterministic churn.

A :class:`FaultPlan` is a pure-data description of every fault a scenario
injects: node crashes, reboots/rejoins, network-wide link-degradation
epochs and targeted parent-loss events.  Plans are built from frozen
dataclasses of scalars only, so they participate in the experiment
engine's scenario fingerprint exactly like every other knob (see
``repro/experiments/parallel.py``) -- two runs with the same seed and the
same plan are bit-identical, and changing any fault time or victim
invalidates the result cache.

The plan says nothing about *how* faults are applied; that is the
:class:`~repro.faults.injector.FaultInjector`'s job.  Keeping the two
separate means a plan can be fingerprinted, printed and asserted on
without a network in sight.

All times are absolute simulation seconds from t=0 (the experiment
pipeline runs warm-up first, so fault times normally land inside the
measurement window: ``warmup_s + delta``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.sim.rng import RngRegistry

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "LinkDegradation",
    "NodeArrival",
    "NodeCrash",
    "NodeRejoin",
    "ParentLoss",
]


@dataclass(frozen=True)
class NodeCrash:
    """Hard power-off of ``node_id`` at ``time_s``.

    The node's radio, timers and queue die instantly; the *rest* of the
    network only reacts once the crash is detected, ``detect_after_s``
    later (neighbor eviction, cell teardown, queue flush towards the dead
    node).  Roots never crash -- a plan naming a root is rejected at
    injector arm time, because a rootless DODAG has no recovery to
    measure.
    """

    time_s: float
    node_id: int
    detect_after_s: float = 2.0


@dataclass(frozen=True)
class NodeRejoin:
    """Cold reboot of a previously crashed ``node_id`` at ``time_s``.

    The node comes back with a fresh scheduling-function instance and an
    empty schedule; it warm-rejoins its pre-crash parent when that parent
    is still alive, otherwise it listens until a DIO re-attaches it.
    """

    time_s: float
    node_id: int


@dataclass(frozen=True)
class LinkDegradation:
    """Network-wide PRR epoch: every link's PRR is scaled by ``prr_scale``
    for ``duration_s`` seconds, then restored bit-exactly.

    ``prr_scale`` must be in ``(0, 1]``: strictly positive so neighbor
    reachability (PRR > 0) is preserved and the frozen medium's neighbor
    lists and interference tables stay valid, at most 1 so an epoch only
    ever degrades.  Overlapping epochs multiply.
    """

    time_s: float
    prr_scale: float
    duration_s: float


@dataclass(frozen=True)
class NodeArrival:
    """A node that is absent from slot 0 powers on at ``time_s``.

    Unlike :class:`NodeRejoin`, an arrival needs no prior crash: the node
    exists in the topology (so the frozen medium holds its links from the
    start) but is pre-marked dead at injector arm time, before the
    simulation starts.  At ``time_s`` it boots with a fresh
    scheduling-function instance and *no* DODAG state -- it either listens
    for a DIO to adopt it, or (cold-start-join scenarios) first scans for
    an Enhanced Beacon to synchronise its ASN.  Roots never arrive late; a
    plan delaying a root is rejected at injector arm time because the root
    anchors the ASN and the DODAG.
    """

    time_s: float
    node_id: int


@dataclass(frozen=True)
class ParentLoss:
    """Forced eviction of ``node_id``'s preferred parent at ``time_s``.

    Models a unidirectional link death the MAC never confirms: the node
    flushes traffic queued towards the parent (accounted as loss), drops
    the neighbor entry and re-evaluates its parent set immediately.  A
    no-op when the node is detached at fire time.
    """

    time_s: float
    node_id: int


#: ``(time_s, order, event)`` triple produced by :meth:`FaultPlan.events`.
FaultEvent = Tuple[float, int, object]

#: Stable tie-break order for events sharing a fire time: degrade the
#: medium first, then kill, then rejoin, then inject parent losses, then
#: power on late arrivals.
_EVENT_ORDER = {
    LinkDegradation: 0,
    NodeCrash: 1,
    NodeRejoin: 2,
    ParentLoss: 3,
    NodeArrival: 4,
}


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, fingerprintable set of fault events.

    Every field is a tuple of frozen scalar dataclasses, which is exactly
    the shape ``scenario_fingerprint`` canonicalises -- a plan embedded in
    a :class:`~repro.experiments.scenarios.Scenario` keys the result cache
    like any other scenario knob.
    """

    crashes: Tuple[NodeCrash, ...] = field(default_factory=tuple)
    rejoins: Tuple[NodeRejoin, ...] = field(default_factory=tuple)
    link_epochs: Tuple[LinkDegradation, ...] = field(default_factory=tuple)
    parent_losses: Tuple[ParentLoss, ...] = field(default_factory=tuple)
    arrivals: Tuple[NodeArrival, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for crash in self.crashes:
            if crash.time_s < 0.0 or crash.detect_after_s < 0.0:
                raise ValueError(f"crash times must be non-negative: {crash}")
        crashed = {crash.node_id for crash in self.crashes}
        for rejoin in self.rejoins:
            if rejoin.node_id not in crashed:
                raise ValueError(
                    f"rejoin of node {rejoin.node_id} has no matching crash"
                )
        self._validate_alternation()
        for epoch in self.link_epochs:
            if not 0.0 < epoch.prr_scale <= 1.0:
                raise ValueError(
                    f"prr_scale must be in (0, 1], got {epoch.prr_scale}"
                )
            if epoch.duration_s <= 0.0:
                raise ValueError(f"epoch duration must be positive: {epoch}")
        seen_arrivals = set()
        for arrival in self.arrivals:
            if arrival.time_s < 0.0:
                raise ValueError(f"arrival times must be non-negative: {arrival}")
            if arrival.node_id in seen_arrivals:
                raise ValueError(
                    f"node {arrival.node_id} arrives more than once"
                )
            seen_arrivals.add(arrival.node_id)
            for crash in self.crashes:
                if crash.node_id == arrival.node_id and crash.time_s < arrival.time_s:
                    raise ValueError(
                        f"node {arrival.node_id} crashes at {crash.time_s} "
                        f"before arriving at {arrival.time_s}"
                    )

    def _validate_alternation(self) -> None:
        """Per node, crashes and rejoins must alternate crash-first in time.

        Two crashes of one node without an intervening rejoin would make
        the second a silent no-op (the injector guards on ``alive``), and a
        rejoin scheduled before its crash would fire on a live node --
        either way the plan does not mean what it says, so it is rejected
        here rather than dying quietly at run time.
        """
        per_node: dict = {}
        for crash in self.crashes:
            per_node.setdefault(crash.node_id, []).append((crash.time_s, 0))
        for rejoin in self.rejoins:
            per_node.setdefault(rejoin.node_id, []).append((rejoin.time_s, 1))
        for node_id, marks in sorted(per_node.items()):
            marks.sort()
            for index, (time_s, kind) in enumerate(marks):
                expected = index % 2  # crash, rejoin, crash, ...
                if kind != expected:
                    what = "crashes" if kind == 0 else "rejoins"
                    needs = "rejoin" if kind == 0 else "crash"
                    raise ValueError(
                        f"node {node_id} {what} at {time_s} without an "
                        f"intervening {needs}; crashes and rejoins must "
                        "alternate per node"
                    )

    def events(self) -> List[FaultEvent]:
        """All plan events as ``(time_s, order, event)``, sorted.

        The ``order`` component gives same-instant events a deterministic
        relative order (see ``_EVENT_ORDER``); the injector schedules them
        through the :class:`~repro.sim.events.EventQueue` in exactly this
        sequence, so both slot loops fire them identically.
        """
        merged: List[FaultEvent] = []
        groups = (
            self.link_epochs,
            self.crashes,
            self.rejoins,
            self.parent_losses,
            self.arrivals,
        )
        for group in groups:
            for event in group:
                merged.append((event.time_s, _EVENT_ORDER[type(event)], event))
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged

    def is_empty(self) -> bool:
        return not (
            self.crashes
            or self.rejoins
            or self.link_epochs
            or self.parent_losses
            or self.arrivals
        )

    @classmethod
    def churn(
        cls,
        candidates: Sequence[int],
        *,
        seed: int = 1,
        num_crashes: int = 1,
        crash_window: Tuple[float, float] = (45.0, 70.0),
        detect_after_s: float = 2.0,
        rejoin_after_s: float = 15.0,
        degrade_at_s: float = 0.0,
        degrade_scale: float = 0.7,
        degrade_duration_s: float = 10.0,
        parent_loss_at_s: float = 0.0,
        num_arrivals: int = 0,
        arrival_window: Tuple[float, float] = (0.0, 0.0),
    ) -> "FaultPlan":
        """Build the canonical crash/rejoin/degrade churn plan.

        ``num_crashes`` victims are drawn without replacement from
        ``candidates`` (never include roots) by the dedicated ``"faults"``
        stream of :class:`~repro.sim.rng.RngRegistry`, so victim choice is
        a pure function of ``seed`` and never perturbs any simulation
        stream.  Crash times are spread evenly across ``crash_window``;
        each victim rejoins ``rejoin_after_s`` after its crash.  A single
        link-degradation epoch starts at ``degrade_at_s`` (skipped when
        0), and the first *surviving* candidate takes a parent-loss hit at
        ``parent_loss_at_s`` (skipped when 0).  ``num_arrivals`` late
        arrivals (skipped when 0) are drawn from the candidates that
        neither crash nor take the parent loss, with power-on times spread
        evenly across ``arrival_window`` -- the arrival draws happen
        *after* every legacy draw, so plans built without arrivals are
        bit-identical to plans built by older revisions.
        """
        if num_crashes > len(candidates):
            raise ValueError(
                f"cannot crash {num_crashes} of {len(candidates)} candidates"
            )
        rng = RngRegistry(seed).stream("faults")
        victims = rng.sample(list(candidates), num_crashes)
        start, end = crash_window
        span = max(0.0, end - start)
        step = span / num_crashes if num_crashes else 0.0
        crashes = tuple(
            NodeCrash(
                time_s=start + index * step,
                node_id=victim,
                detect_after_s=detect_after_s,
            )
            for index, victim in enumerate(victims)
        )
        rejoins = tuple(
            NodeRejoin(time_s=crash.time_s + rejoin_after_s, node_id=crash.node_id)
            for crash in crashes
        )
        link_epochs: Tuple[LinkDegradation, ...] = ()
        if degrade_at_s > 0.0:
            link_epochs = (
                LinkDegradation(
                    time_s=degrade_at_s,
                    prr_scale=degrade_scale,
                    duration_s=degrade_duration_s,
                ),
            )
        parent_losses: Tuple[ParentLoss, ...] = ()
        if parent_loss_at_s > 0.0:
            survivors = [node for node in candidates if node not in set(victims)]
            if survivors:
                parent_losses = (
                    ParentLoss(time_s=parent_loss_at_s, node_id=survivors[0]),
                )
        arrivals: Tuple[NodeArrival, ...] = ()
        if num_arrivals > 0:
            taken = set(victims)
            taken.update(loss.node_id for loss in parent_losses)
            pool = [node for node in candidates if node not in taken]
            if num_arrivals > len(pool):
                raise ValueError(
                    f"cannot arrive {num_arrivals} of {len(pool)} free candidates"
                )
            arrival_victims = rng.sample(pool, num_arrivals)
            arrive_start, arrive_end = arrival_window
            arrive_span = max(0.0, arrive_end - arrive_start)
            arrive_step = arrive_span / num_arrivals
            arrivals = tuple(
                NodeArrival(
                    time_s=arrive_start + index * arrive_step,
                    node_id=node,
                )
                for index, node in enumerate(arrival_victims)
            )
        return cls(
            crashes=crashes,
            rejoins=rejoins,
            link_epochs=link_epochs,
            parent_losses=parent_losses,
            arrivals=arrivals,
        )
