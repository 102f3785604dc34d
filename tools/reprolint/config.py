"""Rule configuration for reprolint.

The determinism contract of this repository (see ``docs/determinism.md``) is
enforced by seven rules, most of which are parameterised by repo-specific
tables: which module owns the RNG registry, which classes carry version
counters and which of their fields are tracked, which modules hold per-slot
hot classes, and which integer counters must never see float arithmetic.

Keeping the tables here -- as plain data, separate from the rule visitors --
means the shipped defaults describe *this* repository while tests (and future
subsystems) can lint synthetic trees with their own tables.

All module references are path suffixes with forward slashes
(``"repro/sim/rng.py"``); a linted file matches when its normalised path ends
with the suffix.  This keeps the tables independent of the checkout location
and of ``src/`` layout vs installed-package layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class VersionedClass:
    """RL004 table entry: fields whose mutations must bump a version hook.

    A class may carry several entries, each pairing its fields with their
    own bumps, so a method that mutates a field of one entry and calls only
    another entry's bump is still reported.

    Attributes
    ----------
    tracked_fields:
        Instance attributes (container fields) whose mutation invalidates
        derived caches.  Mutation means re-assignment, item assignment or
        deletion, or calling a mutating container method on the field (or on
        a local alias of it / of one of its items).
    bump_names:
        Names that count as "the bump" for these fields: a method of
        ``self`` that is called (``self._mutated()``) or an attribute of
        ``self`` that is assigned or augmented (``self.version += 1``).
    """

    tracked_fields: tuple[str, ...]
    bump_names: tuple[str, ...]


def _default_versioned_classes() -> dict[str, tuple[VersionedClass, ...]]:
    return {
        # Every cell add/remove must call Slotframe._mutated, which fires
        # on_change up to the TSCH engine and the network kernel before the
        # change; the per-offset listen table changes only with the cells.
        "Slotframe": (VersionedClass(("_table", "_listen"), ("_mutated",)),),
        "TschEngine": (
            # Slotframe membership changes must propagate a schedule mutation.
            VersionedClass(("slotframes",), ("_on_schedule_mutated",)),
            # Quiet-set changes must reach the network through the queue hook,
            # which settles an armed CSMA deferral.
            VersionedClass(("_quiet",), ("mark_queue_mutated",)),
        ),
    }


@dataclass(frozen=True)
class LintConfig:
    """All knobs of the reprolint rules, defaulted for this repository."""

    # -- RL001: all randomness through RngRegistry named streams -----------
    #: The only module allowed to import :mod:`random`.
    rng_module: str = "repro/sim/rng.py"

    # -- RL002: no wall-clock reads in simulation code ---------------------
    #: Modules allowed to read the host clock (CLI timing around runs).
    wallclock_allowed_modules: tuple[str, ...] = ("repro/experiments/__main__.py",)
    #: Banned attribute reads per module alias.
    wallclock_banned_attrs: frozenset[str] = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
            "clock",
            "sleep",
            "now",
            "utcnow",
            "today",
        }
    )

    # -- RL003: no unordered-set iteration in RNG/event-scheduling modules -
    #: Package prefixes whose modules draw RNG or schedule events.
    set_iteration_packages: tuple[str, ...] = (
        "repro/net/",
        "repro/mac/",
        "repro/phy/",
        "repro/sim/",
        "repro/faults/",
        "repro/kernel/",
        "repro/schedulers/",
        "repro/sixtop/",
        "repro/core/",
    )
    #: Zero-argument methods known (cross-module) to return a set/frozenset.
    known_set_returning_methods: frozenset[str] = frozenset({"audience_of"})
    #: Call consumers whose result does not depend on iteration order.
    order_insensitive_consumers: frozenset[str] = frozenset(
        {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
    )
    #: Call consumers that materialise iteration order (flagged like ``for``).
    order_sensitive_consumers: frozenset[str] = frozenset(
        {"list", "tuple", "iter", "enumerate", "reversed"}
    )

    # -- RL004: invalidation discipline on versioned classes ---------------
    versioned_classes: dict[str, tuple[VersionedClass, ...]] = field(
        default_factory=_default_versioned_classes
    )
    #: Container methods that mutate their receiver in place.
    mutating_methods: frozenset[str] = frozenset(
        {
            "append",
            "extend",
            "insert",
            "remove",
            "pop",
            "popitem",
            "clear",
            "add",
            "discard",
            "update",
            "setdefault",
            "sort",
            "reverse",
            "difference_update",
            "intersection_update",
            "symmetric_difference_update",
        }
    )

    # -- RL005: __slots__ on per-slot hot classes --------------------------
    #: Modules whose classes are allocated/touched on the per-slot hot path.
    slots_modules: tuple[str, ...] = (
        "repro/mac/cell.py",
        "repro/mac/queue.py",
        "repro/mac/duty_cycle.py",
        "repro/net/packet.py",
        "repro/phy/dynamic.py",
        "repro/sim/events.py",
        "repro/kernel/state.py",
        "repro/schedulers/msf.py",
        "repro/schedulers/debras.py",
        "repro/schedulers/otf.py",
        "repro/sixtop/messages.py",
        "repro/sixtop/negotiation.py",
    )
    #: Base classes that exempt a class from the __slots__ requirement
    #: (enum members live on the class; exceptions are cold by definition; a
    #: ``typing.NamedTuple`` class is a tuple with a generated ``__slots__ = ()``).
    slots_exempt_bases: frozenset[str] = frozenset(
        {
            "Enum",
            "IntEnum",
            "Flag",
            "IntFlag",
            "Exception",
            "BaseException",
            "Protocol",
            "NamedTuple",
        }
    )

    # -- RL006: integer counters stay integer ------------------------------
    #: Modules whose settle/bulk-accounting paths touch the counters below.
    int_counter_modules: tuple[str, ...] = (
        "repro/mac/duty_cycle.py",
        "repro/mac/tsch.py",
        "repro/mac/csma.py",
        "repro/net/network.py",
        "repro/kernel/state.py",
    )
    #: Attribute names of integer duty-cycle / CSMA settlement counters.
    int_counter_attrs: frozenset[str] = frozenset(
        {
            "tx_slots",
            "rx_slots",
            "idle_listen_slots",
            "sleep_slots",
            "total_slots",
            "duty_accounted_asn",
            "window",
            "exponent",
        }
    )


DEFAULT_CONFIG = LintConfig()
