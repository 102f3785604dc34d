"""The scheduler-plugin registry: one source of truth for scheduler names.

A scheduler registers itself once::

    from repro.schedulers.registry import register_scheduler

    @register_scheduler("MySF")
    def _build_my_sf(contiki):
        config = MySfConfig(slotframe_length=contiki.gt_slotframe_length)
        return lambda node_id, is_root: MySfScheduler(config)

and every consumer -- scenario construction (whose nodes keep the factory
for their reboots), CLI validation, cache fingerprints -- resolves through
:func:`resolve` / :func:`available`.  Registering names a scheduler; it
does not enlist it in any figure.  The default line-ups are data of the
figure table (``PAPER_LINEUP`` / ``ROBUSTNESS_LINEUP`` in
:mod:`repro.experiments.runner`), so a plugin runs only where it is asked
for, e.g. ``--schedulers MySF``.

A **builder** maps the experiment-wide protocol configuration (duck-typed:
any object with the :class:`~repro.experiments.scenarios.ContikiConfig`
attributes the scheduler needs) to a per-node **factory**
``(node_id, is_root) -> SchedulingFunction``.  The factory is called once
per node and again on every reboot (a keepalive desync, a fault-injected
rejoin or arrival), so builders that want per-node fresh config objects
should construct them inside the factory.

Import-cycle contract: this module (and the whole :mod:`repro.schedulers`
package) must stay importable without :mod:`repro.experiments` -- builders
see the Contiki configuration duck-typed, never by import.  Registration of
GT-TSCH (which lives in :mod:`repro.core.scheduler` and itself imports
:mod:`repro.schedulers.base`) defers its import to the builder body for the
same reason.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import SchedulingFunction

#: ``factory(node_id, is_root) -> SchedulingFunction`` -- called per node.
SchedulerFactory = Callable[[int, bool], "SchedulingFunction"]
#: ``builder(contiki) -> factory`` -- called once per scenario.
SchedulerBuilder = Callable[[Any], SchedulerFactory]

#: name -> builder.
_REGISTRY: dict[str, SchedulerBuilder] = {}


def register_scheduler(name: str) -> Callable[[SchedulerBuilder], SchedulerBuilder]:
    """Class/function decorator registering a scheduler builder under ``name``.

    Registering an already-taken name is an error -- two plugins silently
    shadowing each other would make scenario fingerprints ambiguous.
    """

    def decorator(builder: SchedulerBuilder) -> SchedulerBuilder:
        if name in _REGISTRY:
            raise ValueError(f"scheduler {name!r} is already registered")
        _REGISTRY[name] = builder
        return builder

    return decorator


def resolve(name: str) -> SchedulerBuilder:
    """The builder registered under ``name``.

    Raises ``ValueError`` naming every registered scheduler, so the CLI and
    the scenarios report the same (auto-generated) list of valid names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from: {', '.join(available())}"
        ) from None


def available() -> list[str]:
    """Sorted names of every registered scheduler."""
    return sorted(_REGISTRY)

