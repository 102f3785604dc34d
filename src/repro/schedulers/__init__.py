"""TSCH scheduling functions and the scheduler-plugin registry.

Every scheduler in this repository -- the paper's GT-TSCH contribution
(:mod:`repro.core.scheduler`), the Orchestra baseline
(:mod:`repro.schedulers.orchestra`), the 6TiSCH minimal configuration
(:mod:`repro.schedulers.minimal`) and the adaptive baselines MSF
(:mod:`repro.schedulers.msf`), DeBrAS (:mod:`repro.schedulers.debras`) and
OTF (:mod:`repro.schedulers.otf`) -- implements the
:class:`repro.schedulers.base.SchedulingFunction` interface and only installs
or removes cells; the TSCH MAC, RPL and 6P machinery underneath is shared,
which keeps performance comparisons apples-to-apples.

Schedulers are selected by name through
:mod:`repro.schedulers.registry`: the new modules self-register on import
(see ``@register_scheduler`` at the bottom of each), while GT-TSCH --
which lives outside this package -- and the two pre-registry baselines are
registered below.  Which of them a figure compares by default is data of
the figure table (:mod:`repro.experiments.runner`), not of registration.  Import-cycle contract: this package must stay importable
without :mod:`repro.experiments` (builders receive the Contiki configuration
duck-typed) and without :mod:`repro.core` at module level
(``repro.core.scheduler`` imports :mod:`repro.schedulers.base`, so GT-TSCH's
builder defers its import to first use).
"""

from typing import Any

from repro.schedulers import registry
from repro.schedulers.base import SchedulingFunction
from repro.schedulers.debras import DebrasConfig, DebrasScheduler
from repro.schedulers.minimal import MinimalScheduler, MinimalSchedulerConfig
from repro.schedulers.msf import MsfConfig, MsfScheduler
from repro.schedulers.orchestra import OrchestraConfig, OrchestraScheduler
from repro.schedulers.otf import OtfConfig, OtfScheduler
from repro.schedulers.registry import register_scheduler

__all__ = [
    "SchedulingFunction",
    "registry",
    "register_scheduler",
    "OrchestraScheduler",
    "OrchestraConfig",
    "MinimalScheduler",
    "MinimalSchedulerConfig",
    "MsfScheduler",
    "MsfConfig",
    "DebrasScheduler",
    "DebrasConfig",
    "OtfScheduler",
    "OtfConfig",
]


@register_scheduler("GT-TSCH")
def _build_gt_tsch(contiki: Any) -> Any:
    # Deferred import: repro.core.scheduler imports repro.schedulers.base,
    # so importing it while this package initialises would be a cycle.
    from repro.core.scheduler import GtTschScheduler

    return lambda node_id, is_root: GtTschScheduler(contiki.gt_tsch_config())


@register_scheduler(OrchestraScheduler.name)
def _build_orchestra(contiki: Any) -> Any:
    return lambda node_id, is_root: OrchestraScheduler(contiki.orchestra_config())


@register_scheduler(MinimalScheduler.name)
def _build_minimal(contiki: Any) -> Any:
    return lambda node_id, is_root: MinimalScheduler(MinimalSchedulerConfig())
