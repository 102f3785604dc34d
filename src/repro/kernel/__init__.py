"""The dispatch kernel's bulk duty-cycle writers.

:mod:`repro.kernel.state` holds :class:`NodeStateStore`, whose two methods
settle the duty-cycle meters of many nodes per call for the dispatch kernel
in :mod:`repro.net.network`.
"""

from repro.kernel.state import NodeStateStore

__all__ = ["NodeStateStore"]
