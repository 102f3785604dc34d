"""Shared gated-numpy detection for the optional accelerator paths.

Several subsystems use :mod:`numpy` *only* as an accelerator: the
struct-of-arrays node-state store (:mod:`repro.kernel.state`) and the
experiment exporters.  None of them may
*require* it -- the package ships dependency-free and CI runs the full tier-1
suite without numpy installed -- so each used to carry its own
``try: import numpy`` block.  This module is the single shared gate.

``numpy_or_none()`` returns the imported module, or ``None`` when numpy is
unavailable **or** when the ``REPRO_NO_NUMPY=1`` escape hatch is set.  The
escape hatch lets tests exercise the pure-Python fallbacks on machines where
numpy *is* installed, which is how the equivalence suite proves the fallback
bit-identical without a second virtualenv.

The import itself is cached (numpy's import cost is paid once); the escape
hatch is re-read on every call so tests can flip it per-case with
``monkeypatch.setenv``.  Callers that treat numpy as a hard analysis
dependency rather than an optional kernel accelerator (``core/nash.py``)
pass ``ignore_disable=True``: the escape hatch is about forcing the
*fallback* paths, and modules with no fallback have nothing to force.
"""

from __future__ import annotations

import os
from types import ModuleType
from typing import Optional

_NUMPY: Optional[ModuleType] = None
_PROBED = False


def _import_numpy() -> Optional[ModuleType]:
    global _NUMPY, _PROBED
    if not _PROBED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - depends on environment
            _NUMPY = None
        else:
            _NUMPY = numpy
        _PROBED = True
    return _NUMPY


def numpy_or_none(*, ignore_disable: bool = False) -> Optional[ModuleType]:
    """Return the numpy module, or ``None`` when absent or disabled.

    ``REPRO_NO_NUMPY=1`` forces ``None`` (pure-Python fallbacks) unless the
    caller opts out with ``ignore_disable=True``.
    """
    if not ignore_disable and os.environ.get("REPRO_NO_NUMPY") == "1":
        return None
    return _import_numpy()
