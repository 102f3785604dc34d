"""In-memory span tracer that instruments the simulator from outside.

The benchmark never edits ``src/``: :class:`Tracer` wraps public functions and
methods of each ``repro`` package in place (class attributes and module-level
names), records one span per call -- name, start, end, parent span and the
cell id shared by every span of one scenario cell -- and restores the
originals on :meth:`Tracer.uninstall`.  Spans are kept in typed arrays (28
bytes each) and written out once, at the end of the run.

Self time is a span's duration minus the time its direct child spans cover,
so the per-layer ``*_s`` figures partition the traced time without double
counting.  Span timestamps use ``time.perf_counter`` (a vDSO read, far
cheaper per call than the CPU clock); the end-to-end metrics use
``time.process_time``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

_perf_counter = time.perf_counter


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.cell_id = -1
        #: Counts taken at layer boundaries by the result hooks.
        self.counts: dict[str, float] = defaultdict(float)
        #: Timers created since the last finished cell (idle-probe counts).
        self.timers: list = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str):
        """Context manager recording one span (used for the cell root span)."""
        return _Span(self, self.name_id(name))

    def _make_wrapper(self, original, name: str, before=None, after=None):
        nid = self.name_id(name)
        tracer = self
        stack = self._stack
        parents = self.parent
        names = self.name_idx
        cells = self.cell
        starts = self.start
        ends = self.end

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            cells.append(tracer.cell_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(_perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = _perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) with a traced wrapper."""
        original = cls.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{attr}: only plain methods are traced")
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._make_wrapper(original, name, before, after))

    def wrap_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace a module-level function everywhere ``repro`` imported it.

        ``from x import f`` copies the function object into the importing
        module's namespace, so every ``repro`` module holding the same object
        is patched, not only the defining one.
        """
        original = getattr(module, attr)
        wrapper = self._make_wrapper(original, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # analysis and export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """``span name -> (calls, total seconds, self seconds)``."""
        import numpy as np

        durations = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parents = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parents >= 0
        covered = np.zeros(len(durations))
        np.add.at(covered, parents[has_parent], durations[has_parent])
        name_idx = np.frombuffer(self.name_idx, dtype=np.int32)
        width = len(self.names)
        calls = np.bincount(name_idx, minlength=width)
        total = np.bincount(name_idx, weights=durations, minlength=width)
        own = np.bincount(name_idx, weights=durations - covered, minlength=width)
        return {
            name: (int(calls[k]), float(total[k]), float(own[k]))
            for k, name in enumerate(self.names)
        }

    def write(self, directory: str) -> str:
        """Dump every span to ``directory`` (raw little-endian columns + index)."""
        os.makedirs(directory, exist_ok=True)
        columns = {
            "name_idx": self.name_idx,
            "parent": self.parent,
            "cell": self.cell,
            "start": self.start,
            "end": self.end,
        }
        layout = {}
        for column, values in columns.items():
            path = os.path.join(directory, f"{column}.bin")
            with open(path, "wb") as handle:
                values.tofile(handle)
            layout[column] = values.typecode
        index = {"spans": len(self), "names": self.names, "columns": layout}
        with open(os.path.join(directory, "spans.json"), "w") as handle:
            json.dump(index, handle, indent=1)
        return directory


class _Span:
    __slots__ = ("tracer", "nid", "index")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid
        self.index = -1

    def __enter__(self):
        t = self.tracer
        self.index = len(t.start)
        t.parent.append(t._stack[-1] if t._stack else -1)
        t.name_idx.append(self.nid)
        t.cell.append(t.cell_id)
        t.end.append(0.0)
        t._stack.append(self.index)
        t.start.append(_perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.end[self.index] = _perf_counter()
        t._stack.pop()
