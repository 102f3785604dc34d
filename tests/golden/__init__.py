"""Golden behaviour lock: one ``NetworkMetrics`` digest per equivalence cell.

``digests.json`` maps every cell of :mod:`tests.golden.cells` to the digest
of its finalized metrics, by perfbench's recipe: SHA-256 of the sorted JSON
of every field, floats at full precision.  Next to the digest it keeps the
fields themselves (a ``dict`` field by its own digest), so a re-bless can say
which fields moved.  The fast == reference tests compare their fast run with
the file, so a change in protocol code that both slot loops share still
fails tier-1.  Regenerate with ``PYTHONPATH=src python -m tests.golden.bless``.

The file also records the ``major.minor`` of the interpreter that blessed it.
Float sums are not bit-stable across CPython versions (from 3.12 on, the
built-in ``sum`` of floats is compensated), so another version skips the
golden comparison with a warning that names both versions; the fast ==
reference check still runs there.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import warnings
from pathlib import Path

from repro.metrics.collector import NetworkMetrics

GOLDEN_PATH = Path(__file__).with_name("digests.json")

#: ``major.minor`` of the running interpreter, as recorded by a bless.
PYTHON_VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"


def _sha256(value: object) -> str:
    document = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(document.encode()).hexdigest()


def record(metrics: NetworkMetrics) -> dict:
    """The golden entry of one finalized run: its digest and its fields."""
    fields = dataclasses.asdict(metrics)
    return {
        "digest": _sha256(fields),
        "fields": {
            name: _sha256(value) if isinstance(value, dict) else value
            for name, value in fields.items()
        },
    }


def field_diff(old: dict, new: dict) -> list[str]:
    """``name: old -> new`` for every field that differs between two entries."""
    return [
        f"{name}: {old.get(name)!r} -> {new.get(name)!r}"
        for name in sorted(old.keys() | new.keys())
        if old.get(name) != new.get(name)
    ]


@functools.lru_cache(maxsize=1)
def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def dump(records: dict) -> str:
    """The file for ``records`` blessed on this interpreter.

    One cell per line, sorted, so a re-bless diffs line by line.
    """
    lines = [
        f"    {json.dumps(cell)}: {json.dumps(records[cell], sort_keys=True)}"
        for cell in sorted(records)
    ]
    return (
        f'{{\n  "python": {json.dumps(PYTHON_VERSION)},\n  "cells": {{\n'
        + ",\n".join(lines)
        + "\n  }\n}\n"
    )


def assert_matches_golden(cell: str, metrics: NetworkMetrics) -> None:
    """Fail, naming the moved fields, when ``metrics`` differs from the file.

    On an interpreter other than the blessing one, warn and compare nothing.
    """
    golden = load()
    if golden["python"] != PYTHON_VERSION:
        warnings.warn(
            f"tests/golden/digests.json was blessed on Python {golden['python']}; "
            f"golden comparisons are skipped on Python {PYTHON_VERSION}",
            stacklevel=2,
        )
        return
    expected = golden["cells"][cell]
    actual = record(metrics)
    if actual["digest"] != expected["digest"]:
        moved = "; ".join(field_diff(expected["fields"], actual["fields"]))
        raise AssertionError(
            f"{cell} no longer matches tests/golden/digests.json ({moved}); if the "
            "change is intended, re-bless with `PYTHONPATH=src python -m tests.golden.bless`"
        )
