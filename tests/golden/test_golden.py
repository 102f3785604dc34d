"""The golden lock's own behaviour: version gating and failure messages."""

from __future__ import annotations

import pytest

import tests.golden as golden
from repro.metrics.collector import NetworkMetrics


def _first_cell() -> str:
    return min(golden.load()["cells"])


def test_other_interpreter_skips_the_comparison_with_a_warning(monkeypatch):
    monkeypatch.setattr(golden, "PYTHON_VERSION", "2.7")
    blessed_on = golden.load()["python"]
    with pytest.warns(UserWarning, match=f"blessed on Python {blessed_on};.* on Python 2.7"):
        golden.assert_matches_golden(_first_cell(), NetworkMetrics(scheduler="moved"))


def test_blessing_interpreter_names_the_moved_fields(monkeypatch):
    monkeypatch.setattr(golden, "PYTHON_VERSION", golden.load()["python"])
    with pytest.raises(AssertionError, match="scheduler: .* -> 'moved'"):
        golden.assert_matches_golden(_first_cell(), NetworkMetrics(scheduler="moved"))
