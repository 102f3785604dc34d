"""Export experiment results to CSV / JSON.

The figure runners return :class:`repro.experiments.runner.FigureResult`
objects; these helpers serialise them so results can be archived, diffed
across code versions, or plotted with external tooling.
"""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import FigureResult


#: Column order used for CSV export (sweep value + scheduler + panel metrics).
CSV_FIELDS = (
    "sweep",
    "scheduler",
    "pdr_percent",
    "end_to_end_delay_ms",
    "packet_loss_per_minute",
    "radio_duty_cycle_percent",
    "queue_loss_per_node",
    "received_per_minute",
    "generated",
    "delivered",
)


def _fieldnames(rows: list) -> list:
    """CSV columns: the canonical fields plus any aggregate (std/CI) columns.

    Figure results averaged over more than one seed carry ``n_seeds`` and
    per-metric ``_std`` / ``_ci95`` columns; single-seed and single-run
    results keep the historical layout.
    """
    fields = list(CSV_FIELDS)
    extras = []
    for row in rows:
        for key in row:
            if key not in fields and key not in extras:
                extras.append(key)
    return fields + sorted(extras)


def figure_to_csv(result: "FigureResult", path: str) -> str:
    """Write one row per (sweep value, scheduler) pair; returns the path."""
    rows = result.rows()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=_fieldnames(rows), extrasaction="ignore"
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def figure_to_json(result: "FigureResult", path: str) -> str:
    """Write the full figure (metadata + rows) as JSON; returns the path."""
    document = {
        "figure": result.figure,
        "sweep_label": result.sweep_label,
        "sweep_values": list(result.sweep_values),
        "schedulers": list(result.results),
        "seeds": list(getattr(result, "seeds", []) or []),
        "rows": result.rows(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    return path


def load_figure_csv(path: str) -> list:
    """Read back a CSV produced by :func:`figure_to_csv` (values as floats)."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            parsed = dict(row)
            for key, value in row.items():
                if key == "scheduler":
                    continue
                try:
                    parsed[key] = float(value)
                except (TypeError, ValueError):
                    pass
            rows.append(parsed)
    return rows
