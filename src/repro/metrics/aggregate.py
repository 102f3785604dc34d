"""Cross-seed aggregation of :class:`~repro.metrics.collector.NetworkMetrics`.

The paper reports each figure point as the average over repeated runs.  A
:class:`MetricsAggregate` wraps the per-seed :class:`NetworkMetrics` of one
sweep cell (one swept value x one scheduler) and exposes the mean, the sample
standard deviation and the 95% confidence interval of every headline metric.

``as_dict()`` returns the *means* under the same keys as
``NetworkMetrics.as_dict()``, so an aggregate is a drop-in replacement
anywhere a single run's metrics were consumed (figure reports, CSV export,
``FigureResult.series``).  For a single seed the mean equals the run's value
bit for bit, which keeps multi-seed machinery transparent to the existing
single-seed paths.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.collector import NetworkMetrics

#: Numeric keys of ``NetworkMetrics.as_dict()`` (everything but the scheduler).
NUMERIC_KEYS = tuple(key for key in NetworkMetrics().as_dict() if key != "scheduler")

#: Two-sided 95% critical values of Student's t distribution, indexed by
#: degrees of freedom (1-30); beyond 30 the normal approximation is used.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value for ``df`` degrees of freedom."""
    if df < 1:
        return 0.0
    if df <= len(_T_95):
        return _T_95[df - 1]
    return 1.96


@dataclass
class MetricsAggregate:
    """Mean / stddev / 95% CI of one sweep cell across seeds."""

    scheduler: str = ""
    runs: list[NetworkMetrics] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)

    @classmethod
    def from_runs(
        cls,
        runs: Sequence[NetworkMetrics],
        seeds: Optional[Sequence[int]] = None,
    ) -> "MetricsAggregate":
        if not runs:
            raise ValueError("MetricsAggregate needs at least one run")
        return cls(
            scheduler=runs[0].scheduler,
            runs=list(runs),
            seeds=list(seeds) if seeds is not None else [],
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of seeds aggregated."""
        return len(self.runs)

    def values(self, key: str) -> list[float]:
        """Per-seed values of one metric, in seed order."""
        return [run.as_dict()[key] for run in self.runs]

    def mean(self, key: str) -> float:
        values = self.values(key)
        if len(values) == 1:
            # Return the run's value itself (preserves int-ness and exact
            # floats) so a single-seed aggregate is transparent.
            return values[0]
        return sum(values) / len(values)

    def std(self, key: str) -> float:
        """Sample standard deviation (ddof=1); 0 for a single seed."""
        values = self.values(key)
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))

    def ci95(self, key: str) -> float:
        """Half-width of the 95% confidence interval of the mean (t-based)."""
        if self.n < 2:
            return 0.0
        return t_critical_95(self.n - 1) * self.std(key) / math.sqrt(self.n)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Means under the same keys as ``NetworkMetrics.as_dict()``."""
        data = {"scheduler": self.scheduler}
        for key in NUMERIC_KEYS:
            data[key] = self.mean(key)
        return data

    def stats_dict(self) -> dict:
        """Dispersion columns: ``n_seeds`` plus ``<key>_std`` / ``<key>_ci95``."""
        data: dict[str, float] = {"n_seeds": self.n}
        for key in NUMERIC_KEYS:
            data[f"{key}_std"] = self.std(key)
            data[f"{key}_ci95"] = self.ci95(key)
        return data
