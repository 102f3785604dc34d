"""reprolint: repo-specific determinism and kernel-invariant lint rules.

Run from a repo checkout::

    python -m tools.reprolint src/
    python -m tools.reprolint src/ --format json

The rules (RL001-RL007) enforce the determinism contract documented in
``docs/determinism.md``: seeded randomness only, no wall-clock reads, no
unordered-set iteration in simulation modules, version-bump invalidation
discipline, ``__slots__`` on hot classes, integer-only settlement counters,
and no writes to another object's private attributes outside the module
that defines them.
"""

from __future__ import annotations

from tools.reprolint.config import DEFAULT_CONFIG, LintConfig, VersionedClass
from tools.reprolint.engine import Violation, lint_paths, lint_source
from tools.reprolint.rules import ALL_RULES, RULE_SUMMARIES

__all__ = [
    "ALL_RULES",
    "DEFAULT_CONFIG",
    "LintConfig",
    "RULE_SUMMARIES",
    "VersionedClass",
    "Violation",
    "lint_paths",
    "lint_source",
]
