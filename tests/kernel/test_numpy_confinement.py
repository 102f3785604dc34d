"""numpy stays out of the simulator.

The dispatch kernel's bulk writers are pure Python, and the only numpy user
is the Nash-equilibrium analysis module, whose functions have no pure-Python
counterpart.  This guard scans every ``import`` statement, at any nesting
depth, of every module under ``repro`` so that a second, numpy-backed kernel
path cannot come back unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
ALLOWED = {"repro/core/nash.py"}


def _imports_numpy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_nash_imports_numpy():
    importers = {
        f"repro/{path.relative_to(PACKAGE_ROOT).as_posix()}"
        for path in PACKAGE_ROOT.rglob("*.py")
        if _imports_numpy(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == ALLOWED

