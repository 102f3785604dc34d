"""numpy stays out of the package.

The simulator and the Nash-equilibrium analyses are pure Python.  This guard
scans every ``import`` statement, at any nesting depth, of every module
under ``repro`` so that a numpy-backed path cannot come back unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
ALLOWED: set[str] = set()


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


def test_no_module_imports_numpy():
    importers = {
        f"repro/{path.relative_to(PACKAGE_ROOT).as_posix()}"
        for path in PACKAGE_ROOT.rglob("*.py")
        if _imports_numpy(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == ALLOWED

