"""Every example script imports cleanly against the current library.

Examples are run by hand, so nothing else notices when a name they import
is renamed or deleted.  Importing each one as a module (its ``__main__``
guard keeps ``main()`` from running) catches that in the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_directory_is_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
