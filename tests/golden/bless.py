"""Re-bless ``tests/golden/digests.json``.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.bless

Every golden cell runs on the fast kernel and on the reference loop.  If
the loops disagree on any cell, the command prints the fields that differ
and exits 1 without touching the file.  Otherwise it rewrites the file,
recording this interpreter's ``major.minor`` as the blessing version, and
prints, for each cell whose digest moved, the per-field diff against the old
entry.
"""

from __future__ import annotations

import json

from tests.golden import GOLDEN_PATH, PYTHON_VERSION, dump, field_diff, record
from tests.golden.cells import all_cells, cell_id, run_cell


def main() -> int:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    old = golden.get("cells", {})
    if golden and golden["python"] != PYTHON_VERSION:
        print(f"blessing on Python {PYTHON_VERSION}, replacing Python {golden['python']}")
    records = {}
    agree = True
    for family, scheduler, seed in all_cells():
        cell = cell_id(family, scheduler, seed)
        _, fast = run_cell(family, scheduler, seed, fast=True)
        _, reference = run_cell(family, scheduler, seed, fast=False)
        records[cell] = record(fast)
        reference_record = record(reference)
        if records[cell]["digest"] != reference_record["digest"]:
            agree = False
            print(f"{cell}: fast != reference")
            for line in field_diff(reference_record["fields"], records[cell]["fields"]):
                print(f"    {line}")
    if not agree:
        print(f"the slot loops disagree; {GOLDEN_PATH.name} left unchanged")
        return 1
    moved = 0
    for cell in sorted(records.keys() | old.keys()):
        if cell not in records or cell not in old:
            print(f"{cell}: {'removed' if cell in old else 'new'}")
        elif records[cell]["digest"] != old[cell]["digest"]:
            print(f"{cell}:")
            for line in field_diff(old[cell]["fields"], records[cell]["fields"]):
                print(f"    {line}")
        else:
            continue
        moved += 1
    GOLDEN_PATH.write_text(dump(records))
    print(f"{len(records)} cells blessed, {moved} changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
