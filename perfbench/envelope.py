"""Regenerate ``envelope.json``: the catalogue cells the library fails (untimed).

Every op of every workload's full catalogue is run once and checked as in a
timed run.  The failing cells, with the kind of failure and its size, are
printed as a markdown table and written to ``envelope.json``.  Timed passes
leave these cells out; a traced run evaluates them once and counts how many
still fail.  No cell is dropped from the catalogue: a cell is either timed
or in the envelope.

Run from the repository root:  python3 perfbench/envelope.py
"""

from __future__ import annotations

import json
import sys

from run import ENVELOPE, REFS, import_library, run_plan

COLUMNS = ("cell", "fail", "detail")


def failing_cells(workload):
    """(cell, failure, detail) of every op of the full catalogue that fails."""
    from spans import Tracer
    from speed import Speed

    ops = []
    run_plan(workload.requests, Tracer(), Speed(), ops)
    return [(out.cell, out.fail, out.detail) for _, out in ops if out.fail]


def _text(v):
    if v is None:
        return ""
    return f"{v:g}" if isinstance(v, float) else str(v)


def main():
    import_library()
    from workloads import WORKLOADS, References

    refs = References(REFS)
    doc = {
        "about": "cells the library fails; timed passes leave them out; regenerate with python3 perfbench/envelope.py",
        "workloads": {},
    }
    print("| workload | cell | failure | detail |")
    print("|---|---|---|---|")
    for name, cls in WORKLOADS.items():
        rows = failing_cells(cls(refs))
        doc["workloads"][name] = [dict(zip(COLUMNS, row)) for row in rows]
        for cell, fail, detail in rows:
            detail = "" if detail is None else f"{detail:.2g}"
            print(f"| {name} | {' '.join(_text(v) for v in cell)} | {fail} | {detail} |")
    with open(ENVELOPE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {ENVELOPE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
