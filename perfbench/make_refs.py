"""Regenerate the reference catalogue ``refs.json`` (untimed).

For every (family, s) that a workload compares with a reference, ln det is
computed on graded grids (kappa >= 2, and at least the grading the CLI uses)
at several node counts, all on one contour kernel built for the finest grid.
For BES the Bessel-kernel route on [0, 4s] joins the comparison wherever
``bessel_j`` supports the arguments.  The stored value is the median of the
refinements that succeed; it is certified when at least two succeed and they
agree to ``CERTIFY_DIGITS`` digits, and its certified digits are that
agreement.  Cells no refinement certifies stay in the catalogue with
``certified: false``; ops on them are checked against the expansion bound.

Run from the repository root:  python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import meijergap as mg  # noqa: E402
from workloads import BES_NU, DIGITS_CAP, FAMILIES, catalogue_cells  # noqa: E402

REFINE_M = (150, 200, 300)
BESSEL_M = 200
CERTIFY_DIGITS = 8.0


def _refinements(family, s):
    params = FAMILIES[family]
    kappa = max(2, mg.kappa_for_nu_min(params.nu_min))
    grids = [mg.gauss_legendre_grid(s, m, kappa=kappa) for m in REFINE_M]
    x_lo = 0.999 * min(float(g.nodes[0]) for g in grids)
    out = {}
    try:
        handle = mg.MeijerKernel(params, (x_lo, s))
    except mg.MeijerGapError as exc:
        return {f"kappa{kappa}_m{m}": type(exc).__name__ for m in REFINE_M}
    for m, grid in zip(REFINE_M, grids):
        try:
            out[f"kappa{kappa}_m{m}"] = mg.log_gap_determinant(s, grid, handle)
        except mg.MeijerGapError as exc:
            out[f"kappa{kappa}_m{m}"] = type(exc).__name__
    if family == "BES":
        try:
            grid = mg.gauss_legendre_grid(4.0 * s, BESSEL_M, kappa=2)
            out[f"bessel_kappa2_m{BESSEL_M}"] = mg.log_gap_determinant(4.0 * s, grid, mg.BesselKernel(BES_NU))
        except mg.MeijerGapError as exc:
            out[f"bessel_kappa2_m{BESSEL_M}"] = type(exc).__name__
    return out


def make_cell(family, s):
    values = _refinements(family, s)
    ok = [v for v in values.values() if isinstance(v, float)]
    cell = {"values": values, "certified": False, "ln_det": None, "digits": 0.0}
    if len(ok) < 2:
        return cell
    ref = statistics.median(ok)
    spread = max(abs(v - ref) for v in ok) / max(1.0, abs(ref))
    digits = DIGITS_CAP if spread == 0.0 else min(DIGITS_CAP, -math.log10(spread))
    cell.update(ln_det=ref, digits=round(digits, 3), certified=digits >= CERTIFY_DIGITS)
    return cell


def main():
    t0 = time.perf_counter()
    cells = {}
    for family, key in catalogue_cells():
        cell = make_cell(family, float(key))
        cells.setdefault(family, {})[key] = cell
        status = f"{cell['digits']:.1f} digits" if cell["certified"] else "uncertified"
        print(f"{family:>5} s={key:<10} {status}", file=sys.stderr, flush=True)
    doc = {
        "about": "ln det(1 - K|[0,s]) references; regenerate with python3 perfbench/make_refs.py",
        "refinement_m": list(REFINE_M),
        "certify_digits": CERTIFY_DIGITS,
        "cells": cells,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} in {time.perf_counter() - t0:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
