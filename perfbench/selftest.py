"""The benchmark's own smoke checks.

    python3 perfbench/run.py --self-test

The self-test runs each workload on a small catalogue, traced and untraced,
and checks that

* every metric named in BENCHMARK.json is printed with its unit, on a line
  of its own and in the final JSON line;
* a perturbed reference turns exactly the ops on the affected cell into
  failures;
* a new seed changes the op sequence but not the catalogue it draws from;
* every envelope cell is a cell of its workload's catalogue, and each cell
  of a catalogue is either timed or in the envelope, never both.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from run import ENVELOPE, REFS, ROOT, measure, run
from workloads import WORKLOADS, ColdDet, Oracle, References, Sweep, load_envelope


def _smoke_workloads(refs):
    return [
        ColdDet(refs, cells=[("RIGHT", 1.0, 50), ("BES", 2.0, 50)]),
        Sweep(refs, runs=[("RIGHT", 16.0, 100)]),
        Oracle(
            refs,
            pair_s=(1.0,),
            families=("BES",),
            identities=[("pole_zero", "LEFT"), ("bessel_specialization", None)],
            batches=("gamma_recurrence", "conjugation"),
        ),
    ]


def _check_metrics_printed(refs, spec):
    problems = []
    for workload in _smoke_workloads(refs):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run(workload, seed=1, seconds=0, trace=trace, min_ops=1)
            lines = buf.getvalue().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload.name}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload.name} trace={trace}: metrics {got} != {want}")
            for name, unit in want.items():
                if not any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines[:-1]):
                    problems.append(f"{workload.name} trace={trace}: no printed line for {name} [{unit}]")
    return problems


def _check_perturbed_reference(refs):
    cells = json.loads(json.dumps(refs.cells))
    target = cells["RIGHT"]["2"]
    if not target["certified"]:
        return ["RIGHT s=2 has no certified reference to perturb"]
    smoke = [("RIGHT", 2.0, 50), ("RIGHT", 4.0, 50)]
    before = [out.fail for _, out in measure(ColdDet(refs, cells=smoke), 1, 0, 0, min_ops=1).ops]
    target["ln_det"] += 1e-4 * max(1.0, abs(target["ln_det"]))
    perturbed = ColdDet(References(cells=cells), cells=smoke)
    after = {out.cell: out.fail for _, out in measure(perturbed, 1, 0, 0, min_ops=1).ops}
    problems = []
    if any(before):
        problems.append(f"unperturbed smoke ops failed: {before}")
    if after[("RIGHT", 2.0, 50)] != "inaccurate":
        problems.append("an op on the perturbed cell did not fail")
    if after[("RIGHT", 4.0, 50)] is not None:
        problems.append("an op on an unperturbed cell failed")
    return problems


def _plan_cells(plan):
    return [repr(cell) for req in plan for cell, _ in req.ops]


def _check_seed(refs, envelope):
    problems = []
    with open(REFS, encoding="utf-8") as fh:
        before = fh.read()
    for name, cls in WORKLOADS.items():
        workload = cls(refs, envelope[name])
        a = _plan_cells(workload.plan(np.random.default_rng(1)))
        b = _plan_cells(workload.plan(np.random.default_rng(2)))
        if a == b:
            problems.append(f"{name}: seeds 1 and 2 gave the same op sequence")
        if sorted(a) != sorted(b):
            problems.append(f"{name}: seeds 1 and 2 drew from different catalogues")
    with open(REFS, encoding="utf-8") as fh:
        if fh.read() != before:
            problems.append("the reference catalogue changed during the run")
    return problems


def _check_envelope(refs, envelope):
    problems = []
    for name, cls in WORKLOADS.items():
        workload = cls(refs, envelope[name])
        catalogue = sorted(repr(c) for c in workload.cells())
        stale = envelope[name] - set(workload.cells())
        if stale:
            problems.append(f"{name}: envelope cells outside the catalogue: {sorted(stale)[:3]}")
        timed = _plan_cells(workload.plan(np.random.default_rng(1)))
        untimed = _plan_cells(workload.envelope_plan())
        if set(timed) & set(untimed):
            problems.append(f"{name}: cells both timed and in the envelope")
        if sorted(timed + untimed) != catalogue:
            problems.append(f"{name}: timed and envelope cells do not make up the catalogue")
    return problems


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    refs = References(REFS)
    envelope = load_envelope(ENVELOPE)
    problems = []
    for name, check in (
        ("metrics printed with units", lambda: _check_metrics_printed(refs, spec)),
        ("perturbed reference fails its ops", lambda: _check_perturbed_reference(refs)),
        ("seed changes order, not catalogue", lambda: _check_seed(refs, envelope)),
        ("envelope and timed cells partition the catalogue", lambda: _check_envelope(refs, envelope)),
    ):
        found = check()
        print(f"[{'FAIL' if found else 'PASS'}] {name}")
        for p in found:
            print(f"    {p}")
        problems += found
    return 1 if problems else 0
