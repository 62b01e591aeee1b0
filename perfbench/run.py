"""meijergap benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload cold_det --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
client runs the ops of a workload back to back in this process, with BLAS
pinned to one thread and no thread pools.  A run measures whole passes over
the workload's catalogue until ``--seconds`` have elapsed (and at least
``MIN_OPS`` ops were timed), checks every answer, and prints each metric by
name with its unit.  Passes leave out the envelope cells (``envelope.json``),
so every timed op is expected to succeed: the run is correct only when none
failed.  Times are scaled to a nominal machine speed by
calibration samples taken beside every op (see ``speed.py``); the raw
wall-clock total is printed too.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A traced run alternates an untraced and a traced pass over the same ops;
per-layer metrics come from the traced passes and are given per pass.  After
the passes it evaluates the workload's envelope cells once, untimed and
untraced; the failure counts (``fail.*``, ``fredholm.singular``,
``kernel.accuracy_errors``, ``accuracy.uncertified_ops``) are per pass over
the whole catalogue, the envelope cells included, so a change that extends
the envelope lowers them.  The full span list, the environment stamp and the
failing cells are written to ``perfbench/out/``.  ``--self-test`` runs the
benchmark's own smoke checks; ``envelope.py`` regenerates the envelope.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# one BLAS thread; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds; True when that was possible.

    By default glibc raises both as large arrays are freed, so the peak size
    of the heap, and with it ``peak_rss_mb``, depends on the order in which a
    pass frees its arrays: seeds gave peaks 10% apart.  With fixed thresholds
    the peak repeats from seed to seed."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20) and libc.mallopt(m_trim_threshold, 64 << 20))


MALLOC_PINNED = _pin_malloc_thresholds()

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs.json")
ENVELOPE = os.path.join(HERE, "envelope.json")

MIN_OPS = 100
SETUP_REPEATS = 7
# median time of the set-up probes' control interpreter on the machine the
# baseline was recorded on
NOMINAL_CONTROL_S = 0.16

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "digits_p10": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics of the traced passes, given per pass unless the unit says otherwise
PER_LAYER_UNITS = {
    "kernel.build.ms": "ms/pass",
    "kernel.build.self_ms": "ms/pass",
    "kernel.build.calls": "count/pass",
    "kernel.build.nodes": "nodes/build",
    "kernel.fill.ms": "ms/pass",
    "kernel.fill.calls": "count/pass",
    "kernel.fill.cmacs_computed": "cmac/pass",
    "kernel.fill.bytes_computed": "B/pass",
    "kernel.bessel_fill.ms": "ms/pass",
    "kernel.series.ms": "ms/pass",
    "kernel.series.calls": "count/pass",
    "kernel.accuracy_errors": "count/pass",
    "fredholm.det.self_ms": "ms/pass",
    "fredholm.grid.ms": "ms/pass",
    "fredholm.singular": "count/pass",
    "specfun.log_gamma.ms": "ms/pass",
    "specfun.log_gamma.calls": "count/pass",
    "specfun.log_gamma.points": "count/pass",
    "specfun.log_barnes_g.ms": "ms/pass",
    "specfun.log_barnes_g.calls": "count/pass",
    "specfun.bessel_j.ms": "ms/pass",
    "specfun.bessel_j.calls": "count/pass",
    "asymptotics.coeffs.ms": "ms/pass",
    "asymptotics.coeffs.calls": "count/pass",
    "accuracy.uncertified_ops": "count/pass",
    "fail.inaccurate": "count/pass",
    "fail.expansion_bound": "count/pass",
    "fail.oracle_tolerance": "count/pass",
    "fail.other_error": "count/pass",
    "share.build": "ratio",
    "share.build_self": "ratio",
    "share.fill": "ratio",
    "share.specfun_series": "ratio",
    "trace.overhead_ratio": "ratio",
}


def import_library():
    """Import meijergap from this checkout's ``src/``; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "meijergap", "__init__.py")):
        raise SystemExit(f"error: no meijergap sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import meijergap

    if os.path.dirname(os.path.dirname(os.path.abspath(meijergap.__file__))) != SRC:
        raise SystemExit(f"error: imported meijergap from {meijergap.__file__}, not from {SRC}")
    return meijergap


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------


def run_plan(plan, tr, speed, sink, between=None):
    """Run every request of a pass; append (scaled seconds, Outcome) per op.

    ``between`` is called before each request, outside the timed region.
    Returns the pass's (scaled, raw) wall seconds: the time spent in
    kernel builds and ops, without the speed samples taken before each."""
    scaled = raw = 0.0
    for req in plan:
        if between is not None:
            between()
        tr.op_id = None
        ctx = None
        if req.prepare is not None:
            speed.sample()
            t0 = time.perf_counter()
            ctx = req.prepare(tr)
            dt = time.perf_counter() - t0
            scaled, raw = scaled + dt * speed.factor(), raw + dt
        for _, op in req.ops:
            tr.op_id = len(sink)
            speed.sample()
            t0 = time.perf_counter()
            out = op(ctx, tr)
            dt = time.perf_counter() - t0
            sink.append((dt * speed.factor(), out))
            scaled, raw = scaled + sink[-1][0], raw + dt
    return scaled, raw


@dataclass
class Measurement:
    ops: list  # (scaled seconds, Outcome) per op of the untraced passes
    wall: float  # scaled seconds of the untraced passes
    raw_wall: float
    passes: int
    tracer: object
    traced_ops: list
    traced_wall: float  # scaled seconds of the traced passes
    traced_raw_wall: float
    setup_times: list  # (seconds at nominal speed, wall seconds) of each set-up probe
    envelope_ops: list  # (seconds, Outcome) per envelope cell, traced runs only


def measure(workload, seed, seconds, trace, min_ops=MIN_OPS, setup_probes=False):
    """Whole passes until ``seconds`` elapsed and ``min_ops`` ops were timed;
    a traced run reruns each pass's plan with tracing on.

    With ``setup_probes`` it also times SETUP_REPEATS set-up probes, spread
    evenly over the run between requests, so that their median averages the
    machine's slow drifts in speed as the op times do."""
    from meijergap import asymptotics, kernel
    from spans import Tracer
    from speed import Speed

    tr, speed = Tracer(), Speed()
    run_plan(workload.warmup(), tr, speed, [])
    rng = np.random.default_rng(seed % 2**64)  # default_rng rejects negative seeds
    res = Measurement([], 0.0, 0.0, 0, tr, [], 0.0, 0.0, [], [])
    start = time.perf_counter()

    def probe_when_due():
        due = len(res.setup_times) * seconds / SETUP_REPEATS
        if len(res.setup_times) < SETUP_REPEATS and time.perf_counter() - start >= due:
            res.setup_times.append(time_probe(workload.name))

    between = probe_when_due if setup_probes else None
    while res.passes == 0 or time.perf_counter() - start < seconds or len(res.ops) < min_ops:
        plan = workload.plan(rng)
        scaled, raw = run_plan(plan, tr, speed, res.ops, between)
        res.wall, res.raw_wall = res.wall + scaled, res.raw_wall + raw
        if trace:
            with tr.active(kernel, asymptotics):
                scaled, raw = run_plan(plan, tr, speed, res.traced_ops)
            res.traced_wall, res.traced_raw_wall = res.traced_wall + scaled, res.traced_raw_wall + raw
        res.passes += 1
    while between is not None and len(res.setup_times) < SETUP_REPEATS:
        res.setup_times.append(time_probe(workload.name))
    if trace:
        run_plan(workload.envelope_plan(), tr, speed, res.envelope_ops)
    return res


def _percentile(values, q):
    # the empirical-CDF definition gives the same value for a pass repeated
    # any number of times, so whole passes of a fixed catalogue agree
    return float(np.percentile(values, q, method="inverted_cdf"))


def end_to_end_metrics(res):
    ops = res.ops
    lat = [dt * 1e3 for dt, _ in ops]
    failed = sum(out.fail is not None for _, out in ops)
    digits = [out.digits for _, out in ops if out.digits is not None]
    return {
        "op_p50_ms": _percentile(lat, 50),
        "op_p90_ms": _percentile(lat, 90),
        "ops_per_s": len(ops) / res.wall,
        "ok_ratio": (len(ops) - failed) / len(ops),
        "digits_p10": _percentile(digits, 10) if digits else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(res):
    """Per-pass layer metrics of the traced passes.  Span times are raw
    wall-clock times, so the shares divide them by the raw traced wall.
    Outcome counts are per pass over the whole catalogue: the traced ops'
    per pass plus the envelope cells', which are evaluated once."""
    tr, passes, wall = res.tracer, res.passes, res.traced_raw_wall
    summ = tr.summary()

    def span(name):  # (calls, inclusive s, self s) summed over the run
        return summ.get(name, (0, 0.0, 0.0))

    def calls(name):
        return span(name)[0] / passes

    def ms(name):
        return span(name)[1] * 1e3 / passes

    def self_ms(name):
        return span(name)[2] * 1e3 / passes

    def ops_where(pred):
        timed = sum(pred(out) for _, out in res.traced_ops) / passes
        return timed + sum(pred(out) for _, out in res.envelope_ops)

    def failures(kind):
        return ops_where(lambda out: out.fail == kind)

    named = {None, "inaccurate", "expansion_bound", "oracle_tolerance", "SingularityError", "AccuracyError"}
    builds = span("kernel.build")[0]
    return {
        "kernel.build.ms": ms("kernel.build"),
        "kernel.build.self_ms": self_ms("kernel.build"),
        "kernel.build.calls": calls("kernel.build"),
        "kernel.build.nodes": tr.counts["kernel.build.nodes"] / builds if builds else 0.0,
        "kernel.fill.ms": ms("kernel.fill"),
        "kernel.fill.calls": calls("kernel.fill"),
        "kernel.fill.cmacs_computed": tr.counts["kernel.fill.cmacs_computed"] / passes,
        "kernel.fill.bytes_computed": tr.counts["kernel.fill.bytes_computed"] / passes,
        "kernel.bessel_fill.ms": ms("kernel.bessel_fill"),
        "kernel.series.ms": ms("kernel.series"),
        "kernel.series.calls": calls("kernel.series"),
        "kernel.accuracy_errors": failures("AccuracyError"),
        "fredholm.det.self_ms": self_ms("fredholm.det"),
        "fredholm.grid.ms": ms("fredholm.grid"),
        "fredholm.singular": failures("SingularityError"),
        "specfun.log_gamma.ms": ms("specfun.log_gamma"),
        "specfun.log_gamma.calls": calls("specfun.log_gamma"),
        "specfun.log_gamma.points": tr.counts["specfun.log_gamma.points"] / passes,
        "specfun.log_barnes_g.ms": ms("specfun.log_barnes_g"),
        "specfun.log_barnes_g.calls": calls("specfun.log_barnes_g"),
        "specfun.bessel_j.ms": ms("specfun.bessel_j"),
        "specfun.bessel_j.calls": calls("specfun.bessel_j"),
        "asymptotics.coeffs.ms": ms("asymptotics.coeffs"),
        "asymptotics.coeffs.calls": calls("asymptotics.coeffs"),
        "accuracy.uncertified_ops": ops_where(lambda out: out.uncertified),
        "fail.inaccurate": failures("inaccurate"),
        "fail.expansion_bound": failures("expansion_bound"),
        "fail.oracle_tolerance": failures("oracle_tolerance"),
        "fail.other_error": ops_where(lambda out: out.fail not in named),
        "share.build": span("kernel.build")[1] / wall,
        "share.build_self": span("kernel.build")[2] / wall,
        "share.fill": span("kernel.fill")[1] / wall,
        "share.specfun_series": tr.covered(("specfun.", "kernel.series")) / wall,
        "trace.overhead_ratio": res.traced_wall / res.wall,
    }


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters that import the library and run one op
# ---------------------------------------------------------------------------


def probe(workload_name):
    """Body of one set-up probe: import, then one warm-up op."""
    import_library()
    from spans import Tracer
    from speed import Speed
    from workloads import WORKLOADS, References

    run_plan(WORKLOADS[workload_name](References(REFS)).warmup(), Tracer(), Speed(), [])


def _time_process(cmd):
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def time_probe(workload_name):
    """(seconds at nominal speed, wall seconds) of one fresh interpreter
    running ``probe``.

    The speed samples of ``speed.py`` do not follow the speed of another
    process.  Instead a control interpreter that only imports numpy runs just
    before and just after the probe, and the probe's time is scaled by
    NOMINAL_CONTROL_S over the mean of the two control times."""
    control = [sys.executable, "-c", "import numpy"]
    before = _time_process(control)
    wall = _time_process([sys.executable, os.path.abspath(__file__), "--probe", workload_name])
    after = _time_process(control)
    return wall * NOMINAL_CONTROL_S / ((before + after) / 2), wall


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import glob

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    return info.get("name", "unknown"), info.get("version", "unknown"), threads


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "meijergap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(seed):
    vendor, version, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": vendor,
        "blas_version": version,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "malloc_thresholds_pinned": MALLOC_PINNED,
        "cpu_model": _cpu_model(),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _cell_text(cell):
    return [f"{v:.6g}" if isinstance(v, float) else str(v) for v in cell]


def run(workload, seed, seconds, trace, min_ops=MIN_OPS):
    """Measure one workload, write its record and print its metrics."""
    res = measure(workload, seed, seconds, trace, min_ops, setup_probes=not trace)
    if trace:
        metrics = per_layer_metrics(res)
        units = PER_LAYER_UNITS
        counted = res.traced_ops
    else:
        metrics = end_to_end_metrics(res)
        metrics["setup_s"] = statistics.median(t for t, _ in res.setup_times)
        units = END_TO_END_UNITS
        counted = res.ops
    metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    failed = sum(out.fail is not None for _, out in counted)
    # every timed op lies outside the envelope, so any failure is a regression
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())

    env = environment(seed)

    def failing(ops):
        return [list(c) for c in sorted({(*_cell_text(out.cell), out.fail) for _, out in ops if out.fail})]
    record = {
        "workload": workload.name,
        "trace": trace,
        "seconds": seconds,
        "passes": res.passes,
        "wall_s": res.wall,
        "raw_wall_s": res.raw_wall,
        "setup_probes": [{"nominal_s": t, "wall_s": w} for t, w in res.setup_times],
        "ops": len(counted),
        "failed": failed,
        "env": env,
        "metrics": metrics,
        "failing_cells": failing(counted),
        "envelope_cells": len(res.envelope_ops),
        "envelope_failing_cells": failing(res.envelope_ops),
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        res.tracer.dump(stem + "-spans.json")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(
        f"# {workload.name}: {res.passes} passes, {len(counted)} ops timed, {failed} failed;"
        f" wall {res.raw_wall:.2f} s measured, {res.wall:.2f} s at nominal speed"
    )
    if trace:
        print(f"# envelope: {len(record['envelope_failing_cells'])} of {len(res.envelope_ops)} cells still fail")
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(counted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cold_det", "sweep", "oracle"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true", help="run the benchmark's smoke checks")
    args = parser.parse_args(argv)

    if args.probe:
        probe(args.probe)
        return 0
    import_library()
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    from workloads import WORKLOADS, References, load_envelope

    workload = WORKLOADS[args.workload](References(REFS), load_envelope(ENVELOPE)[args.workload])
    return run(workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
