"""In-memory span tracer for the benchmark.

Spans are recorded only around calls the benchmark makes into the library's
public functions and handle methods, plus the public names that one library
module imports from another (``kernel.log_gamma``, ``kernel.bessel_j``,
``asymptotics.log_barnes_g``), which are swapped for timing wrappers while a
traced pass runs and restored afterwards.  Nothing inside the library is
edited.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from functools import partial

import numpy as np


class Tracer:
    """Records (name, start, end, parent, op) spans and exact event counts.

    A disabled tracer records nothing; its ``span`` is an empty context, so
    untraced passes pay one generator call per span site and nothing else.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.op_id = None
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] += n

    def call(self, name, fn, *args, points=None):
        """``fn(*args)`` inside a span; ``points`` names the argument whose
        size is added to the ``<name>.points`` count."""
        if not self.enabled:
            return fn(*args)
        if points is not None:
            self.counts[name + ".points"] += int(np.size(args[points]))
        with self.span(name):
            return fn(*args)

    @contextmanager
    def active(self, kernel_mod, asymptotics_mod):
        """Trace inside the block, with the specfun names that ``kernel`` and
        ``asymptotics`` import swapped for traced wrappers."""
        patched = []
        for mod, attr, name, points in (
            (kernel_mod, "log_gamma", "specfun.log_gamma", 0),
            (kernel_mod, "bessel_j", "specfun.bessel_j", 1),
            (asymptotics_mod, "log_barnes_g", "specfun.log_barnes_g", 0),
        ):
            orig = getattr(mod, attr)
            patched.append((mod, attr, orig))
            setattr(mod, attr, partial(self.call, name, orig, points=points))
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            for mod, attr, orig in patched:
                setattr(mod, attr, orig)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because the run is single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + (t1 - t0), self_s + (t1 - t0) - child_time[i])
        return out

    def covered(self, prefixes):
        """Seconds covered by the union of spans whose name starts with any
        of ``prefixes``: spans nested in another selected span add nothing."""
        selected = [s[0].startswith(prefixes) for s in self.spans]
        total = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if not selected[i]:
                continue
            p = parent
            while p >= 0 and not selected[p]:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


class FillProxy:
    """Kernel handle whose ``matrix`` runs inside a fill span.

    ``log_gap_determinant`` calls ``handle.matrix(nodes)``; wrapping the
    handle measures the fill as a child of the determinant without touching
    the library.  For a contour kernel the computed work follows from the
    shapes of the two matrix products px @ C @ py.T.
    """

    def __init__(self, handle, tracer, name):
        self._handle = handle
        self._tracer = tracer
        self._name = name

    def matrix(self, xs):
        cq = getattr(self._handle, "cq", None)
        if cq is not None:
            m = len(xs)
            nu, nv = cq.separable_coeffs.shape
            self._tracer.count(self._name + ".cmacs_computed", m * nu * nv + m * m * nv)
            # complex operands read and results written by the two products
            self._tracer.count(self._name + ".bytes_computed", 16 * (m * nu + nu * nv + 3 * m * nv + m * m))
        with self._tracer.span(self._name):
            return self._handle.matrix(xs)
