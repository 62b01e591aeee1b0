"""The three benchmark workloads: their catalogues, operations and checks.

A workload's *catalogue* is a fixed list of requests.  A request has the ops
themselves, each timed on its own and named by its *cell* (the inputs that
identify it), and an optional ``prepare`` step: a kernel build that its ops
share, which counts in the wall time but in no op's latency.  The oracle's
arguments are drawn once, from a fixed generator, as ``meijergap verify``
draws its own.  A *pass* is the catalogue in an order drawn from the run's
seed, so the seed changes the order of the ops but never the mix measured.

The *envelope* (``envelope.json``, written by ``envelope.py``) lists the
cells that the library fails at the commit the benchmark was recorded on.
Passes leave them out, so every timed op is expected to succeed and a failed
op is a regression; a traced run evaluates the envelope cells once, untimed,
and reports how many of them still fail (see ``run.py``).

Every op is checked when it returns.  An op fails when it raises
``MeijerGapError``, when its determinant has fewer than ``DIGITS_REQUIRED``
correct digits against a certified reference, when a determinant without a
certified reference leaves the expansion bound |s^rho (ln det - asym)| <= 1,
or when an oracle cross-check misses the tolerance of the matching
``meijergap verify`` check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

import meijergap as mg
from meijergap import specfun
from spans import FillProxy

FAMILIES = {
    "LEFT": mg.ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61)),
    "RIGHT": mg.ProcessParams(4, 1, (1.31, 2.15, 2.61, 3.19), (1.87,)),
    "NEG": mg.ProcessParams(2, 0, (-0.5, 0.7)),
    "GIN2": mg.ProcessParams(2, 0, (0.0, 1.0)),
    "BES": mg.ProcessParams(1, 0, (0.5,)),
}
BES_NU = 0.5

COLD_S = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
COLD_M = (50, 80, 100, 200)
SWEEP_S_MAX = (16.0, 64.0, 256.0)
SWEEP_M = (100, 200)
SWEEP_POINTS = 17

DIGITS_REQUIRED = 6.0
DIGITS_CAP = 12.0
EXPANSION_BOUND = 1.0

# tolerances of the matching `meijergap verify` checks
TOL_KERNEL_ORACLE = 1e-8
TOL_BESSEL_REDUCTION = 1e-7
TOL_POLE_ZERO = 1e-11
TOL_MB = 1e-10
TOL_KR = 1e-11
TOL_BESSEL_SPEC = 1e-12
TOL_GAMMA_REC = 1e-12
TOL_BARNES_REC = 1e-11
TOL_CONJ = 1e-13

ORACLE_X_RANGE = (0.05, 2.0)
ORACLE_PAIR_M = 100
ORACLE_PAIR_KAPPA = 2
ORACLE_BATCH_POINTS = 2000
ORACLE_INPUT_SEED = 2024


def sweep_svalues(s_max):
    return [float(s) for s in np.geomspace(1.0, s_max, SWEEP_POINTS)]


def s_key(s):
    return f"{float(s):.12g}"


def catalogue_cells():
    """Every (family, s) that an op of any workload compares with a reference."""
    svals = set(COLD_S)
    for s_max in SWEEP_S_MAX:
        svals.update(sweep_svalues(s_max))
    keys = sorted({s_key(s) for s in svals}, key=float)
    return [(fam, key) for fam in FAMILIES for key in keys]


class References:
    """The stored reference catalogue: ln det per (family, s) with its
    certified digits, or no certified value."""

    def __init__(self, path=None, cells=None):
        if cells is None:
            with open(path, encoding="utf-8") as fh:
                cells = json.load(fh)["cells"]
        self.cells = cells

    def lookup(self, family, s):
        """(ln det, certified digits), or None when no refinement certifies
        the cell.  A cell missing from the catalogue is an error."""
        cell = self.cells[family][s_key(s)]
        if not cell["certified"]:
            return None
        return cell["ln_det"], cell["digits"]


def correct_digits(x, ref, certified):
    """-log10(|x - ref| / max(1, |ref|)), floored at 0 and capped at 12 and at
    the reference's certified digits."""
    err = abs(x - ref) / max(1.0, abs(ref))
    digits = DIGITS_CAP if err == 0.0 else -math.log10(err)
    return max(0.0, min(digits, DIGITS_CAP, certified))


@dataclass
class Outcome:
    cell: tuple  # the inputs that name the op: (family, s, m[, s_max]) or (check, args...)
    fail: str | None = None
    digits: float | None = None
    uncertified: bool = False
    detail: float | None = None  # |ln det - ref|, |f| without a reference, or a check's residual


@dataclass
class Request:
    ops: list  # (cell, op) pairs
    prepare: object = None

    def only(self, keep):
        """This request with the ops whose cell ``keep`` accepts, or None."""
        ops = [(cell, op) for cell, op in self.ops if keep(cell)]
        return Request(ops, self.prepare) if ops else None


def load_envelope(path):
    """Per workload name, the set of cells the library fails (as tuples)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)["workloads"]
    return {name: frozenset(tuple(row["cell"]) for row in rows) for name, rows in doc.items()}


class Workload:
    """A catalogue of requests; subclasses fill ``self.requests``."""

    name = ""
    requests: list

    def __init__(self, refs, envelope=()):
        self.refs = refs
        self.envelope = frozenset(envelope)

    def cells(self):
        return [cell for req in self.requests for cell, _ in req.ops]

    def plan(self, rng):
        """One pass: the requests outside the envelope, in an order drawn from ``rng``."""
        reqs = [r for r in (q.only(lambda c: c not in self.envelope) for q in self.requests) if r]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def envelope_plan(self):
        """The envelope cells of the catalogue, in catalogue order."""
        return [r for r in (q.only(self.envelope.__contains__) for q in self.requests) if r]


def _fill(handle, tr, name="kernel.fill"):
    return FillProxy(handle, tr, name) if tr.enabled else handle


def _build(tr, params, x_range):
    with tr.span("kernel.build"):
        handle = mg.MeijerKernel(params, x_range)
    cq = handle.cq
    tr.count("kernel.build.nodes", cq.gamma_nodes.size + cq.gammatilde_nodes.size)
    return handle


def _judge_det(refs, cell, family, s, ld, asym, rho):
    ref = refs.lookup(family, s)
    if ref is None:
        f = abs(s**rho * (ld - asym))
        return Outcome(cell, "expansion_bound" if f > EXPANSION_BOUND else None, None, True, f)
    return _judge_ref(cell, ld, ref)


def _judge_ref(cell, ld, ref):
    digits = correct_digits(ld, *ref)
    return Outcome(cell, "inaccurate" if digits < DIGITS_REQUIRED else None, digits, False, abs(ld - ref[0]))


def _error(cell, exc):
    return Outcome(cell, type(exc).__name__)


# ---------------------------------------------------------------------------
# cold_det: the `meijergap det` path plus its expansion comparison
# ---------------------------------------------------------------------------


def _cold_det_op(refs, cell, ctx, tr):
    family, s, m = cell
    params = FAMILIES[family]
    try:
        with tr.span("asymptotics.coeffs"):
            cc = mg.compute_coeffs(params)
        with tr.span("fredholm.grid"):
            grid = mg.gauss_legendre_grid(s, m, kappa=mg.kappa_for_nu_min(params.nu_min))
        handle = _build(tr, params, (0.999 * float(grid.nodes[0]), s))
        with tr.span("fredholm.det"):
            ld = mg.log_gap_determinant(s, grid, _fill(handle, tr))
        with tr.span("asymptotics.expansion"):
            asym = mg.truncated_log_expansion(s, cc)
    except mg.MeijerGapError as exc:
        return _error(cell, exc)
    return _judge_det(refs, cell, family, s, ld, asym, cc.rho)


class ColdDet(Workload):
    name = "cold_det"

    def __init__(self, refs, envelope=(), cells=None):
        super().__init__(refs, envelope)
        cells = cells or [(f, s, m) for f in FAMILIES for s in COLD_S for m in COLD_M]
        self.requests = [self._request(cell) for cell in cells]

    def _request(self, cell):
        return Request([(cell, partial(_cold_det_op, self.refs, cell))])

    def warmup(self):
        return [self._request(("RIGHT", 1.0, 50))]


# ---------------------------------------------------------------------------
# sweep: `meijergap converge` runs, one kernel build per request
# ---------------------------------------------------------------------------


def _sweep_prepare(family, s_max, m, tr):
    params = FAMILIES[family]
    try:
        with tr.span("asymptotics.coeffs"):
            cc = mg.compute_coeffs(params)
        kappa = mg.kappa_for_nu_min(params.nu_min)
        with tr.span("fredholm.grid"):
            first = float(mg.gauss_legendre_grid(1.0, m, kappa=kappa).nodes[0])
        handle = _build(tr, params, (0.999 * first, s_max))
    except mg.MeijerGapError as exc:
        return exc
    return cc, kappa, handle


def _sweep_op(refs, cell, ctx, tr):
    family, s, m, _ = cell
    if isinstance(ctx, Exception):
        return _error(cell, ctx)
    cc, kappa, handle = ctx
    try:
        with tr.span("fredholm.grid"):
            grid = mg.gauss_legendre_grid(s, m, kappa=kappa)
        with tr.span("fredholm.det"):
            ld = mg.log_gap_determinant(s, grid, _fill(handle, tr))
        with tr.span("asymptotics.expansion"):
            asym = mg.truncated_log_expansion(s, cc)
    except mg.MeijerGapError as exc:
        return _error(cell, exc)
    return _judge_det(refs, cell, family, s, ld, asym, cc.rho)


class Sweep(Workload):
    name = "sweep"

    def __init__(self, refs, envelope=(), runs=None):
        super().__init__(refs, envelope)
        runs = runs or [(f, sm, m) for f in FAMILIES for sm in SWEEP_S_MAX for m in SWEEP_M]
        self.requests = [self._request(*run) for run in runs]

    def _request(self, family, s_max, m):
        cells = [(family, s, m, s_max) for s in sweep_svalues(s_max)]
        ops = [(cell, partial(_sweep_op, self.refs, cell)) for cell in cells]
        return Request(ops, partial(_sweep_prepare, family, s_max, m))

    def warmup(self):
        req = self._request("RIGHT", 16.0, 100)
        return [Request(req.ops[:1], req.prepare)]


# ---------------------------------------------------------------------------
# oracle: the cross-checks behind `meijergap verify --level full`
# ---------------------------------------------------------------------------


def _check(cell, resid, tol):
    worst = float(np.max(resid))
    ok = bool(np.all(np.isfinite(resid))) and worst < tol
    return Outcome(cell, None if ok else "oracle_tolerance", detail=worst)


def _oracle_prepare(family, tr):
    try:
        with tr.span("kernel.build"):
            cq = mg.build_contours(FAMILIES[family], ORACLE_X_RANGE, 1e-12)
    except mg.MeijerGapError as exc:
        return exc
    tr.count("kernel.build.nodes", cq.gamma_nodes.size + cq.gammatilde_nodes.size)
    return cq


def _series_op(cell, ctx, tr):
    family, x, y = cell[0].split("/")[1], cell[1], cell[2]
    if isinstance(ctx, Exception):
        return _error(cell, ctx)
    try:
        with tr.span("kernel.eval"):
            k = mg.kernel_eval(x, y, ctx)
        with tr.span("kernel.series"):
            k_series = mg.kernel_eval_series(x, y, FAMILIES[family])
    except mg.MeijerGapError as exc:
        return _error(cell, exc)
    return _check(cell, abs(k - k_series), TOL_KERNEL_ORACLE)


def _pair_op(refs, cell, ctx, tr):
    """ln det of MeijerKernel(1, 0; nu) on [0, s] against BesselKernel(nu)
    on [0, 4s]: the kernels are similar up to the scaling x -> 4x, so the two
    determinants agree to kernel accuracy on matching graded grids."""
    _, s, m = cell
    params = FAMILIES["BES"]
    try:
        with tr.span("fredholm.grid"):
            grid = mg.gauss_legendre_grid(s, m, kappa=ORACLE_PAIR_KAPPA)
            grid_b = mg.gauss_legendre_grid(4.0 * s, m, kappa=ORACLE_PAIR_KAPPA)
        handle = _build(tr, params, (0.999 * float(grid.nodes[0]), s))
        with tr.span("fredholm.det"):
            ld = mg.log_gap_determinant(s, grid, _fill(handle, tr))
        with tr.span("fredholm.det"):
            ld_b = mg.log_gap_determinant(4.0 * s, grid_b, _fill(mg.BesselKernel(BES_NU), tr, "kernel.bessel_fill"))
    except mg.MeijerGapError as exc:
        return _error(cell, exc)
    if not abs(ld - ld_b) < TOL_BESSEL_REDUCTION:
        return Outcome(cell, "oracle_tolerance", detail=abs(ld - ld_b))
    ref = refs.lookup("BES", s)
    if ref is None:
        return Outcome(cell, None, None, True)
    return _judge_ref(cell, ld, ref)


def _coeffs(tr, params):
    with tr.span("asymptotics.coeffs"):
        cc = mg.compute_coeffs(params)
    return np.array([cc.rho, cc.a, cc.b, cc.c, cc.ln_c])


def _identity_op(cell, ctx, tr):
    """cell: (kind/fixed, drawn): the check, its fixed argument (a family, r
    or n) and its drawn one (t, alpha or nu)."""
    kind, _, fixed = cell[0].partition("/")
    try:
        if kind == "pole_zero":
            t = cell[1]
            p = FAMILIES[fixed]
            p1 = mg.ProcessParams(p.r + 1, p.q + 1, p.nu + (t,), p.mu + (t,))
            return _check(cell, np.abs(_coeffs(tr, p) - _coeffs(tr, p1)), TOL_POLE_ZERO)
        if kind == "muttalib_borodin":
            r, alpha = int(fixed), cell[1]
            c = _coeffs(tr, mg.ProcessParams(r, 0, tuple(alpha + j / r for j in range(r))))
            with tr.span("asymptotics.constants"):
                rel = r * c[3] * math.log(r) + mg.log_constant_mb(r, alpha)
            return _check(cell, abs(c[4] - rel), TOL_MB)
        if kind == "equal_parameter":
            n, nu = int(fixed), cell[1]
            c = _coeffs(tr, mg.ProcessParams(n, 0, (nu,) * n))
            with tr.span("asymptotics.constants"):
                ln_cr = mg.log_constant_kr(n, nu)
            return _check(cell, abs(c[4] - ln_cr), TOL_KR)
        nu = cell[1]  # bessel_specialization
        c = _coeffs(tr, mg.ProcessParams(1, 0, (nu,)))
        with tr.span("asymptotics.constants"):
            ln_cb = mg.log_constant_bessel(nu)
        expect = np.array([0.5, 1.0, 2.0 * nu, -nu * nu / 4.0, ln_cb])
        return _check(cell, np.abs(c - expect), TOL_BESSEL_SPEC)
    except mg.MeijerGapError as exc:
        return _error(cell, exc)


def _batch_op(cell, z, ctx, tr):
    """A specfun identity over a whole array of drawn points; cell: (kind, index)."""
    kind = cell[0]
    lg = partial(tr.call, "specfun.log_gamma", specfun.log_gamma, points=0)
    lbg = partial(tr.call, "specfun.log_barnes_g", specfun.log_barnes_g, points=0)
    try:
        if kind == "gamma_recurrence":
            resid = np.abs(np.exp(lg(z + 1) - lg(z)) - z)
            return _check(cell, resid, TOL_GAMMA_REC)
        if kind == "barnes_recurrence":
            gap = lbg(z + 1) - lg(z) - lbg(z)
            im = np.abs(np.remainder(gap.imag + math.pi, 2 * math.pi) - math.pi)
            return _check(cell, np.maximum(np.abs(gap.real), im), TOL_BARNES_REC)
        dg = partial(tr.call, "specfun.digamma", specfun.digamma, points=0)
        zc = np.conj(z)
        resid = max(float(np.abs(f(zc) - np.conj(f(z))).max()) for f in (lg, dg, lbg))
        return _check(cell, resid, TOL_CONJ)
    except mg.MeijerGapError as exc:
        return _error(cell, exc)


class Oracle(Workload):
    name = "oracle"

    # the counts place the median op inside one cluster of similar ops (the
    # cheapest family's series evaluations) rather than between two clusters:
    # a pass times 18 cheaper ops, then 4 series evaluations per family
    # outside the envelope (BES, GIN2, LEFT, RIGHT), then 6 pairs
    SERIES_PER_FAMILY = 4
    IDENTITIES = (
        [("pole_zero", f) for f in FAMILIES]
        + [("muttalib_borodin", r) for r in (2, 3)]
        + [("equal_parameter", n) for n in (1, 2, 3)]
        + [("bessel_specialization", None)] * 2
    )
    BATCHES = ("gamma_recurrence", "barnes_recurrence", "conjugation") * 2

    def __init__(self, refs, envelope=(), pair_s=COLD_S, families=tuple(FAMILIES), identities=None, batches=None):
        super().__init__(refs, envelope)
        rng = np.random.default_rng(ORACLE_INPUT_SEED)
        reqs = [self._series_request(f, rng) for f in families]
        for s in pair_s:
            cell = ("pair/BES", s, ORACLE_PAIR_M)
            reqs.append(Request([(cell, partial(_pair_op, refs, cell))]))
        for kind, fixed in self.IDENTITIES if identities is None else identities:
            cell = (kind if fixed is None else f"{kind}/{fixed}", self._identity_arg(kind, rng))
            reqs.append(Request([(cell, partial(_identity_op, cell))]))
        for i, kind in enumerate(self.BATCHES if batches is None else batches):
            n = ORACLE_BATCH_POINTS
            z = rng.uniform(0.5, 20.0, n) + 1j * rng.uniform(-20.0, 20.0, n)
            cell = (kind, i)
            reqs.append(Request([(cell, partial(_batch_op, cell, z))]))
        self.requests = reqs

    def _series_request(self, family, rng):
        xy = rng.uniform(*ORACLE_X_RANGE, size=(self.SERIES_PER_FAMILY, 2))
        cells = [(f"series/{family}", float(x), float(y)) for x, y in xy]
        return Request([(cell, partial(_series_op, cell)) for cell in cells], partial(_oracle_prepare, family))

    @staticmethod
    def _identity_arg(kind, rng):
        if kind == "pole_zero":
            return float(rng.uniform(-0.9, 5.0))
        if kind in ("muttalib_borodin", "equal_parameter"):
            return float(rng.uniform(0.0, 2.0))
        return float(rng.uniform(0.0, 3.0))

    def warmup(self):
        req = self._series_request("BES", np.random.default_rng(0))
        return [Request(req.ops[:1], req.prepare)]


WORKLOADS = {cls.name: cls for cls in (ColdDet, Sweep, Oracle)}
