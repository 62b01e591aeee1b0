"""Kernel tests: parameter validation, contour construction, the
double-contour evaluation against the residue-series oracle, mpmath's
independent Meijer-G evaluator, and the Bessel specialization."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from meijergap import kernel
from meijergap.errors import AccuracyError, ConvergenceError, DomainError
from meijergap.fredholm import gauss_legendre_grid, log_gap_determinant
from meijergap.kernel import (
    BesselKernel,
    MeijerKernel,
    ProcessParams,
    _cluster_poles,
    _clusters_needed,
    _first_tip,
    _kernel_matrix,
    _series_rings,
    _sum_residues,
    build_contours,
    kernel_eval,
    kernel_eval_series,
    log_big_f,
)
from meijergap.specfun import bessel_j, log_gamma

LEFT = ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61))
RIGHT = ProcessParams(4, 1, (1.31, 2.15, 2.61, 3.19), (1.87,))
NEG = ProcessParams(2, 0, (-0.5, 0.7))
BES = ProcessParams(1, 0, (0.5,))
GIN2 = ProcessParams(2, 0, (0.0, 1.0))
NEAR = ProcessParams(2, 0, (0.5, 0.5005))
NU4 = ProcessParams(1, 0, (4.0,))
GIN6 = ProcessParams(6, 0, tuple(float(j) for j in range(6)))
GIN8 = ProcessParams(8, 0, tuple(float(j) for j in range(8)))
HALF8 = ProcessParams(8, 0, (0.5,) * 8)
# r = 6, q = 5: nu = 0.3, 1.1, ..., 4.3 and mu = 0.8, 1.6, ..., 4.0, in steps of 0.8
R6Q5 = ProcessParams(6, 5, tuple(0.3 + 0.8 * j for j in range(6)), tuple(0.8 + 0.8 * k for k in range(5)))
# the families on which the residue sums' cluster cut is checked
CUT_FAMILIES = pytest.mark.parametrize(
    "params", [BES, GIN2, LEFT, RIGHT, GIN6, HALF8, NEAR], ids=["BES", "GIN2", "LEFT", "RIGHT", "GIN6", "HALF8", "NEAR"]
)


def _hyperbolas(params, x_lo):
    """The candidate nodes u of gamma and v of gammatilde, and gamma's
    trapezoidal weights h du/dtheta (unhalved), from the formulas of
    build_contours: theta = k h up to about _REACH from the crossing, with
    h = min(_STEP, 0.2 / (r - q + 1)),
    u = c + a (1 - cosh theta) + i sqrt(3) a sinh theta and
    v = (span - c) + a (cosh theta - 1) + i sqrt(3) a sinh theta, with
    c = min(span/3, 1/|ln x_lo|) and a = _WIDTH c."""
    span, ln_lo = 1.0 + params.nu_min, abs(math.log(x_lo))
    c = span / 3.0 if ln_lo == 0.0 else min(span / 3.0, 1.0 / ln_lo)
    a, h = kernel._WIDTH * c, min(kernel._STEP, 0.2 / (params.r - params.q + 1))
    theta = h * np.arange(int(math.log1p(kernel._REACH / a) / h) + 1)
    rise = math.sqrt(3.0) * a * np.sinh(theta)
    u = c + a * (1.0 - np.cosh(theta)) + 1j * rise
    v = span - c + a * (np.cosh(theta) - 1.0) + 1j * rise
    return u, v, h * a * (-np.sinh(theta) + 1j * math.sqrt(3.0) * np.cosh(theta))


def _t_size(params, x_hi):
    """The size of the t-rule that build_contours takes for ``params`` over a
    range up to ``x_hi``."""
    kappa = math.ceil(kernel._T_GRADING / (1.0 + params.nu_min))
    return kernel._t_points(kappa, 1.0 / (params.r - params.q + 1), x_hi)


def _doubled_rule_gap(params, x_range, xs, monkeypatch):
    """max |K - K_2| / max(1, |K_2|) over the fill on ``xs``, with K on the
    build's t-rule and K_2 on a rule of twice its points."""
    k = _kernel_matrix(xs, build_contours(params, x_range))
    rule = kernel._t_points
    monkeypatch.setattr(kernel, "_t_points", lambda *args: 2 * rule(*args))
    k_fine = _kernel_matrix(xs, build_contours(params, x_range))
    return np.max(np.abs(k - k_fine) / np.maximum(1.0, np.abs(k_fine)))


def _scalar_nodes(params, ray, x_lo, x_min, x_max, tol):
    """The upper-half node count of gamma (ray 0) or gammatilde (ray 1) on
    the hyperbolas for x_lo: up to the first candidate from which on
    ln |F(u) / F(v_0) x^-u|, or ln |F(u_0) / F(v) y^(v-1)|, with u_0 and
    v_0 the crossings, at its largest over [x_min, x_max], is below ln tol
    at every candidate."""
    u, v, _ = _hyperbolas(params, x_lo)
    z = (u, v)[ray]
    ln_f = log_big_f(z, params).real
    other = log_big_f((v, u)[ray][0], params).real  # ln |F| at the other contour's crossing
    bounds = [
        (lf - other if ray == 0 else other - lf) + max(power * math.log(x) for x in (x_min, x_max))
        for lf, power in zip(ln_f, -z.real if ray == 0 else z.real - 1.0)
    ]
    above = [k for k, b in enumerate(bounds) if b >= math.log(tol)]
    assert not above or above[-1] < len(bounds) - 1  # the last candidate is below
    return above[-1] + 2 if above else 1


def _spy_tables(monkeypatch):
    """The column count of each power table that later fills take, in call
    order: one table of max(n_u, n_v) columns per fill, shared by both
    contours."""
    used = []
    power_table = kernel._power_table

    def table_spy(ln_arg, exponents):
        used.append(exponents.size)
        return power_table(ln_arg, exponents)

    monkeypatch.setattr(kernel, "_power_table", table_spy)
    return used


def _stored_halves(cq):
    """The upper-half node counts n_u of gamma and n_v of gammatilde."""
    return cq.gamma_nodes.size // 2, cq.gammatilde_nodes.size // 2


def _magnitudes(cq):
    """The 1-norms |Re| + |Im| of the stored rows, one row per upper-half
    node of both contours, as the fill's exact rounding bound forms them."""
    rows = cq.separable_coeffs
    return np.abs(rows[0::2]) + np.abs(rows[1::2])


def _power_norms(cq, ln_x):
    """The 1-norms |Re| + |Im| of P = x^-u and Q = y^(v-1) over the
    arguments ln_x and every stored upper-half node, each from one complex
    exp, and the node counts n_u and n_v."""
    n_u, n_v = _stored_halves(cq)
    p = np.exp(np.outer(ln_x, -cq.gamma_nodes[:n_u]))
    q = np.exp(np.outer(ln_x, cq.gammatilde_nodes[:n_v] - 1.0))
    p_norms, q_norms = (np.abs(z.real) + np.abs(z.imag) for z in (p, q))
    return p_norms, q_norms, n_u, n_v


def _series_factors(z, params):
    """The residue series of both kernel factors, G1 and G2, at the points z,
    each as (values, ring gaps), from the cached rings of ``params``."""
    rings1, rings2, _ = _series_rings(params)
    return _sum_residues(*rings1, z), _sum_residues(*rings2, z)


def _sum_residues_every_cluster(locs, ring, coeffs, z):
    """The sums and gaps of :func:`_sum_residues` over every cluster of the
    rings, with no cut and no tail check."""
    ln_z = np.log(z)
    per_cluster, per_cluster_even = (coeffs @ np.exp(np.outer(ring, ln_z))).real * np.exp(np.outer(locs, ln_z))
    totals = -per_cluster.sum(axis=0)
    return totals, np.abs(totals + per_cluster_even.sum(axis=0))


def _sum_residues_full_ring(locs, radius, ln_num, z):
    """Reference ring sums: one exp(ln_num(t) + t ln z) per (ring point, z)
    over all _RING_POINTS points of each ring.  Returns the totals, the
    every-other-point gaps and, per z, the magnitude sum of the ring terms,
    the scale of the sums' rounding."""
    theta = 2 * math.pi * np.arange(kernel._RING_POINTS) / kernel._RING_POINTS
    ring = radius * np.exp(1j * theta)
    t = (locs[:, None] + ring[None, :]).ravel()
    ln_z = np.log(np.asarray(z, dtype=float))
    vals = np.exp(ln_num(t)[:, None] + np.outer(t, ln_z))
    vals *= np.tile(ring, locs.size)[:, None]
    rings = vals.reshape(locs.size, kernel._RING_POINTS, -1)
    totals = -rings.mean(axis=1).sum(axis=0)
    gap = np.abs(totals + rings[:, ::2].mean(axis=1).sum(axis=0))
    return totals, gap, np.abs(rings).mean(axis=1).sum(axis=0)


class TestProcessParams:
    def test_valid(self):
        p = ProcessParams(2, 1, (0.5, 1.0), (0.3,))
        assert p.nu_min == 0.3

    def test_requires_r_greater_q(self):
        with pytest.raises(DomainError, match="requires r > q"):
            ProcessParams(2, 2, (0.5, 1.0), (0.3, 0.4))

    def test_requires_nu_above_minus_one(self):
        # -1 and non-finite values, in nu and in mu: NaN compares false
        # with -1, so it needs its own test, as does +inf
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite and > -1"):
                ProcessParams(1, 0, (bad,))
            with pytest.raises(DomainError, match="finite and > -1"):
                ProcessParams(2, 1, (0.5, 1.0), (bad,))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            ProcessParams(2, 0, (0.5,))
        with pytest.raises(DomainError, match="mu must have length q = 1"):
            ProcessParams(2, 1, (0.5, 1.0), (0.3, 0.4))

    def test_non_integer_r(self):
        with pytest.raises(DomainError, match="r and q must be integers"):
            ProcessParams(2.5, 0, (0.5, 1.0))


class TestLogBigF:
    def test_symmetric_point(self):
        p = ProcessParams(1, 0, (0.0,))
        assert abs(log_big_f(0.5, p)) < 1e-13

    def test_direct_cancellation(self):
        p = ProcessParams(2, 0, (0.0, 0.0))
        assert abs(log_big_f(0.5, p) + 0.5723649429247001) < 1e-13

    def test_complex_point_against_oracle(self):
        # mpmath sum of principal log-gammas at 0.5 + 2j, 40 digits
        ref = -2.004585785161083 + 1.0302413886144197j
        assert abs(log_big_f(0.5 + 2.0j, LEFT) - ref) < 1e-12


class TestBuildContours:
    def test_crossing_points(self):
        # each contour's first nodes lie on its crossing segment
        cq = build_contours(ProcessParams(1, 0, (0.0,)), (0.1, 10.0), 1e-12)
        assert (cq.gamma_nodes[0].real, cq.gammatilde_nodes[0].real) == pytest.approx((1 / 3, 2 / 3), abs=1e-15)

    def test_node_count_monotone_in_tol(self):
        p = ProcessParams(1, 0, (0.0,))
        loose = build_contours(p, (0.1, 10.0), 1e-8)
        tight = build_contours(p, (0.1, 10.0), 1e-12)
        assert len(loose.gamma_nodes) <= len(tight.gamma_nodes)
        assert len(loose.gammatilde_nodes) <= len(tight.gammatilde_nodes)

    def test_step_refinement_stability(self, monkeypatch):
        # the rule at h/2 puts a node between each two of the rule at h, so
        # its even nodes are the nodes at h; the kernels agree to rounding
        # (measured 2.0e-15 of max(1, |K|))
        p = ProcessParams(2, 0, (0.5, 1.5))
        x_range = (0.01, 16.0)
        base = build_contours(p, x_range)
        monkeypatch.setattr(kernel, "_STEP", kernel._STEP / 2)
        fine = build_contours(p, x_range)
        for coarse, refined in ((base.gamma_nodes, fine.gamma_nodes), (base.gammatilde_nodes, fine.gammatilde_nodes)):
            coarse, even = coarse[: coarse.size // 2], refined[: refined.size // 2 : 2]
            assert even.size >= coarse.size - 1
            n = min(coarse.size, even.size)
            assert np.array_equal(even[:n], coarse[:n])
        xs = np.geomspace(*x_range, 30)
        k, k_fine = _kernel_matrix(xs, base), _kernel_matrix(xs, fine)
        assert np.all(np.abs(k - k_fine) <= 1e-14 * np.maximum(1.0, np.abs(k_fine)))

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(kernel, "_REACH", 1.0)
        with pytest.raises(ConvergenceError, match="not reached within 1 of the crossing"):
            build_contours(ProcessParams(1, 0, (0.0,)), (0.1, 10.0), 1e-12)

    def test_node_cap_boundary(self, monkeypatch):
        # the candidates run to theta = K h with K = int(ln(1 + _REACH / a) / h),
        # and the cap applies to each contour: both end at node N here, so a
        # reach whose K is N builds the same nodes and one whose K is N - 1
        # raises
        p = ProcessParams(1, 0, (0.0,))
        cq = build_contours(p, (0.1, 10.0), 1e-12)
        assert (cq.gamma_nodes.size, cq.gammatilde_nodes.size) == (172, 172)
        n = cq.gamma_nodes.size // 2 - 1
        a = kernel._WIDTH * cq.gamma_nodes[0].real
        monkeypatch.setattr(kernel, "_REACH", a * math.expm1((n + 0.5) * kernel._STEP))
        capped = build_contours(p, (0.1, 10.0), 1e-12)
        assert np.array_equal(capped.gamma_nodes, cq.gamma_nodes)
        assert np.array_equal(capped.gammatilde_nodes, cq.gammatilde_nodes)
        monkeypatch.setattr(kernel, "_REACH", a * math.expm1((n - 0.5) * kernel._STEP))
        with pytest.raises(ConvergenceError):
            build_contours(p, (0.1, 10.0), 1e-12)

    def test_tip_evaluations_are_batched(self, monkeypatch):
        # one log_big_f for every candidate node of both contours, which
        # gives both the truncation bounds and the weights, and one
        # log_gamma call in it, not one per factor
        calls = {"log_gamma": 0, "log_big_f": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(kernel, "log_gamma", counting("log_gamma", log_gamma))
        monkeypatch.setattr(kernel, "log_big_f", counting("log_big_f", log_big_f))
        cq = build_contours(LEFT, (0.01, 16.0), 1e-12)
        assert (cq.gamma_nodes.size, cq.gammatilde_nodes.size) == (186, 194)
        assert calls == {"log_gamma": 1, "log_big_f": 1}

    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    @pytest.mark.parametrize("x_range", [(1e-6, 256.0), (0.5, 2.0)])
    @pytest.mark.parametrize("params", [LEFT, NEG, NU4, GIN8], ids=["LEFT", "NEG", "NU4", "GIN8"])
    def test_tip_is_first_below_tol(self, params, x_range, tol):
        # each contour ends at its first node from which on
        # ln |F(u) / F(v_0) x^-u| on gamma, or ln |F(u_0) / F(v) y^(v-1)| on
        # gammatilde, at its largest over x_range, is below ln tol at every
        # candidate; checked on hyperbolas formed here.  For NU4 the first
        # nodes of gamma have Re u > 0, so there the x_lo side of the bound
        # is the larger one.  For GIN8 |F(u_0)| is 2.0e-10 and 3.6e-10, far
        # from 1: a cut without the other crossing ends gamma too early
        cq = build_contours(params, x_range, tol)
        for ray, z in enumerate((cq.gamma_nodes, cq.gammatilde_nodes)):
            assert z.size // 2 == _scalar_nodes(params, ray, x_range[0], *x_range, tol)

    @pytest.mark.parametrize("params", [LEFT, NEG, BES, GIN2], ids=["LEFT", "NEG", "BES", "GIN2"])
    def test_lower_half_mirrors_upper(self, params):
        x_range = (0.01, 16.0)
        cq = build_contours(params, x_range, 1e-12)
        u, v, _ = _hyperbolas(params, x_range[0])
        for z, candidates in ((cq.gamma_nodes, u), (cq.gammatilde_nodes, v)):
            h = z.size // 2
            # node 0 is the crossing on the real axis, in both halves
            assert z[0].imag == 0.0 and np.all(z[1:h].imag > 0.0)
            assert np.array_equal(z[h:], np.conj(z[:h]))
            # the upper half is a prefix of the candidate nodes
            assert np.allclose(z[:h], candidates[:h], rtol=1e-15, atol=0.0)
        # one (Im T, Re T) row pair per upper-half node, one column per t-node
        assert cq.separable_coeffs.dtype == np.float64
        assert cq.separable_coeffs.shape == (cq.gamma_nodes.size + cq.gammatilde_nodes.size, _t_size(params, x_range[1]))

    def test_t_rule_underflow_raises(self):
        # kappa = ceil(9 / (1 + nu_min)) = 91 sends the first node of the
        # rule's 72 points below the smallest double
        with pytest.raises(DomainError, match="too close to -1"):
            build_contours(ProcessParams(1, 0, (-0.9,)), (0.1, 1.0), 1e-12)

    def test_overflowing_factors_raise_accuracy_error(self):
        # mu = 200 puts |F| near e^1000 on the crossing: the stored factors
        # overflow and the finiteness check raises, with no numpy warning
        # (the suite turns warnings into errors)
        with pytest.raises(AccuracyError, match="non-finite separable coefficients"):
            build_contours(ProcessParams(2, 1, (0.5, 1.0), (200.0,)), (0.1, 1.0))

    def test_first_tip_when_every_bound_is_below_tol(self):
        # rows (ln |F| part, power): every node's bound is below ln tol
        # over [0.1, 10], so the contour keeps node 0 alone
        bounds = np.array([[-40.0, -50.0, -60.0], [1.0, 2.0, 3.0]])
        assert _first_tip(bounds, math.log(0.1), math.log(10.0), math.log(1e-12)) == 0

    def test_bad_range(self):
        with pytest.raises(DomainError):
            build_contours(LEFT, (2.0, 1.0), 1e-12)
        # a truncation bound of 1 or more stops the rays before the
        # integrand has decayed; NaN must not slip through either
        for tol in (math.inf, 1.0, math.nan, 0.0, -1.0):
            with pytest.raises(DomainError, match="0 < tol < 1"):
                build_contours(LEFT, (0.5, 2.0), tol)
            with pytest.raises(DomainError, match="0 < tol < 1"):
                MeijerKernel(LEFT, (0.5, 2.0), tol=tol)


class TestKernelEval:
    def test_bessel_reduction_at_one(self):
        nu = 0.5
        cq = build_contours(ProcessParams(1, 0, (nu,)), (0.5, 2.0), 1e-12)
        lhs = kernel_eval(1.0, 1.0, cq)
        rhs = 4.0 * BesselKernel(nu).matrix([4.0])[0, 0]
        assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0])
    def test_bessel_reduction_near_zero(self, nu):
        # on contours for (0.9 x, 1.1) gamma crosses at 1/|ln 0.9 x|, so the
        # powers x^-u stay below e and the contour sums keep their digits;
        # measured at most 4.0e-15 of max(1, |K|).  The earlier panel
        # contours were 3.7 off at nu = 0.5, x = 1e-18, with no error raised
        y = 1.0
        for x in (1e-8, 1e-10, 1e-12, 1e-14, 1e-16, 1e-18):
            cq = build_contours(ProcessParams(1, 0, (nu,)), (0.9 * x, 1.1 * y))
            ref = 4.0 * (y / x) ** (nu / 2.0) * BesselKernel(nu).matrix([4.0 * x, 4.0 * y])[0, 1]
            assert abs(kernel_eval(x, y, cq) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_diagonal_nonnegative(self):
        cq = build_contours(LEFT, (0.2, 3.0), 1e-12)
        for x in (0.2, 0.9, 1.7, 3.0):
            assert kernel_eval(x, x, cq) >= 0.0

    def test_outside_range_rejected(self):
        # either argument of a kernel value, or any node of a fill, outside
        # x_range or NaN
        cq = build_contours(LEFT, (0.5, 2.0), 1e-12)
        for x, y in ((5.0, 1.0), (1.0, 5.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                kernel_eval(x, y, cq)
        for xs in ([math.nan], [0.7, math.nan]):
            with pytest.raises(DomainError):
                _kernel_matrix(xs, cq)

    @pytest.mark.parametrize(
        "params, x_lo, rtol",
        [(LEFT, 0.01, 1e-14), (RIGHT, 0.01, 1e-14), (NEG, 1e-6, 2e-14), (BES, 0.01, 1e-14), (GIN2, 0.01, 1e-14)],
        ids=["LEFT", "RIGHT", "NEG", "BES", "GIN2"],
    )
    def test_fold_matches_unfolded_sum(self, params, x_lo, rtol):
        # the folded, factored fill against Re(P C Q^T) over whole contours,
        # theta from -(n - 1) h to (n - 1) h with each node once and its full
        # weight, with the exact Cauchy factor c_ij = g_i g_j / (v_j - u_i);
        # the lower halves carry -conj of the weights.  Measured: 7.8e-16 of
        # max(1, |K|), and 6.1e-15 for NEG, whose kernel near x = 1e-6 is a
        # sum of larger terms
        x_range = (x_lo, 16.0)
        cq = build_contours(params, x_range, 1e-12)
        u, v, du = _hyperbolas(params, x_lo)
        whole = []
        for z, dz, n, sign in (
            (u, du, cq.gamma_nodes.size // 2, 1.0),
            (v, -np.conj(du), cq.gammatilde_nodes.size // 2, -1.0),
        ):
            z = np.concatenate((np.conj(z[n - 1 : 0 : -1]), z[:n]))
            dz = np.concatenate((-np.conj(dz[n - 1 : 0 : -1]), dz[:n]))
            whole.append((z, dz * np.exp(sign * log_big_f(z, params))))
        (u, gu), (v, gv) = whole
        c = np.outer(gu, gv) / (v[None, :] - u[:, None]) / (2j * math.pi) ** 2
        ln_x = np.log(np.geomspace(x_lo, 16.0, 40))
        ref = (np.exp(-np.outer(ln_x, u)) @ c @ np.exp(np.outer(ln_x, v - 1.0)).T).real
        k = _kernel_matrix(np.exp(ln_x), cq)
        assert np.all(np.abs(k - ref) <= rtol * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize(
        "params, x_lo, rtol",
        [(LEFT, 0.01, 1e-13), (RIGHT, 0.01, 1e-13), (NEG, 1e-6, 5e-11), (BES, 0.01, 1e-13), (GIN2, 0.01, 1e-13)],
        ids=["LEFT", "RIGHT", "NEG", "BES", "GIN2"],
    )
    def test_t_rule_convergence(self, params, x_lo, rtol, monkeypatch):
        # the t-rule against one with twice the points and twice the grading
        # exponent; measured at most 1.0e-15 of max(1, |K|), 3.5e-14 for NEG
        xs = np.geomspace(x_lo, 16.0, 40)
        n = _t_size(params, 16.0)
        cq = build_contours(params, (x_lo, 16.0), 1e-12)
        assert cq.separable_coeffs.shape[1] == n
        k = _kernel_matrix(xs, cq)
        monkeypatch.setattr(kernel, "_t_points", lambda *args: 2 * n)
        monkeypatch.setattr(kernel, "_T_GRADING", 2 * kernel._T_GRADING)
        fine = build_contours(params, (x_lo, 16.0), 1e-12)
        assert fine.separable_coeffs.shape[1] == 2 * n
        k_fine = _kernel_matrix(xs, fine)
        assert np.all(np.abs(k - k_fine) <= rtol * np.maximum(1.0, np.abs(k_fine)))

    @pytest.mark.parametrize("x_hi, bound", [(1.0, 2e-14), (32.0, 5e-13), (256.0, 2e-12), (1024.0, 1e-8)])
    @pytest.mark.parametrize(
        "params",
        [LEFT, RIGHT, NEG, GIN2, BES, GIN6] + [ProcessParams(1, 0, (nu,)) for nu in (-0.8, -0.5, 0.0, 0.5, 2.0)],
        ids=["LEFT", "RIGHT", "NEG", "GIN2", "BES", "GIN6", "nu-0.8", "nu-0.5", "nu0", "nu0.5", "nu2"],
    )
    def test_t_rule_size(self, params, x_hi, bound, monkeypatch):
        # the kernel on the rule's t-points against a rule of twice the
        # points, over (1e-3, x_hi).  Measured at most 9.5e-15, 1.3e-13,
        # 7.1e-13 and 2.0e-9 of max(1, |K|) for x_hi = 1, 32, 256 and 1024.
        # At 1024 the fills of LEFT, BES and r = 1 with nu >= 0 cancel past
        # the rounding guard's limit, which is set aside here, and the two
        # rules differ by rounding.  80 points are 3.5e-4 off for nu = -0.8
        # at x_hi = 256, and 4.2e-3 for nu = -0.5 at 1024
        monkeypatch.setattr(kernel, "_ROUNDING_LIMIT", math.inf)
        x_range = (1e-3, x_hi)
        xs = np.concatenate((np.geomspace(*x_range, 40), np.linspace(x_hi / 24, x_hi, 24)))
        assert _doubled_rule_gap(params, x_range, xs, monkeypatch) <= bound

    @pytest.mark.parametrize("grid", ["geometric", "det"])
    def test_t_rule_size_near_zero(self, grid, monkeypatch):
        # NEG on (1e-6, 16), and on det's kappa = 4 grid over [0, 1], whose
        # first node is x = 1.7e-18: the rule's 72 points against 144,
        # measured 2.2e-14 and 2.1e-15 of max(1, |K|) apart
        if grid == "det":
            xs = gauss_legendre_grid(1.0, 200, kappa=4).nodes
            x_range = (0.999 * xs[0], 1.0)
        else:
            x_range = (1e-6, 16.0)
            xs = np.geomspace(*x_range, 40)
        assert _doubled_rule_gap(NEG, x_range, xs, monkeypatch) <= 1e-13

    @pytest.mark.parametrize(
        "params, x_lo", [(LEFT, 0.01), (NEG, 1e-6), (BES, 0.01), (GIN2, 0.01)], ids=["LEFT", "NEG", "BES", "GIN2"]
    )
    def test_factored_powers_match_direct_exp(self, params, x_lo):
        # the build's shared phases e^(-i Im u ln t) times one real exp of
        # Re(ln F(u) - u ln t), or of Re((v - 1) ln t - ln F(v)), per (t-node,
        # contour node) against w F(u) t^-u / (2 pi i)^2 and
        # -4 W wt t^(v-1) / F(v) formed factor by factor; gammatilde's rows
        # hold -conj of the latter.  Entries far below the largest row entry
        # are left out, where a factor alone underflows
        cq = build_contours(params, (x_lo, 256.0), 1e-12)
        u, v, du = _hyperbolas(params, x_lo)
        du[0] /= 2.0
        n_u, n_v = cq.gamma_nodes.size // 2, cq.gammatilde_nodes.size // 2
        u, v, du, dv = u[:n_u], v[:n_v], du[:n_u], -np.conj(du[:n_v])
        rule = gauss_legendre_grid(1.0, _t_size(params, 256.0), math.ceil(kernel._T_GRADING / (1.0 + params.nu_min)))
        t = rule.nodes[None, :]
        t_u = (du * np.exp(log_big_f(u, params)) / (2j * math.pi) ** 2)[:, None] * t ** -u[:, None]
        t_v = (-4.0 * dv / np.exp(log_big_f(v, params)))[:, None] * rule.weights * t ** (v[:, None] - 1.0)
        rows = cq.separable_coeffs
        for ref, got in ((t_u, rows[: 2 * n_u]), (-np.conj(t_v), rows[2 * n_u :])):
            got = got[1::2] + 1j * got[0::2]
            kept = np.abs(ref) > 1e-250 * np.abs(ref).max()
            assert np.all(np.abs(got - ref)[kept] <= 1e-12 * np.abs(ref)[kept])

    @pytest.mark.parametrize("x_range", [(1e-4, 16.0), (1e-6, 256.0), (0.01, 256.0)])
    @pytest.mark.parametrize(
        "params", [LEFT, RIGHT, NEG, GIN2, BES, NU4], ids=["LEFT", "RIGHT", "NEG", "GIN2", "BES", "NU4"]
    )
    def test_shared_power_table_matches_two_tables(self, params, x_range):
        # the fill's one table x^-u, with y^(v-1) = y^nu_min conj(y^-u),
        # against one exp per contour, P = x^-u and Q = y^(v-1) on the stored
        # nodes, and the stored rows (gammatilde's hold -conj T_v); within
        # 10 E, where E = eps |P| |T_u| (|Q| |T_v|)^T is the guard's bound.
        # Measured at most 8.0 E (NU4 over (1e-6, 256), where K cancels) and
        # 4.4 E elsewhere; on LEFT, NU4 and BES gammatilde stores more nodes
        # than gamma, so the table runs past gamma's end
        cq = build_contours(params, x_range)
        xs = np.geomspace(*x_range, 40)
        ln_x = np.log(xs)
        n_u, n_v = _stored_halves(cq)
        rows, mags = cq.separable_coeffs, _magnitudes(cq)
        t_u = rows[1 : 2 * n_u : 2] + 1j * rows[0 : 2 * n_u : 2]
        t_v = -np.conj(rows[2 * n_u + 1 :: 2] + 1j * rows[2 * n_u :: 2])
        p = np.exp(np.outer(ln_x, -cq.gamma_nodes[:n_u]))
        q = np.exp(np.outer(ln_x, cq.gammatilde_nodes[:n_v] - 1.0))
        ref = (p @ t_u).imag @ (q @ t_v).imag.T
        p_norms, q_norms = (np.abs(z.real) + np.abs(z.imag) for z in (p, q))
        bound = kernel._EPS * (p_norms @ mags[:n_u]) @ (q_norms @ mags[n_u:]).T
        assert np.all(np.abs(_kernel_matrix(xs, cq) - ref) <= 10.0 * bound)

    @pytest.mark.parametrize("x_range", [(1e-4, 16.0), (1e-6, 256.0), (0.01, 256.0)])
    @pytest.mark.parametrize(
        "params", [LEFT, RIGHT, NEG, GIN2, BES, NU4], ids=["LEFT", "RIGHT", "NEG", "GIN2", "BES", "NU4"]
    )
    def test_screen_bounds_rounding_bound(self, params, x_range):
        # Cauchy-Schwarz over the t-rule: with rho the 2-norms of the stored
        # magnitude rows, a = |P| rho_u and b = |Q| rho_v, every entry of
        # E = eps |P| |T_u| (|Q| |T_v|)^T is at most eps a_i b_j.  Measured
        # eps a_i b_j >= 1.26 E_ij (BES over (1e-6, 256)); up to 3.4e-6 of
        # max(1, |K|) (NEG over (0.01, 256), where E reads 1.3e-13)
        cq = build_contours(params, x_range)
        p_norms, q_norms, n_u, n_v = _power_norms(cq, np.log(np.geomspace(*x_range, 40)))
        mags, norms = _magnitudes(cq), cq.magnitude_norms
        assert norms.shape == (mags.shape[0],)
        assert np.allclose(norms, np.linalg.norm(mags, axis=1), rtol=1e-15, atol=0.0)
        bound = kernel._EPS * (p_norms @ mags[:n_u]) @ (q_norms @ mags[n_u:]).T
        screen = kernel._EPS * np.outer(p_norms @ norms[:n_u], q_norms @ norms[n_u:])
        assert np.all(bound <= screen)

    def test_power_table_matches_complex_exp(self):
        # the half-angle table against numpy's complex exp of the same
        # complex products, on NEG's contours over (1e-18, 256), where the
        # phases reach |Im u ln x| = 1063 and 4 entries fall below
        # e^_MIN_EXPONENT: within 3 eps |P| entry by entry (measured 2.0),
        # and exactly 0 below e^_MIN_EXPONENT
        cq = build_contours(NEG, (1e-18, 256.0))
        ln_x = np.log(np.geomspace(1e-18, 256.0, 200))
        exponents = -cq.gamma_nodes[: cq.gamma_nodes.size // 2]
        p, p_norms = kernel._power_table(ln_x, exponents)
        arg = np.outer(ln_x, exponents)
        cut = arg.real < kernel._MIN_EXPONENT
        assert cut.any() and not cut.all()
        assert np.all(p[cut] == 0.0)
        ref = np.exp(arg[~cut])
        assert np.all(np.abs(p[~cut] - ref) <= 3.0 * kernel._EPS * np.abs(ref))
        assert np.array_equal(p_norms, np.abs(p.real) + np.abs(p.imag))

    def test_rounding_guard(self, monkeypatch):
        # for nu = 4 over (0.01, 256) the contour sums cancel: the rounding
        # bound reads 3.1e-9 of max(1, |K|) here, above a limit of 1e-9 and
        # below the shipped one
        cq = build_contours(NU4, (0.01, 256.0), 1e-12)
        xs = np.geomspace(0.01, 256.0, 20)
        _kernel_matrix(xs, cq)
        monkeypatch.setattr(kernel, "_ROUNDING_LIMIT", 1e-9)
        with pytest.raises(AccuracyError, match="rounding bound"):
            _kernel_matrix(xs, cq)

    @pytest.mark.parametrize("limit", [1e-9, 4e-9, 1e-8])
    def test_rounding_guard_forms_exact_bound(self, limit, monkeypatch):
        # nu = 4 over (0.01, 256): E reads 3.1e-9 of max(1, |K|) and the
        # screen eps a_i b_j 5.9e-9 (1.7e-8 for eps max a max b), so under
        # each limit here neither screen clears the fill, which forms E from
        # the norms of its one power table and raises exactly where E
        # exceeds the limit, reporting E's ratio, not the screen's
        cq = build_contours(NU4, (0.01, 256.0), 1e-12)
        xs = np.geomspace(0.01, 256.0, 20)
        vals = _kernel_matrix(xs, cq)
        p_norms, q_norms, n_u, n_v = _power_norms(cq, np.log(xs))
        mags = _magnitudes(cq)
        bound = kernel._EPS * (p_norms @ mags[:n_u]) @ (q_norms @ mags[n_u:]).T
        ratio = float(np.max(bound / np.maximum(1.0, np.abs(vals))))
        assert 3.0e-9 < ratio < 3.2e-9
        monkeypatch.setattr(kernel, "_ROUNDING_LIMIT", limit)
        used = _spy_tables(monkeypatch)
        if ratio > limit:
            with pytest.raises(AccuracyError, match="rounding bound") as err:
                _kernel_matrix(xs, cq)
            assert float(str(err.value).split()[2]) == pytest.approx(ratio, rel=1e-3)
        else:
            assert np.array_equal(_kernel_matrix(xs, cq), vals)
        assert used == [max(n_u, n_v)]  # one table, E included

    def test_pointwise_fill_forms_exact_bound(self, monkeypatch):
        # one entry K(0.3, 1.2) = 0.112 of LEFT: the screen eps a b reads
        # 1.3e-6 of max(1, |K|), above the limit, and E 2.3e-16, so the
        # fill forms E from the norms of its one table and returns the entry
        handle = MeijerKernel(LEFT, (0.3, 1.2), tol=1e-12)
        ref = handle.matrix(np.array([0.3, 1.2]))[0, 1]
        used = _spy_tables(monkeypatch)
        assert abs(kernel_eval(0.3, 1.2, handle.cq) - ref) < 1e-14
        assert used == [max(_stored_halves(handle.cq))]

    def test_overflowing_fill_raises(self, monkeypatch):
        # over (0.5, 1e6) the far nodes' powers x^-u overflow; with the
        # rounding limit lifted out of the way the non-finite entries (80 of
        # 400) must still raise, without a numpy warning, not be returned
        cq = build_contours(ProcessParams(3, 0, (1.31, 2.15, 3.19)), (0.5, 1e6))
        xs = np.geomspace(0.5, 1e6, 20)
        monkeypatch.setattr(kernel, "_ROUNDING_LIMIT", 1e300)
        with pytest.raises(AccuracyError, match="80 of 400 kernel entries or bounds not finite"):
            _kernel_matrix(xs, cq)

    def test_neg_crossing_determinants(self):
        # ln det(1 - K|[0,s]) for NEG, settled to 13 digits on fine panel
        # contours; the hyperbolas, which cross the real axis between NEG's
        # poles at 0 and 1/2, are 5.5e-14 and 4.3e-13 off.  Panel contours
        # with one crossing panel of length 1 were 6.5e-6 and 2.0e-5 off
        for s, ref in ((1.0, -1.8651766711303), (4.0, -4.4845830616002)):
            grid = gauss_legendre_grid(s, 100, kappa=4)
            handle = MeijerKernel(NEG, (0.999 * grid.nodes[0], s))
            assert abs(log_gap_determinant(s, grid, handle) - ref) < 1e-11

    @pytest.mark.parametrize("nu", [2.0, 3.0, 4.0])
    def test_graded_grids_match_bessel_route(self, nu):
        # r = 1 on a kappa = 2 grid over [0, s], as a max(2, .) grading would
        # give nu >= 1, against the Bessel kernel on [0, 4s]: the two define
        # the same determinant.  Measured at most 4.6e-13 apart; the panel
        # contours raised AccuracyError in most of these cells, where the
        # graded first node fell into their loss of accuracy near x = 0
        params = ProcessParams(1, 0, (nu,))
        for s in (1.0, 16.0):
            for m in (80, 200):
                grid = gauss_legendre_grid(s, m, 2)
                ld = log_gap_determinant(s, grid, MeijerKernel(params, (0.999 * grid.nodes[0], s)))
                ref = log_gap_determinant(4.0 * s, gauss_legendre_grid(4.0 * s, m, 2), BesselKernel(nu))
                assert abs(ld - ref) < 1e-10

    def test_neg_t_rule_near_zero_leaves_det(self, monkeypatch):
        # det's kappa = 4 grid puts NEG's first node at x = 1.7e-18, where the
        # 72-point t-rule is 2.0e-15 of max(1, |K|) (|K| = 5e8) off a
        # 288-point one; ln det moves by less than 1e-15 with points and
        # grading doubled
        grid = gauss_legendre_grid(1.0, 200, kappa=4)
        x_range = (0.999 * grid.nodes[0], 1.0)
        ref = log_gap_determinant(1.0, grid, MeijerKernel(NEG, x_range))
        n = _t_size(NEG, 1.0)
        monkeypatch.setattr(kernel, "_t_points", lambda *args: 2 * n)
        monkeypatch.setattr(kernel, "_T_GRADING", 2 * kernel._T_GRADING)
        assert abs(log_gap_determinant(1.0, grid, MeijerKernel(NEG, x_range)) - ref) < 1e-11


class TestCallTip:
    """Each fill multiplies every node the build stored, whatever the span
    of its own arguments."""

    @pytest.mark.parametrize(
        "params, x_lo", [(LEFT, 0.01), (RIGHT, 0.01), (NEG, 1e-6), (BES, 0.01), (GIN2, 0.01)],
        ids=["LEFT", "RIGHT", "NEG", "BES", "GIN2"],
    )
    def test_wide_build_matches_narrow_build(self, params, x_lo):
        # contours built up to 256 and filled on [x_lo, 16] against contours
        # built for [x_lo, 16]
        xs = np.geomspace(x_lo, 16.0, 40)
        wide = _kernel_matrix(xs, build_contours(params, (x_lo, 256.0)))
        narrow = _kernel_matrix(xs, build_contours(params, (x_lo, 16.0)))
        assert np.all(np.abs(wide - narrow) <= 1e-14 * np.maximum(1.0, np.abs(narrow)))

    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    @pytest.mark.parametrize("params", [LEFT, NEG, NU4], ids=["LEFT", "NEG", "NU4"])
    def test_fill_uses_every_stored_node(self, params, tol, monkeypatch):
        # on contours built for (1e-6, 256), a fill over any part of that
        # range takes one table over every stored node of the longer contour
        # and no second one
        cq = build_contours(params, (1e-6, 256.0), tol)
        used = _spy_tables(monkeypatch)
        for lo, hi in ((1e-6, 256.0), (0.01, 256.0), (0.5, 2.0), (1e-6, 1.0), (4.0, 256.0)):
            args = np.geomspace(lo, hi, 7)
            used.clear()
            _kernel_matrix(args, cq)
            assert used == [max(_stored_halves(cq))]

    def test_pointwise_matches_square_entries(self):
        # kernel_eval, the [0, 1] entry of the two-point fill on [x, y],
        # against every entry of the square fill on a wider grid: the same
        # nodes and table entries, summed by products of another shape,
        # within 1e-14 of max(1, |K|) on narrow x narrow and within E
        # everywhere (the y = 256 column cancels, E up to 1e-11 of
        # max(1, |K|)); the two-point fill's diagonal entries, which its
        # guard reads too, within E as well
        cq = build_contours(LEFT, (0.01, 256.0))
        narrow = np.geomspace(0.01, 16.0, 5)
        wide = np.concatenate((narrow, [64.0, 256.0]))
        full = _kernel_matrix(wide, cq)
        p_norms, q_norms, n_u, _ = _power_norms(cq, np.log(wide))
        mags = _magnitudes(cq)
        bound = kernel._EPS * (p_norms @ mags[:n_u]) @ (q_norms @ mags[n_u:]).T
        pairs = np.array([[_kernel_matrix([x, y], cq) for y in wide] for x in wide])
        pointwise = np.array([[kernel_eval(x, y, cq) for y in wide] for x in wide])
        assert np.array_equal(pointwise, pairs[:, :, 0, 1])
        err, block = np.abs(pointwise - full), (slice(narrow.size), slice(narrow.size))
        assert np.all(err[block] <= 1e-14 * np.maximum(1.0, np.abs(full[block])))
        assert np.all(err <= bound)
        diag = np.diagonal(full)
        assert np.all(np.abs(pairs[:, :, 0, 0] - diag[:, None]) <= np.diagonal(bound)[:, None])
        assert np.all(np.abs(pairs[:, :, 1, 1] - diag[None, :]) <= np.diagonal(bound)[None, :])

    def test_slack_around_x_range(self):
        # arguments up to 0.1% outside x_range are accepted and filled on the
        # stored nodes; further out they raise
        x_range = (0.01, 16.0)
        cq = build_contours(LEFT, x_range)
        args = np.geomspace(0.999 * x_range[0], 1.001 * x_range[1], 9)
        assert np.all(np.isfinite(_kernel_matrix(args, cq)))
        for x in (0.9989 * x_range[0], 1.0011 * x_range[1]):
            with pytest.raises(DomainError, match="outside the x_range"):
                kernel_eval(x, 1.0, cq)


class TestKernelSeries:
    def test_first_factor_is_bessel_series(self):
        # for r=1, q=0 the first factor reduces to z^(-nu/2) J_nu(2 sqrt z)
        p = ProcessParams(1, 0, (0.5,))
        z = 0.25
        ref = z ** (-0.25) * bessel_j(0.5, 2.0 * math.sqrt(z))
        (got, _), _ = _series_factors(np.array([z]), p)
        assert abs(got[0] - ref) < 1e-13

    def test_factors_against_mpmath(self):
        mp.mp.dps = 30
        p = ProcessParams(2, 1, (0.5, 1.2), (0.7,))
        z = 0.35
        g1_ref = complex(mp.meijerg([[-0.7], []], [[0], [-0.5, -1.2]], z))
        g2_ref = complex(mp.meijerg([[], [0.7]], [[0.5, 1.2], [0]], z))
        (g1, _), (g2, _) = _series_factors(np.array([z]), p)
        assert abs(g1[0] - g1_ref) < 1e-12
        assert abs(g2[0] - g2_ref) < 1e-12

    @pytest.mark.parametrize("mu", [-0.7, -0.8, -0.9])
    def test_mu_near_minus_one_against_mpmath(self, mu):
        # the first factor's integrand F(-t) has a pole of Gamma(1 + mu + t)
        # at t = -1 - mu, inside a ring of radius 0.25 around t = 0 for
        # mu < -0.75; its rings must keep within 0.35 (1 + mu_min) of 0
        mp.mp.dps = 30
        p = ProcessParams(2, 1, (0.5, 1.2), (mu,))
        z = 0.35
        g1_ref = complex(mp.meijerg([[-mu], []], [[0], [-0.5, -1.2]], z))
        (g1, _), _ = _series_factors(np.array([z]), p)
        assert abs(g1[0] - g1_ref) < 1e-12

    def test_double_pole_case_against_mpmath(self):
        mp.mp.dps = 30
        p = ProcessParams(2, 0, (0.0, 0.0))
        z = 0.5
        g2_ref = complex(mp.meijerg([[], []], [[0.0, 0.0], [0]], z))
        _, (g2, _) = _series_factors(np.array([z]), p)
        assert abs(g2[0] - g2_ref) < 1e-12

    def test_mu_near_minus_one_agrees_with_contour(self):
        # a first-factor ring of radius 0.25 around t = 0 would enclose the
        # pole at t = -0.2
        params = ProcessParams(2, 1, (0.5, 1.2), (-0.8,))
        cq = build_contours(params, (0.45, 0.77))
        assert abs(kernel_eval_series(0.5, 0.7, params) - kernel_eval(0.5, 0.7, cq)) < 1e-12

    @pytest.mark.parametrize(
        "params",
        [
            ProcessParams(2, 1, (0.0, 1.0), (0.25,)),
            ProcessParams(2, 1, (0.0, 1.0), (3.25,)),
            ProcessParams(2, 1, (0.5, 1.5), (0.75,)),
            ProcessParams(2, 1, (0.5, 1.5), (0.25,)),
            ProcessParams(3, 2, (0.0, 1.0, 2.0), (1.75, 2.25)),
            ProcessParams(2, 1, (0.5, 0.0), (3.675,)),
        ],
        ids=["mu0.25", "mu3.25", "half-mu0.75", "half-mu0.25", "r3q2", "mu3.675"],
    )
    def test_ring_point_on_an_amplitude_zero(self, params):
        # a real ring point of G2 falls on a pole of 1/Gamma(mu_k - t), where
        # the amplitude is 0 and log_big_f raises PoleError: for mu = 0.25
        # the ring of radius 0.25 around t = 0 passes t = 0.25, and for
        # mu = 3.675 the ring of radius 0.175 around 3.5 passes 3.675.
        # Measured at most 4.7e-14 off the contour route
        cq = build_contours(params, (0.45, 2.0))
        for x, y in ((0.5, 0.7), (1.5, 1.9)):
            assert abs(kernel_eval_series(x, y, params) - kernel_eval(x, y, cq)) < 1e-12

    def test_first_factor_ring_point_on_an_amplitude_zero(self):
        # nu = -0.75: G1's ring of radius 0.25 around t = 0 passes t = -0.25,
        # a pole of 1/Gamma(1 + nu + t), and G2's ring around -0.75 passes
        # t = -1, a pole of 1/Gamma(1 + t); the amplitude there is 0, and the
        # call fails as any nu_min below about -0.55 does, on its rings
        with pytest.raises(ConvergenceError, match="residue rings unresolved"):
            kernel_eval_series(0.5, 0.7, ProcessParams(2, 0, (-0.75, 0.5)))

    @pytest.mark.parametrize(
        "params",
        [GIN2, ProcessParams(2, 0, (0.0, 0.0)), BES, R6Q5],
        ids=["logarithmic", "double-pole", "BES", "r6q5"],
    )
    def test_agrees_with_contour(self, params):
        # BES adds r = 1 to the r = 2, 3 shapes of the verify oracle check,
        # and r = 6, q = 5 a family with six pole chains in the second factor
        cq = build_contours(params, (0.25, 1.0), 1e-12)
        assert abs(kernel_eval_series(0.5, 0.5, params) - kernel_eval(0.5, 0.5, cq)) < 1e-8

    def test_t_quadrature_refinement(self, monkeypatch, fresh_series_rings):
        p = ProcessParams(2, 0, (0.0, 1.0))
        fine = kernel_eval_series(0.5, 0.8, p)
        monkeypatch.setattr(kernel, "_SERIES_T_POINTS", 40)
        _series_rings.cache_clear()
        coarse = kernel_eval_series(0.5, 0.8, p)
        # the coarse value comes from a 40-point rule, not the cached 80-point one
        assert _series_rings.cache_info().misses == 1
        assert _series_rings.cache_info().currsize == 1
        assert _series_rings(p)[2][0].size == 40
        assert abs(coarse - fine) < 1e-10

    def test_positive_arguments_required(self):
        bad = (-1.0, 0.0, math.nan, math.inf, -math.inf)
        for x, y in [(b, 0.5) for b in bad] + [(0.5, b) for b in bad]:
            with pytest.raises(DomainError, match="must be positive and finite"):
                kernel_eval_series(x, y, LEFT)

    def test_second_call_reuses_rings(self, monkeypatch, fresh_series_rings):
        # the rings and the t-rule are built once per parameter set: a second
        # call makes no log_big_f call and keeps the bits of a call on an
        # empty cache
        first = kernel_eval_series(0.5, 0.7, LEFT)
        calls = []

        def counting(z, params):
            calls.append(np.size(z))
            return log_big_f(z, params)

        monkeypatch.setattr(kernel, "log_big_f", counting)
        again = kernel_eval_series(0.5, 0.7, LEFT)
        assert calls == [] and _series_rings.cache_info().hits == 1
        monkeypatch.undo()
        _series_rings.cache_clear()
        assert first == again == kernel_eval_series(0.5, 0.7, LEFT)

    def test_int_and_float_parameters_share_rings(self, fresh_series_rings):
        as_ints = kernel_eval_series(0.5, 0.7, ProcessParams(2, 0, (0, 1)))
        as_floats = kernel_eval_series(0.5, 0.7, ProcessParams(2.0, 0.0, (0.0, 1.0)))
        info = _series_rings.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert as_ints == as_floats

    def test_cached_rings_are_read_only(self, fresh_series_rings):
        entry = _series_rings(LEFT)
        arrays = [a for part in entry for a in part]
        assert len(arrays) == 8
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 0.0
        assert _series_rings(LEFT) is entry

    def test_errors_are_not_cached(self, fresh_series_rings):
        # a parameter set that raises while its rings are built raises again
        # on the next call, and leaves no entry
        for params, error in ((ProcessParams(2, 0, (0.5, 0.5 + 1e-6)), ConvergenceError), (ProcessParams(1, 0, (-0.99,)), DomainError)):
            for _ in range(2):
                with pytest.raises(error):
                    kernel_eval_series(0.5, 0.7, params)
        assert _series_rings.cache_info().currsize == 0

    @pytest.mark.parametrize("nu", [-0.97, -0.99])
    def test_t_rule_underflow_raises(self, nu, fresh_series_rings):
        # kappa = ceil(4 / (1 + nu)) = 134 and 400 send the first node of
        # the 80-point t-rule below the smallest double; the oracle reports
        # it in the build's words, not the grid's, and caches nothing
        params = ProcessParams(1, 0, (nu,))
        with pytest.raises(DomainError, match="too close to -1: the graded t-rule underflows") as series:
            kernel_eval_series(0.5, 0.7, params)
        with pytest.raises(DomainError) as build:
            build_contours(params, (0.1, 1.0))
        assert str(series.value) == str(build.value)
        assert _series_rings.cache_info().currsize == 0

    def test_nearly_coincident_pole_families_raise(self):
        # the ring radius is 0.35 of the smallest gap between clusters and
        # must stay at 1e-6 or more: nu_2 - nu_1 = 1e-6 raises, 3e-6 does
        # not.  At 3e-6 the residues of each pole pair cancel: at (0.5, 0.7)
        # the second factor's largest term is 1.4e6 times its sum.  So the
        # cluster cut is measured against the sum; a cut at 1e-17 of the
        # largest term left the tail check's cluster above 1e-14 of the sum,
        # and this call raised
        with pytest.raises(ConvergenceError, match="pole families nearly coincide"):
            kernel_eval_series(0.5, 0.7, ProcessParams(2, 0, (0.5, 0.5 + 1e-6)))
        assert math.isfinite(kernel_eval_series(0.5, 0.7, ProcessParams(2, 0, (0.5, 0.5 + 3e-6))))

    def test_truncated_series_raises(self, monkeypatch, fresh_series_rings):
        # six residue clusters per chain leave a last term far above 1e-14
        # of the partial sum: every cluster is above the cut, so the tail
        # check measures the sixth
        monkeypatch.setattr(kernel, "_SERIES_TERMS", 6)
        rings, _, (t, _) = _series_rings(BES)
        assert _clusters_needed(*rings, math.log(t.max() * 0.7)) == 6
        with pytest.raises(ConvergenceError, match="residue series not converged"):
            kernel_eval_series(0.5, 0.7, BES)

    @pytest.mark.parametrize("x", [0.05, 1.0, 2.1])
    @CUT_FAMILIES
    def test_cut_keeps_the_bits_of_every_cluster(self, params, x, monkeypatch):
        # each call sums only the leading clusters its largest z needs; over
        # the oracle's t-rule its sums and gaps equal those over every
        # cluster bit for bit, and each factor leaves clusters out
        needed, counts = _clusters_needed, []

        def counting(locs, ring, coeffs, ln_top):
            counts.append((needed(locs, ring, coeffs, ln_top), locs.size))
            return counts[-1][0]

        monkeypatch.setattr(kernel, "_clusters_needed", counting)
        rings1, rings2, (t, _) = _series_rings(params)
        for rings in (rings1, rings2):
            got = _sum_residues(*rings, t * x)
            ref = _sum_residues_every_cluster(*rings, t * x)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert len(counts) == 2 and all(n < size for n, size in counts)

    def test_non_finite_terms_sum_every_cluster(self, monkeypatch):
        # at t x up to 1e300 the first factor's terms overflow, so the cut
        # is not finite and every cluster is summed; the NaN that follows
        # fails the ring check as a ConvergenceError, with no numpy warning
        # (the suite turns warnings into errors)
        needed, counts = _clusters_needed, []

        def counting(locs, ring, coeffs, ln_top):
            counts.append((needed(locs, ring, coeffs, ln_top), locs.size))
            return counts[-1][0]

        monkeypatch.setattr(kernel, "_clusters_needed", counting)
        with pytest.raises(ConvergenceError, match="residue rings unresolved"):
            kernel_eval_series(1e300, 0.5, BES)
        assert counts[0] == (48, 48)

    @CUT_FAMILIES
    def test_clusters_needed_grow_with_x(self, params):
        # the largest t x sets the cut: later clusters' terms grow faster
        # with z, so larger arguments need more of them
        rings1, rings2, (t, _) = _series_rings(params)
        for rings in (rings1, rings2):
            counts = [_clusters_needed(*rings, math.log(t.max() * x)) for x in (0.05, 0.3, 1.0, 2.1, 4.0)]
            assert counts == sorted(counts) and counts[0] < counts[-1] < rings[0].size

    @pytest.mark.parametrize("x", [0.05, 2.0])
    @pytest.mark.parametrize(
        "params",
        [GIN2, LEFT, RIGHT, NEAR, ProcessParams(2, 0, (0.0, 0.0))],
        ids=["GIN2", "LEFT", "RIGHT", "NEAR", "double-pole"],
    )
    def test_folded_rings_match_full_rings(self, params, x):
        # the conjugate-folded ring sums against ln F evaluated by
        # log_big_f at every point of every full ring, one exp per
        # (ring point, z), over the oracle's t-rule; near z = 0 (and for
        # NEAR's ring radius 1.75e-4) the ring terms exceed the value by up
        # to 1e7, so the differences, at most 3.3e-15 of the magnitude sum,
        # are measured on that sum
        kappa = max(4, math.ceil(4.0 / (1.0 + params.nu_min)))
        z = x * gauss_legendre_grid(1.0, kernel._SERIES_T_POINTS, kappa).nodes
        got = _series_factors(z, params)
        integrands = (((0.0,), lambda t: log_big_f(-t, params)), (params.nu, lambda t: -log_big_f(1.0 + t, params)))
        for (total, gap), (bases, ln_num) in zip(got, integrands):
            ref_total, ref_gap, magnitude = _sum_residues_full_ring(*_cluster_poles(bases, 0.25), ln_num, z)
            assert np.all(np.abs(total - ref_total) <= 1e-14 * magnitude)
            assert np.all(np.abs(gap - ref_gap) <= 1e-14 * magnitude)

    @pytest.mark.parametrize(
        "bases",
        [(0.0,), LEFT.nu, NEG.nu, NEAR.nu, (0.0, 0.0), (0.5, 0.5, 0.5), R6Q5.nu, tuple(float(j) for j in range(10))],
        ids=["G1", "LEFT", "NEG", "NEAR", "double", "triple", "r6q5", "GIN10"],
    )
    def test_cluster_merge_matches_loop(self, bases):
        # the one-sort merge against a loop over the poles in ascending
        # order that starts a cluster, located at its lowest pole, at each
        # pole 1e-9 or more above the one before it
        locs, radius = _cluster_poles(bases, 0.25)
        poles = sorted(b + k for b in bases for k in range(kernel._SERIES_TERMS))
        ref = [poles[0]] + [b for a, b in zip(poles, poles[1:]) if b - a >= 1e-9]
        assert locs.tolist() == ref
        assert radius == min(0.25, 0.35 * min(b - a for a, b in zip(ref, ref[1:])))

    def test_chained_near_poles_form_one_cluster(self):
        # poles 6e-10 apart chain across 1.2e-9: each joins the cluster of
        # the pole below it, so one ring of radius 0.25 at the lowest pole
        # encloses all three chains' poles at each step (a merge against the
        # cluster's lowest pole split them and raised on a radius of 4e-10);
        # measured at most 2.0e-14 off the contour route
        nu = (0.5, 0.5 + 6e-10, 0.5 + 1.2e-9)
        locs, radius = _cluster_poles(nu, 0.25)
        assert np.array_equal(locs, 0.5 + np.arange(kernel._SERIES_TERMS)) and radius == 0.25
        params = ProcessParams(3, 0, nu)
        cq = build_contours(params, (0.05, 2.0))
        for x, y in ((0.05, 2.0), (2.0, 0.05), (0.5, 0.7), (1.3, 1.3)):
            assert abs(kernel_eval_series(x, y, params) - kernel_eval(x, y, cq)) < 1e-13

    def test_ring_points_are_folded(self, monkeypatch, fresh_series_rings):
        # LEFT has 48 clusters in G1 (the chain 0, 1, ...) and 144 in G2
        # (three chains at nu_j + k); ln F is evaluated on the upper half of
        # every ring (21 of its 40 points), one call per block of at most
        # _SERIES_TERMS = 48 clusters
        points = []

        def counting(z, params):
            points.append(np.size(z))
            return log_big_f(z, params)

        monkeypatch.setattr(kernel, "log_big_f", counting)
        kernel_eval_series(0.5, 0.7, LEFT)
        assert points == [48 * 21] * 4 and sum(points) == (48 + 144) * 21

    def test_first_call_memory(self, fresh_series_rings):
        # RIGHT's G2 has 192 clusters; its amplitudes come from log_big_f
        # in blocks of 48 clusters, and a first call peaks at 1.7 MB in
        # tracemalloc (4.6 MB with one call per factor).  A BES call first
        # builds what every parameter set shares, the 80-point Legendre rule
        kernel_eval_series(0.5, 0.7, BES)
        tracemalloc.start()
        try:
            kernel_eval_series(0.5, 0.7, RIGHT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _series_rings.cache_info().misses == 2
        assert peak < 2e6

    def test_unresolved_rings_raise(self):
        # at nu_min <= -0.6 the graded t-nodes send t x far below 1e-40,
        # where the residue rings no longer resolve z^t
        for nu in (-0.6, -0.7, -0.95):
            with pytest.raises(ConvergenceError, match="rings unresolved"):
                kernel_eval_series(0.5, 0.7, ProcessParams(1, 0, (nu,)))
        nu = -0.5
        reduction = 4.0 * (0.7 / 0.5) ** (nu / 2.0) * BesselKernel(nu).matrix([2.0, 2.8])[0, 1]
        assert abs(kernel_eval_series(0.5, 0.7, ProcessParams(1, 0, (nu,))) - reduction) < 1e-12


class TestPastCatalogue:
    """The contour kernel at r - q from 5 to 10, past the benchmark
    catalogue's 3, against the residue series."""

    @pytest.mark.parametrize(
        "params, rtol",
        [(ProcessParams(r, 0, tuple(float(j) for j in range(r))), 1e-10) for r in (6, 8, 10)]
        + [(ProcessParams(r, 0, (0.5,) * r), 1e-9) for r in (5, 6, 7, 8)],
        ids=["GIN6", "GIN8", "GIN10", "HALF5", "HALF6", "HALF7", "HALF8"],
    )
    def test_agrees_with_series(self, params, rtol):
        # GIN_r (nu = 0, 1, ..., r - 1): |F| at gamma's crossing is 3.6e-10
        # for r = 8, so a cut on |F(u) x^-u| alone, not measured against
        # F(v_0), kept 3 digits of gamma's terms (2.5e-4 off at r = 8, 1.7 at
        # r = 10, one node of gamma).  All nu_j = 0.5: the step 0.05 was
        # 1.6e-5 off at r = 8, h = 0.2/9 is not.  Measured at most 6.3e-12
        # (GIN10) and 5.9e-11 (HALF8) of max |K|; the series' own ring spread
        # is about 2e-10 of max |K| at r = 8
        cq = build_contours(params, (0.05, 2.0))
        points = ((0.05, 2.0), (2.0, 0.05), (0.5, 0.7), (1.3, 1.3), (0.05, 0.05), (2.0, 2.0))
        ref = np.array([kernel_eval_series(x, y, params) for x, y in points])
        got = np.array([kernel_eval(x, y, cq) for x, y in points])
        assert np.all(np.abs(got - ref) <= rtol * np.abs(ref).max())


class TestBesselKernel:
    def test_diagonal_origin(self):
        assert BesselKernel(0.0).matrix([0.0])[0, 0] == 0.25

    def test_domain_errors(self):
        for x, y in ((-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match="requires x, y >= 0"):
                BesselKernel(0.5).matrix([x, y])
        for nu in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="requires finite nu > -1"):
                BesselKernel(nu)

    def test_symmetry(self):
        mat = BesselKernel(0.5).matrix([1.3, 2.7])
        assert mat[0, 1] == mat[1, 0]

    def test_half_integer_closed_form(self):
        # elementary form via J_1/2(t) = sqrt(2/(pi t)) sin t   (mpmath: 0.09678735647946624)
        x, y = 1.3, 2.7
        sx, sy = math.sqrt(x), math.sqrt(y)
        j = lambda t: math.sqrt(2 / (math.pi * t)) * math.sin(t)
        tjp = lambda t: 0.5 * j(t) - t * bessel_j(1.5, t)
        ref = (j(sx) * tjp(sy) - tjp(sx) * j(sy)) / (2 * (x - y))
        assert abs(BesselKernel(0.5).matrix([x, y])[0, 1] - ref) < 1e-10
        assert abs(ref - 0.09678735647946624) < 1e-12

    def test_near_diagonal_switch_is_continuous(self):
        # the switch sits at |x - y| = 1e-6 max(x, y), about 2e-6 here
        nu = 0.7
        inside = BesselKernel(nu).matrix([2.0, 2.0 + 1.98e-6])[0, 1]
        outside = BesselKernel(nu).matrix([2.0, 2.0 + 2.02e-6])[0, 1]
        assert abs(inside - outside) < 1e-8

    def test_near_diagonal_limit_against_mpmath(self):
        # (x, y, nu, absolute tolerance, relative tolerance) against a
        # 40-digit quotient; near 0 the kernel varies on the scale of x
        # itself, so pairs closer than 1e-6 in absolute terms still need it,
        # and with the nu terms of the numerator cancelled analytically the
        # quotient keeps its digits there
        cases = [(2.0, 2.0 + 5e-7, nu, 1e-12, 0.0) for nu in (0.0, 0.7, 2.0)]
        cases += [(1e-7, 3e-7, 0.7, 0.0, 1e-12), (1e-4, 1e-4 + 9e-7, 0.7, 0.0, 1e-12)]
        mp.mp.dps = 40
        for x, y, nu, atol, rtol in cases:
            sx, sy = mp.sqrt(mp.mpf(x)), mp.sqrt(mp.mpf(y))
            tjp = lambda t: nu * mp.besselj(nu, t) - t * mp.besselj(nu + 1, t)
            ref = float((mp.besselj(nu, sx) * tjp(sy) - tjp(sx) * mp.besselj(nu, sy)) / (2 * (mp.mpf(x) - mp.mpf(y))))
            assert abs(BesselKernel(nu).matrix([x, y])[0, 1] - ref) <= atol + rtol * abs(ref)

    def test_matrix_fill_evaluates_bessel_per_node(self, monkeypatch):
        calls = []

        def counted(nu, x):
            calls.append(nu)
            return bessel_j(nu, x)

        monkeypatch.setattr(kernel, "bessel_j", counted)
        grid = gauss_legendre_grid(4.0, 100, kappa=2)
        BesselKernel(0.5).matrix(grid.nodes)
        assert len(calls) <= 4

    def test_matrix_matches_pointwise(self):
        # the grids put the near-diagonal switch on the diagonal only; the
        # clustered nodes add off-diagonal pairs inside it, near 0 and away,
        # and the limit at x = y = 0
        clustered = np.array([0.0, 1e-7, 1e-7 * (1 + 5e-7), 1.0, 1.0 + 5e-7, 3.0])
        grids = [gauss_legendre_grid(s, m, kappa=kappa).nodes for s, m, kappa in ((1e-8, 4, 1), (4.0, 30, 4))]
        for xs, nus in ((grids[0], (0.0, 0.5, 2.0)), (grids[1], (0.5,)), (clustered, (0.0, 0.5))):
            for nu in nus:
                mat = BesselKernel(nu).matrix(xs)
                ref = np.array([[BesselKernel(nu).matrix([x, y])[0, 1] for y in xs] for x in xs])
                assert np.array_equal(mat, ref)


class TestHandles:
    def test_meijer_handle_matrix_matches_pointwise(self):
        handle = MeijerKernel(LEFT, (0.3, 1.2), tol=1e-12)
        xs = np.array([0.3, 0.7, 1.2])
        mat = handle.matrix(xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                assert abs(mat[i, j] - kernel_eval(x, y, handle.cq)) < 1e-14

    def test_bessel_handle_matrix(self):
        handle = BesselKernel(0.0)
        xs = np.array([0.5, 1.0, 2.0])
        mat = handle.matrix(xs)
        assert mat == pytest.approx(mat.T)
        assert abs(mat[0, 1] - handle.matrix([0.5, 1.0])[0, 1]) < 1e-15


def test_pole_zero_cancellation_pointwise():
    base = ProcessParams(2, 0, (0.5, 1.5))
    ext = ProcessParams(3, 1, (0.5, 1.5, 1.4), (1.4,))
    cq0 = build_contours(base, (0.3, 1.5), 1e-12)
    cq1 = build_contours(ext, (0.3, 1.5), 1e-12)
    for x, y in ((0.3, 0.5), (0.8, 1.2), (1.5, 0.4)):
        assert abs(kernel_eval(x, y, cq0) - kernel_eval(x, y, cq1)) < 1e-9
