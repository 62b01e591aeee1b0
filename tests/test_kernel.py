"""Kernel tests: parameter validation, contour construction, the
double-contour evaluation against the residue-series oracle, mpmath's
independent Meijer-G evaluator, and the Bessel specialization."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from meijergap import kernel
from meijergap.errors import AccuracyError, ConvergenceError, DomainError
from meijergap.fredholm import gauss_legendre_grid
from meijergap.kernel import (
    BesselKernel,
    MeijerKernel,
    ProcessParams,
    _g_first,
    _g_second,
    bessel_kernel,
    build_contours,
    kernel_eval,
    kernel_eval_series,
    log_big_f,
)
from meijergap.specfun import bessel_j, log_gamma

LEFT = ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61))
NEG = ProcessParams(2, 0, (-0.5, 0.7))
BES = ProcessParams(1, 0, (0.5,))


class TestProcessParams:
    def test_valid(self):
        p = ProcessParams(2, 1, (0.5, 1.0), (0.3,))
        assert p.nu_min == 0.3

    def test_requires_r_greater_q(self):
        with pytest.raises(DomainError, match="requires r > q"):
            ProcessParams(2, 2, (0.5, 1.0), (0.3, 0.4))

    def test_requires_nu_above_minus_one(self):
        with pytest.raises(DomainError):
            ProcessParams(1, 0, (-1.0,))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            ProcessParams(2, 0, (0.5,))


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
        cq = build_contours(ProcessParams(1, 0, (0.0,)), (0.1, 10.0), 1e-12)
        assert cq.crossing_points == pytest.approx((1 / 3, 2 / 3), abs=1e-15)

    def test_node_count_monotone_in_tol(self):
        p = ProcessParams(1, 0, (0.0,))
        loose = build_contours(p, (0.1, 10.0), 1e-8)
        tight = build_contours(p, (0.1, 10.0), 1e-12)
        assert len(loose.gamma_nodes) <= len(tight.gamma_nodes)
        assert len(loose.gammatilde_nodes) <= len(tight.gammatilde_nodes)

    def test_panel_refinement_stability(self, monkeypatch):
        p = ProcessParams(2, 0, (0.5, 1.5))
        tol = 1e-10
        base = build_contours(p, (0.5, 2.0), tol)
        monkeypatch.setattr(kernel, "_PANEL_POINTS", 40)
        fine = build_contours(p, (0.5, 2.0), tol)
        # same panels, twice the points on each: the rule is read at build time
        assert fine.gamma_nodes.size == 2 * base.gamma_nodes.size
        assert fine.gammatilde_nodes.size == 2 * base.gammatilde_nodes.size
        delta = abs(kernel_eval(1.0, 1.0, base) - kernel_eval(1.0, 1.0, fine))
        assert delta < 10 * tol

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(kernel, "_NODE_CAP", 64)
        with pytest.raises(ConvergenceError):
            build_contours(ProcessParams(1, 0, (0.0,)), (0.1, 10.0), 1e-12)

    def test_node_cap_boundary(self, monkeypatch):
        # the cap applies to each contour: 480 + 480 nodes here
        p = ProcessParams(1, 0, (0.0,))
        cq = build_contours(p, (0.1, 10.0), 1e-12)
        assert (cq.gamma_nodes.size, cq.gammatilde_nodes.size) == (480, 480)
        monkeypatch.setattr(kernel, "_NODE_CAP", 480)
        capped = build_contours(p, (0.1, 10.0), 1e-12)
        assert np.array_equal(capped.gamma_nodes, cq.gamma_nodes)
        assert np.array_equal(capped.gammatilde_nodes, cq.gammatilde_nodes)
        monkeypatch.setattr(kernel, "_NODE_CAP", 479)
        with pytest.raises(ConvergenceError):
            build_contours(p, (0.1, 10.0), 1e-12)

    def test_tip_evaluations_are_batched(self, monkeypatch):
        # one log_big_f per block of candidate tips, not one per panel, and
        # one log_gamma call per log_big_f, not one per gamma factor
        calls = {"log_gamma": 0, "log_big_f": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(kernel, "log_gamma", counting("log_gamma", log_gamma))
        monkeypatch.setattr(kernel, "log_big_f", counting("log_big_f", log_big_f))
        cq = build_contours(LEFT, (0.01, 16.0), 1e-12)
        assert (cq.gamma_nodes.size, cq.gammatilde_nodes.size) == (480, 560)
        # per contour, two doubling blocks of tips and one call at the nodes,
        # all on its upper half
        assert calls == {"log_gamma": 6, "log_big_f": 6}

    @pytest.mark.parametrize("params", [LEFT, NEG, BES], ids=["LEFT", "NEG", "BES"])
    def test_lower_half_mirrors_upper(self, params):
        cq = build_contours(params, (0.01, 16.0), 1e-12)
        n = kernel._PANEL_POINTS
        for z in (cq.gamma_nodes, cq.gammatilde_nodes):
            # segment: lower panel then upper panel; rays: upper then lower
            assert np.array_equal(z[:n], np.conj(z[n : 2 * n])[::-1])
            ray = z[2 * n :]
            half = ray.size // 2
            assert np.array_equal(ray[half:], np.conj(ray[:half]))

    def test_bad_range(self):
        with pytest.raises(DomainError):
            build_contours(LEFT, (2.0, 1.0), 1e-12)


class TestKernelEval:
    def test_bessel_reduction_at_one(self):
        nu = 0.5
        cq = build_contours(ProcessParams(1, 0, (nu,)), (0.5, 2.0), 1e-12)
        lhs = kernel_eval(1.0, 1.0, cq)
        rhs = 4.0 * bessel_kernel(4.0, 4.0, nu)
        assert abs(lhs - rhs) < 1e-8

    def test_matches_series_logarithmic_case(self):
        p = ProcessParams(2, 0, (0.0, 1.0))
        cq = build_contours(p, (0.25, 1.0), 1e-12)
        assert abs(kernel_eval(0.5, 0.5, cq) - kernel_eval_series(0.5, 0.5, p)) < 1e-8

    def test_diagonal_nonnegative(self):
        cq = build_contours(LEFT, (0.2, 3.0), 1e-12)
        for x in (0.2, 0.9, 1.7, 3.0):
            assert kernel_eval(x, x, cq) >= 0.0

    def test_outside_range_rejected(self):
        cq = build_contours(LEFT, (0.5, 2.0), 1e-12)
        with pytest.raises(DomainError):
            kernel_eval(5.0, 1.0, cq)

    def test_imaginary_residual_guard(self):
        # coefficients that are not conjugate-symmetric leave an imaginary
        # part far above rounding, which the guard must reject
        cq = build_contours(ProcessParams(1, 0, (0.0,)), (0.9, 1.1), 1e-4)
        broken = dataclasses.replace(cq, separable_coeffs=1j * cq.separable_coeffs)
        with pytest.raises(AccuracyError, match="imaginary residual"):
            kernel_eval(1.0, 1.0, broken)


class TestKernelSeries:
    def test_first_factor_is_bessel_series(self):
        # for r=1, q=0 the first factor reduces to z^(-nu/2) J_nu(2 sqrt z)
        p = ProcessParams(1, 0, (0.5,))
        z = 0.25
        ref = z ** (-0.25) * bessel_j(0.5, 2.0 * math.sqrt(z))
        got, _ = _g_first(np.array([z]), p, 40)
        assert abs(got[0] - ref) < 1e-13

    def test_factors_against_mpmath(self):
        mp.mp.dps = 30
        p = ProcessParams(2, 1, (0.5, 1.2), (0.7,))
        z = 0.35
        g1_ref = complex(mp.meijerg([[-0.7], []], [[0], [-0.5, -1.2]], z))
        g2_ref = complex(mp.meijerg([[], [0.7]], [[0.5, 1.2], [0]], z))
        g1, _ = _g_first(np.array([z]), p, 48)
        g2, _ = _g_second(np.array([z]), p, 48)
        assert abs(g1[0] - g1_ref) < 1e-12
        assert abs(g2[0] - g2_ref) < 1e-12

    def test_double_pole_case_against_mpmath(self):
        mp.mp.dps = 30
        p = ProcessParams(2, 0, (0.0, 0.0))
        z = 0.5
        g2_ref = complex(mp.meijerg([[], []], [[0.0, 0.0], [0]], z))
        g2, _ = _g_second(np.array([z]), p, 48)
        assert abs(g2[0] - g2_ref) < 1e-12

    def test_agrees_with_contour(self):
        p = ProcessParams(2, 0, (0.0, 0.0))
        cq = build_contours(p, (0.25, 1.0), 1e-12)
        assert abs(kernel_eval_series(0.5, 0.5, p) - kernel_eval(0.5, 0.5, cq)) < 1e-8

    def test_t_quadrature_refinement(self):
        p = ProcessParams(2, 0, (0.0, 1.0))
        a = kernel_eval_series(0.5, 0.8, p, n_t=40)
        b = kernel_eval_series(0.5, 0.8, p, n_t=80)
        assert abs(a - b) < 1e-10

    def test_positive_arguments_required(self):
        with pytest.raises(DomainError):
            kernel_eval_series(-1.0, 0.5, LEFT)

    def test_unresolved_rings_raise(self):
        # at nu_min <= -0.6 the graded t-nodes send t x far below 1e-40,
        # where the residue rings no longer resolve z^t
        for nu in (-0.6, -0.7, -0.95):
            with pytest.raises(ConvergenceError, match="rings unresolved"):
                kernel_eval_series(0.5, 0.7, ProcessParams(1, 0, (nu,)))
        nu = -0.5
        reduction = 4.0 * (0.7 / 0.5) ** (nu / 2.0) * bessel_kernel(2.0, 2.8, nu)
        assert abs(kernel_eval_series(0.5, 0.7, ProcessParams(1, 0, (nu,))) - reduction) < 1e-12


class TestBesselKernel:
    def test_diagonal_origin(self):
        assert bessel_kernel(0.0, 0.0, 0.0) == 0.25

    def test_symmetry(self):
        assert bessel_kernel(1.3, 2.7, 0.5) == bessel_kernel(2.7, 1.3, 0.5)

    def test_half_integer_closed_form(self):
        # elementary form via J_1/2(t) = sqrt(2/(pi t)) sin t   (mpmath: 0.09678735647946624)
        x, y = 1.3, 2.7
        sx, sy = math.sqrt(x), math.sqrt(y)
        j = lambda t: math.sqrt(2 / (math.pi * t)) * math.sin(t)
        tjp = lambda t: 0.5 * j(t) - t * bessel_j(1.5, t)
        ref = (j(sx) * tjp(sy) - tjp(sx) * j(sy)) / (2 * (x - y))
        assert abs(bessel_kernel(x, y, 0.5) - ref) < 1e-10
        assert abs(ref - 0.09678735647946624) < 1e-12

    def test_near_diagonal_switch_is_continuous(self):
        nu = 0.7
        inside = bessel_kernel(2.0, 2.0 + 9.9e-7, nu)
        outside = bessel_kernel(2.0, 2.0 + 1.1e-6, nu)
        assert abs(inside - outside) < 1e-8

    def test_near_diagonal_limit_against_mpmath(self):
        mp.mp.dps = 30
        x, y = 2.0, 2.0 + 5e-7
        sx, sy = mp.sqrt(x), mp.sqrt(y)
        for nu in (0.0, 0.7, 2.0):
            tjp = lambda t: nu * mp.besselj(nu, t) - t * mp.besselj(nu + 1, t)
            ref = (mp.besselj(nu, sx) * tjp(sy) - tjp(sx) * mp.besselj(nu, sy)) / (2 * (mp.mpf(x) - y))
            assert abs(bessel_kernel(x, y, nu) - float(ref)) < 1e-12

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
        # every pair of the s = 1e-8 grid is near-diagonal; on the kappa=4
        # grid six off-diagonal pairs next to 0 fall inside the 1e-6 switch
        for s, m, kappa, nus in ((1e-8, 4, 1, (0.0, 0.5, 2.0)), (4.0, 30, 4, (0.5,))):
            xs = gauss_legendre_grid(s, m, kappa=kappa).nodes
            for nu in nus:
                mat = BesselKernel(nu).matrix(xs)
                ref = np.array([[bessel_kernel(x, y, nu) for y in xs] for x in xs])
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
        assert abs(mat[0, 1] - bessel_kernel(0.5, 1.0, 0.0)) < 1e-15


def test_pole_zero_cancellation_pointwise():
    base = ProcessParams(2, 0, (0.5, 1.5))
    ext = ProcessParams(3, 1, (0.5, 1.5, 1.4), (1.4,))
    cq0 = build_contours(base, (0.3, 1.5), 1e-12)
    cq1 = build_contours(ext, (0.3, 1.5), 1e-12)
    for x, y in ((0.3, 0.5), (0.8, 1.2), (1.5, 0.4)):
        assert abs(kernel_eval(x, y, cq0) - kernel_eval(x, y, cq1)) < 1e-9


def test_oracle_equivalence_all_shapes():
    cases = (
        ProcessParams(1, 0, (0.5,)),
        ProcessParams(2, 0, (0.3, 0.8)),
        ProcessParams(2, 1, (0.5, 1.2), (0.7,)),
        ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61)),
    )
    rng = np.random.default_rng(3)
    for p in cases:
        cq = build_contours(p, (0.05, 2.0), 1e-12)
        for _ in range(10):
            x, y = rng.uniform(0.05, 2.0, 2)
            assert abs(kernel_eval(x, y, cq) - kernel_eval_series(x, y, p)) < 1e-8
