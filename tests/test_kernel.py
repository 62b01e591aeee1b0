"""Kernel tests: parameter validation, contour construction, the
double-contour evaluation against the residue-series oracle, mpmath's
independent Meijer-G evaluator, and the Bessel specialization."""

import math

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
    _g_first,
    _g_second,
    build_contours,
    kernel_eval,
    kernel_eval_series,
    kernel_matrix,
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


def _scalar_tip(params, ray, x_min, x_max, tol):
    """The first tip k >= 2 of gamma (ray 0) or gammatilde (ray 1) where
    ln |F(u) x^-u|, or ln |y^(v-1) / F(v)|, at its largest over
    [x_min, x_max] is below ln tol, from one scalar log_big_f call per tip."""
    span = 1.0 + params.nu_min
    x_cross, angle, sign = ((span / 3, 2 * math.pi / 3, 1.0), (2 * span / 3, math.pi / 3, -1.0))[ray]
    for k in range(2, 200):
        tip = x_cross + 1j + kernel._PANEL_LENGTH * k * complex(math.cos(angle), math.sin(angle))
        power = -tip.real if sign > 0 else tip.real - 1.0
        ln_bound = sign * log_big_f(tip, params).real + max(power * math.log(x) for x in (x_min, x_max))
        if ln_bound < math.log(tol):
            return k
    return None


def _spy_panel_counts(monkeypatch):
    """The panel count of each later _half_powers call, in call order: a
    fill powers gamma's panels, then gammatilde's."""
    used = []
    half_powers = kernel._half_powers

    def spy(ln_arg, panels):
        used.append(panels[0].size)
        return half_powers(ln_arg, panels)

    monkeypatch.setattr(kernel, "_half_powers", spy)
    return used


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
        # the cap applies to each contour: 520 + 520 nodes here, with two
        # crossing panels (span = 1) and eleven ray panels on each half
        p = ProcessParams(1, 0, (0.0,))
        cq = build_contours(p, (0.1, 10.0), 1e-12)
        assert (cq.gamma_nodes.size, cq.gammatilde_nodes.size) == (520, 520)
        monkeypatch.setattr(kernel, "_NODE_CAP", 520)
        capped = build_contours(p, (0.1, 10.0), 1e-12)
        assert np.array_equal(capped.gamma_nodes, cq.gamma_nodes)
        assert np.array_equal(capped.gammatilde_nodes, cq.gammatilde_nodes)
        monkeypatch.setattr(kernel, "_NODE_CAP", 519)
        with pytest.raises(ConvergenceError):
            build_contours(p, (0.1, 10.0), 1e-12)

    def test_tip_evaluations_are_batched(self, monkeypatch):
        # one log_big_f for every candidate tip of both rays and one for the
        # nodes of both contours, each one log_gamma call, not one per factor
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
        assert calls == {"log_gamma": 2, "log_big_f": 2}

    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    @pytest.mark.parametrize("x_range", [(1e-6, 256.0), (0.5, 2.0)])
    @pytest.mark.parametrize("params", [LEFT, NEG, NU4], ids=["LEFT", "NEG", "NU4"])
    def test_tip_is_first_below_tol(self, params, x_range, tol):
        # each ray ends at its first tip k >= 2 where ln |F(u) x^-u| on gamma,
        # or ln |y^(v-1) / F(v)| on gammatilde, at its largest over x_range,
        # is below ln tol; checked tip by tip with scalar log_big_f calls.  For
        # NU4 the k = 2 tip of gamma has Re u = 1/6 > 0, so there the x_lo
        # side of the bound is the larger one, and at tol = 1e-3 it decides
        # that the ray goes on to k = 3
        cq = build_contours(params, x_range, tol)
        for ray, (mids, _, n_cross) in enumerate((cq.gamma_panels, cq.gammatilde_panels)):
            assert mids.size - n_cross == _scalar_tip(params, ray, *x_range, tol)

    @pytest.mark.parametrize(
        "params, n_cross", [(LEFT, 1), (NEG, 3), (BES, 1), (GIN2, 2)], ids=["LEFT", "NEG", "BES", "GIN2"]
    )
    def test_lower_half_mirrors_upper(self, params, n_cross):
        cq = build_contours(params, (0.01, 16.0), 1e-12)
        span = 1.0 + params.nu_min
        contours = (
            (cq.gamma_nodes, cq.gamma_panels, span / 3, 2 * math.pi / 3, lambda m, o: (-m, -o)),
            (cq.gammatilde_nodes, cq.gammatilde_panels, 2 * span / 3, math.pi / 3, lambda m, o: (m - 1.0, o)),
        )
        for z, (e_mids, e_offsets, n), x_cross, angle, exponent in contours:
            h = z.size // 2
            assert np.all(z[:h].imag > 0.0)
            assert np.array_equal(z[h:], np.conj(z[:h]))
            # the upper half is the crossing panels, then the ray panels, of
            # _upper_half's geometry; the stored panels are its exponents,
            # -u on gamma and v - 1 on gammatilde
            assert n == n_cross
            assert e_offsets.shape == (2, kernel._PANEL_POINTS)
            start, direction = x_cross + 1j, np.exp(1j * angle)
            _, _, (mids, offsets, n) = kernel._upper_half(start, direction, n_cross, e_mids.size - n_cross)
            crossing, ray = (mids[:n, None] + offsets[0]).ravel(), (mids[n:, None] + offsets[1]).ravel()
            assert np.array_equal(z[:h], np.concatenate((crossing, ray)))
            expected_mids, expected_offsets = exponent(mids, offsets)
            assert np.array_equal(e_mids, expected_mids) and np.array_equal(e_offsets, expected_offsets)
            assert np.allclose(z[: n * kernel._PANEL_POINTS].real, z[0].real, rtol=0.0, atol=1e-15)
        # one (Im T, Re T) row pair per upper-half node, one column per t-node
        assert cq.separable_coeffs.dtype == np.float64
        assert cq.separable_coeffs.shape == (cq.gamma_nodes.size + cq.gammatilde_nodes.size, kernel._T_POINTS)

    def test_t_rule_underflow_raises(self):
        # kappa = ceil(9 / (1 + nu_min)) = 91 sends the first t-node below
        # the smallest double
        with pytest.raises(DomainError, match="too close to -1"):
            build_contours(ProcessParams(1, 0, (-0.9,)), (0.1, 1.0), 1e-12)

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
        # 3.2e-13, 5.6e-12 and 1.3e-8 of max(1, |K|) off at (1e-8, 1) for
        # nu = 0, 0.5 and 2.  Closer to x = 0 the error grows with no
        # error raised (2.6e-7 at x = 1e-12 for nu = 0.5, and 3.7 at 1e-18):
        # the rounding guard bounds rounding, not the discretization
        x, y = 1e-8, 1.0
        cq = build_contours(ProcessParams(1, 0, (nu,)), (0.9 * x, 1.1 * y))
        ref = 4.0 * (y / x) ** (nu / 2.0) * BesselKernel(nu).matrix([4.0 * x, 4.0 * y])[0, 1]
        assert abs(kernel_eval(x, y, cq) - ref) <= 1e-7 * max(1.0, abs(ref))

    def test_diagonal_nonnegative(self):
        cq = build_contours(LEFT, (0.2, 3.0), 1e-12)
        for x in (0.2, 0.9, 1.7, 3.0):
            assert kernel_eval(x, x, cq) >= 0.0

    def test_outside_range_rejected(self):
        cq = build_contours(LEFT, (0.5, 2.0), 1e-12)
        with pytest.raises(DomainError):
            kernel_eval(5.0, 1.0, cq)
        for xs, ys in (([math.nan], [1.0]), ([1.0], [math.nan]), ([0.7, math.nan], [1.0])):
            with pytest.raises(DomainError):
                kernel_matrix(xs, ys, cq)
        with pytest.raises(DomainError):
            kernel_eval(math.nan, 1.0, cq)

    @pytest.mark.parametrize(
        "params, x_lo, rtol",
        [(LEFT, 0.01, 1e-14), (RIGHT, 0.01, 1e-14), (NEG, 1e-6, 3e-11), (BES, 0.01, 1e-14), (GIN2, 0.01, 1e-14)],
        ids=["LEFT", "RIGHT", "NEG", "BES", "GIN2"],
    )
    def test_fold_matches_unfolded_sum(self, params, x_lo, rtol):
        # the folded, factored fill against Re(P C Q^T) over whole contours
        # with the exact Cauchy factor c_ij = g_i g_j / (v_j - u_i), on the
        # same nodes; the lower halves carry -conj g.  Measured: 1.2e-15 of
        # max(1, |K|), and 5.7e-12 for NEG, whose kernel near x = 1e-6 is a
        # sum of terms up to e^25 times larger
        x_range, span = (x_lo, 16.0), 1.0 + params.nu_min
        cq = build_contours(params, x_range, 1e-12)
        halves = []
        contours = ((cq.gamma_panels, span / 3, 2 * math.pi / 3, 1.0), (cq.gammatilde_panels, 2 * span / 3, math.pi / 3, -1.0))
        for (mids, _, n_cross), x_cross, angle, sign in contours:
            z, w, _ = kernel._upper_half(x_cross + 1j, np.exp(1j * angle), n_cross, mids.size - n_cross)
            g = w * np.exp(sign * log_big_f(z, params))
            halves.append((np.concatenate((z, np.conj(z))), np.concatenate((g, -np.conj(g)))))
        (u, gu), (v, gv) = halves
        assert np.array_equal(u, cq.gamma_nodes) and np.array_equal(v, cq.gammatilde_nodes)
        c = np.outer(gu, gv) / (v[None, :] - u[:, None]) / (2j * math.pi) ** 2
        ln_x = np.log(np.geomspace(x_lo, 16.0, 40))
        ref = (np.exp(-np.outer(ln_x, u)) @ c @ np.exp(np.outer(ln_x, v - 1.0)).T).real
        k = kernel_matrix(np.exp(ln_x), np.exp(ln_x), cq)
        assert np.all(np.abs(k - ref) <= rtol * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize(
        "params, x_lo, rtol",
        [(LEFT, 0.01, 1e-13), (RIGHT, 0.01, 1e-13), (NEG, 1e-6, 5e-11), (BES, 0.01, 1e-13), (GIN2, 0.01, 1e-13)],
        ids=["LEFT", "RIGHT", "NEG", "BES", "GIN2"],
    )
    def test_t_rule_convergence(self, params, x_lo, rtol, monkeypatch):
        # the t-rule against one with twice the points and twice the grading
        # exponent; measured at most 3.8e-14 of max(1, |K|), 6.4e-12 for NEG
        xs = np.geomspace(x_lo, 16.0, 40)
        k = kernel_matrix(xs, xs, build_contours(params, (x_lo, 16.0), 1e-12))
        monkeypatch.setattr(kernel, "_T_POINTS", 2 * kernel._T_POINTS)
        monkeypatch.setattr(kernel, "_T_GRADING", 2 * kernel._T_GRADING)
        fine = build_contours(params, (x_lo, 16.0), 1e-12)
        assert fine.separable_coeffs.shape[1] == 160
        k_fine = kernel_matrix(xs, xs, fine)
        assert np.all(np.abs(k - k_fine) <= rtol * np.maximum(1.0, np.abs(k_fine)))

    @pytest.mark.parametrize(
        "params, x_lo", [(LEFT, 0.01), (NEG, 1e-6), (BES, 0.01), (GIN2, 0.01)], ids=["LEFT", "NEG", "BES", "GIN2"]
    )
    def test_factored_powers_match_direct_exp(self, params, x_lo):
        # x^-u and y^(v-1) factored per panel against one exp per node
        cq = build_contours(params, (x_lo, 256.0), 1e-12)
        ln_x = np.log(np.geomspace(x_lo, 256.0, 60))
        for exponent, panels in ((-cq.gamma_nodes, cq.gamma_panels), (cq.gammatilde_nodes - 1.0, cq.gammatilde_panels)):
            ref = np.exp(np.outer(ln_x, exponent[: exponent.size // 2]))
            got = kernel._half_powers(ln_x, panels)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_rounding_guard(self, monkeypatch):
        # near x = 0 with nu_min < 0 the contour sums cancel: the rounding
        # bound reads 1.1e-13 of max(1, |K|) here, above a limit of 1e-14
        # and far below the shipped one
        cq = build_contours(NEG, (1e-6, 16.0), 1e-12)
        xs = np.geomspace(1e-6, 1e-3, 8)
        kernel_matrix(xs, xs, cq)
        monkeypatch.setattr(kernel, "_ROUNDING_LIMIT", 1e-14)
        with pytest.raises(AccuracyError, match="rounding bound"):
            kernel_matrix(xs, xs, cq)

    def test_neg_crossing_determinants(self):
        # ln det(1 - K|[0,s]) for NEG, settled to 13 digits on contours with
        # crossing and first-ray panels of length 1/4 or less; one crossing
        # panel of length 1 left the library 6.5e-6 and 2.0e-5 off
        for s, ref in ((1.0, -1.8651766711303), (4.0, -4.4845830616002)):
            grid = gauss_legendre_grid(s, 100, kappa=4)
            handle = MeijerKernel(NEG, (0.999 * grid.nodes[0], s))
            assert abs(log_gap_determinant(s, grid, handle) - ref) < 1e-11

    def test_neg_t_rule_near_zero_leaves_det(self, monkeypatch):
        # det's kappa = 4 grid puts NEG's first node at x = 1.7e-18, where the
        # 80-point t-rule is 4.3e-6 of max(1, |K|) (|K| = 5e8) off a 320-point
        # one; ln det moves by 8.8e-14 with points and grading doubled
        grid = gauss_legendre_grid(1.0, 200, kappa=4)
        x_range = (0.999 * grid.nodes[0], 1.0)
        ref = log_gap_determinant(1.0, grid, MeijerKernel(NEG, x_range))
        monkeypatch.setattr(kernel, "_T_POINTS", 2 * kernel._T_POINTS)
        monkeypatch.setattr(kernel, "_T_GRADING", 2 * kernel._T_GRADING)
        assert abs(log_gap_determinant(1.0, grid, MeijerKernel(NEG, x_range)) - ref) < 1e-11


class TestCallTip:
    """Each fill ends the rays at the tip its own arguments need."""

    @pytest.mark.parametrize(
        "params, x_lo", [(LEFT, 0.01), (RIGHT, 0.01), (NEG, 1e-6), (BES, 0.01), (GIN2, 0.01)],
        ids=["LEFT", "RIGHT", "NEG", "BES", "GIN2"],
    )
    def test_wide_build_matches_narrow_build(self, params, x_lo):
        # contours built up to 256 and filled on [x_lo, 16] against contours
        # built for [x_lo, 16]
        xs = np.geomspace(x_lo, 16.0, 40)
        wide = kernel_matrix(xs, xs, build_contours(params, (x_lo, 256.0)))
        narrow = kernel_matrix(xs, xs, build_contours(params, (x_lo, 16.0)))
        assert np.all(np.abs(wide - narrow) <= 1e-14 * np.maximum(1.0, np.abs(narrow)))

    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    @pytest.mark.parametrize("params", [LEFT, NEG, NU4], ids=["LEFT", "NEG", "NU4"])
    def test_call_tip_is_first_below_tol(self, params, tol, monkeypatch):
        # the rule of test_tip_is_first_below_tol over [min, max] of the
        # arguments of one fill, on contours built for (1e-6, 256); NU4's
        # fill over the whole range raises AccuracyError (K(1e-6, 256)
        # cancels), so the widest call starts at 0.01
        cq = build_contours(params, (1e-6, 256.0), tol)
        n_cross = cq.gamma_panels[2]
        used = _spy_panel_counts(monkeypatch)
        gamma_tip = {}
        for lo, hi in ((0.01, 256.0), (0.5, 2.0), (1e-6, 1.0), (4.0, 256.0)):
            args = np.geomspace(lo, hi, 7)
            used.clear()
            kernel_matrix(args, args, cq)
            assert used == [n_cross + _scalar_tip(params, ray, lo, hi, tol) for ray in (0, 1)]
            gamma_tip[lo, hi] = used[0] - n_cross
        if params is NU4 and tol == 1e-3:
            # the k = 2 tip of gamma has Re u > 0, so its bound falls with x:
            # with the same x_hi, the x_lo side keeps the ray to k = 3 from
            # x = 0.01 and lets it end at k = 2 from x = 4
            assert (gamma_tip[0.01, 256.0], gamma_tip[4.0, 256.0]) == (3, 2)

    def test_rays_cut_by_their_own_arguments(self, monkeypatch):
        # gamma follows xs and gammatilde ys, each with its own tip; the
        # narrow fills stop short of the wide ones' tips, so they differ by
        # the truncation (3.1e-14 here), within tol
        cq = build_contours(LEFT, (0.01, 256.0))
        narrow = np.geomspace(0.01, 16.0, 5)
        wide = np.concatenate((narrow, [64.0, 256.0]))
        full = kernel_matrix(wide, wide, cq)
        used = _spy_panel_counts(monkeypatch)
        n_cross = cq.gamma_panels[2]
        tips = {ray: [_scalar_tip(LEFT, ray, 0.01, hi, 1e-12) for hi in (16.0, 256.0)] for ray in (0, 1)}
        assert tips[0][0] < tips[0][1] and tips[1][0] < tips[1][1]
        for (xs, i), (ys, j) in (((narrow, 0), (wide, 1)), ((wide, 1), (narrow, 0))):
            used.clear()
            k = kernel_matrix(xs, ys, cq)
            assert used == [n_cross + tips[0][i], n_cross + tips[1][j]]
            ref = full[: xs.size, : ys.size]
            assert np.all(np.abs(k - ref) <= kernel.CONTOUR_TOL * np.maximum(1.0, np.abs(ref)))

    def test_slack_above_x_hi_uses_built_tip(self, monkeypatch):
        # tol just above the bound of gammatilde's built tip over x_range, so
        # that over [x_lo, 1.001 x_hi] no stored tip is below it: the fill
        # keeps the built tip and raises nothing
        x_range = (0.01, 16.0)
        ln_f, power = build_contours(LEFT, x_range).gammatilde_tips[:, -1]
        edge = ln_f + max(power * math.log(x) for x in x_range)
        cq = build_contours(LEFT, x_range, math.exp(edge + 1e-9))
        args = np.geomspace(x_range[0], 1.001 * x_range[1], 9)
        assert kernel._first_tip(cq.gammatilde_tips, math.log(args[0]), math.log(args[-1]), cq.ln_tol) is None
        used = _spy_panel_counts(monkeypatch)
        k = kernel_matrix(args, args, cq)
        assert used == [cq.gamma_panels[0].size, cq.gammatilde_panels[0].size]
        assert np.all(np.isfinite(k))


class TestKernelSeries:
    def test_first_factor_is_bessel_series(self):
        # for r=1, q=0 the first factor reduces to z^(-nu/2) J_nu(2 sqrt z)
        p = ProcessParams(1, 0, (0.5,))
        z = 0.25
        ref = z ** (-0.25) * bessel_j(0.5, 2.0 * math.sqrt(z))
        got, _ = _g_first(np.array([z]), p)
        assert abs(got[0] - ref) < 1e-13

    def test_factors_against_mpmath(self):
        mp.mp.dps = 30
        p = ProcessParams(2, 1, (0.5, 1.2), (0.7,))
        z = 0.35
        g1_ref = complex(mp.meijerg([[-0.7], []], [[0], [-0.5, -1.2]], z))
        g2_ref = complex(mp.meijerg([[], [0.7]], [[0.5, 1.2], [0]], z))
        g1, _ = _g_first(np.array([z]), p)
        g2, _ = _g_second(np.array([z]), p)
        assert abs(g1[0] - g1_ref) < 1e-12
        assert abs(g2[0] - g2_ref) < 1e-12

    def test_double_pole_case_against_mpmath(self):
        mp.mp.dps = 30
        p = ProcessParams(2, 0, (0.0, 0.0))
        z = 0.5
        g2_ref = complex(mp.meijerg([[], []], [[0.0, 0.0], [0]], z))
        g2, _ = _g_second(np.array([z]), p)
        assert abs(g2[0] - g2_ref) < 1e-12

    @pytest.mark.parametrize(
        "params", [GIN2, ProcessParams(2, 0, (0.0, 0.0)), BES], ids=["logarithmic", "double-pole", "BES"]
    )
    def test_agrees_with_contour(self, params):
        # BES adds r = 1 to the r = 2, 3 shapes of the verify oracle check
        cq = build_contours(params, (0.25, 1.0), 1e-12)
        assert abs(kernel_eval_series(0.5, 0.5, params) - kernel_eval(0.5, 0.5, cq)) < 1e-8

    def test_t_quadrature_refinement(self, monkeypatch):
        p = ProcessParams(2, 0, (0.0, 1.0))
        fine = kernel_eval_series(0.5, 0.8, p)
        monkeypatch.setattr(kernel, "_SERIES_T_POINTS", 40)
        coarse = kernel_eval_series(0.5, 0.8, p)
        assert abs(coarse - fine) < 1e-10

    def test_positive_arguments_required(self):
        for x, y in ((-1.0, 0.5), (math.nan, 0.5), (0.5, math.nan)):
            with pytest.raises(DomainError, match="must be positive"):
                kernel_eval_series(x, y, LEFT)

    @pytest.mark.parametrize("x", [0.05, 2.0])
    @pytest.mark.parametrize("params", [GIN2, LEFT, RIGHT, NEAR], ids=["GIN2", "LEFT", "RIGHT", "NEAR"])
    def test_folded_rings_match_full_rings(self, params, x, monkeypatch):
        # the separable, conjugate-folded ring sums against one exp per
        # (ring point, z) over every point of each ring, over the oracle's
        # t-rule; near z = 0 (and for NEAR's ring radius 1.75e-4) the ring
        # terms exceed the value by up to 1e7, so the differences, at most
        # 2.7e-15 of the magnitude sum, are measured on that sum
        kappa = max(4, math.ceil(4.0 / (1.0 + params.nu_min)))
        z = x * gauss_legendre_grid(1.0, kernel._SERIES_T_POINTS, kappa).nodes
        got = (_g_first(z, params), _g_second(z, params))
        monkeypatch.setattr(kernel, "_sum_residues", _sum_residues_full_ring)
        for (total, gap), (ref_total, ref_gap, magnitude) in zip(got, (_g_first(z, params), _g_second(z, params))):
            assert np.all(np.abs(total - ref_total) <= 1e-14 * magnitude)
            assert np.all(np.abs(gap - ref_gap) <= 1e-14 * magnitude)

    def test_ring_points_are_folded(self, monkeypatch):
        # LEFT has 48 clusters at 0, 1, ... and 3 x 48 at nu_j + k; each ring
        # is evaluated on its upper half, 21 of its 40 points
        points = []

        def counting(z, params):
            points.append(np.size(z))
            return log_big_f(z, params)

        monkeypatch.setattr(kernel, "log_big_f", counting)
        kernel_eval_series(0.5, 0.7, LEFT)
        assert points == [48 * 21, 144 * 21]

    def test_unresolved_rings_raise(self):
        # at nu_min <= -0.6 the graded t-nodes send t x far below 1e-40,
        # where the residue rings no longer resolve z^t
        for nu in (-0.6, -0.7, -0.95):
            with pytest.raises(ConvergenceError, match="rings unresolved"):
                kernel_eval_series(0.5, 0.7, ProcessParams(1, 0, (nu,)))
        nu = -0.5
        reduction = 4.0 * (0.7 / 0.5) ** (nu / 2.0) * BesselKernel(nu).matrix([2.0, 2.8])[0, 1]
        assert abs(kernel_eval_series(0.5, 0.7, ProcessParams(1, 0, (nu,))) - reduction) < 1e-12


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
