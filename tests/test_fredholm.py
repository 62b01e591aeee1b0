"""Fredholm determinant tests.

Since no closed-form determinant values exist for these kernels, the oracle
is the truncated trace expansion

    det(1 - K) ~ 1 - t1 + (t1^2 - t2)/2 - (t1^3 - 3 t1 t2 + 2 t3)/6,

with the traces t_n = Tr K^n computed by quadrature of the iterated kernel
on an independent (finer) grid; its truncation error is of the order of the
product of the four largest eigenvalues, far below 1e-6 for s <= 1 here.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from meijergap.errors import DomainError, SingularityError
from meijergap.fredholm import (
    FredholmGrid,
    _legendre_rule,
    gauss_legendre_grid,
    kappa_for_nu_min,
    log_gap_determinant,
)
from meijergap.kernel import BesselKernel, MeijerKernel, ProcessParams

LEFT = ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61))


def trace_series_determinant(s, kernel, m=120):
    """Four-term determinant expansion from quadrature traces."""
    grid = gauss_legendre_grid(s, m)
    kd = kernel.matrix(grid.nodes) * grid.weights[None, :]
    t1 = np.trace(kd)
    t2 = np.trace(kd @ kd)
    t3 = np.trace(kd @ kd @ kd)
    return 1.0 - t1 + (t1**2 - t2) / 2.0 - (t1**3 - 3 * t1 * t2 + 2 * t3) / 6.0


class TestGrid:
    def test_two_point_rule(self):
        g = gauss_legendre_grid(2.0, 2)
        assert g.nodes == pytest.approx([1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)], abs=1e-15)
        assert g.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_weights_sum_to_s(self):
        g = gauss_legendre_grid(7.3, 40)
        assert abs(g.weights.sum() - 7.3) < 1e-12

    def test_polynomial_exactness(self):
        g = gauss_legendre_grid(3.0, 2)
        assert abs(np.sum(g.weights * g.nodes**2) - 9.0) < 1e-12

    def test_graded_grid_invariants(self):
        g = gauss_legendre_grid(4.0, 30, kappa=3)
        assert abs(g.weights.sum() - 4.0) < 1e-12
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0 and g.nodes[-1] < 4.0

    def test_graded_grid_underflow(self):
        # kappa = 84 puts the first of 80 nodes on (0, 1) at 1.9e-307;
        # kappa = 85 sends it to 10^-310, below the smallest normal double,
        # and the grid raises before FredholmGrid sees its nodes
        assert gauss_legendre_grid(1.0, 80, kappa=84).nodes[0] > np.finfo(float).tiny
        with pytest.raises(DomainError, match="kappa = 85 sends the first of m = 80 nodes on \\(0, 1\\) to 10\\^-310"):
            gauss_legendre_grid(1.0, 80, kappa=85)

    def test_kappa_selection(self):
        # the smallest kappa with kappa (1 + nu_min) >= 2: every nu_min < 1
        # is graded.  At -0.9, 2 / (1 + nu_min) rounds to 20.000000000000004
        table = {-0.9: 21, -0.5: 4, 0.0: 2, 0.5: 2, 0.999: 2, 1.0: 1, 1.31: 1, 5.0: 1}
        assert {nu_min: kappa_for_nu_min(nu_min) for nu_min in table} == table

    @pytest.mark.parametrize("bad", [(0.0, 10), (-1.0, 10), (2.0, 1), (math.inf, 10), (1.0, 10, 0)])
    def test_invalid_inputs(self, bad):
        with pytest.raises(DomainError):
            gauss_legendre_grid(*bad)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            FredholmGrid(s=1.0, nodes=np.array([0.2, 0.1]), weights=np.array([0.5, 0.5]))
        nodes = np.array([0.25, 0.75])
        for weights in ([1.0, 0.0], [1.5, -0.5]):
            with pytest.raises(DomainError, match="weights must be positive"):
                FredholmGrid(s=1.0, nodes=nodes, weights=np.array(weights))
        with pytest.raises(DomainError, match="weights must sum to s"):
            FredholmGrid(s=1.0, nodes=nodes, weights=np.array([0.5, 0.6]))

    def test_grid_sizes_must_match_m(self):
        # m is the size of the nodes, which must be 1-D, and the weights
        # must have their shape: the determinant strides the diagonal by m
        g = gauss_legendre_grid(2.0, 6)
        assert g.m == 6
        for nodes, weights in ((g.nodes, g.weights[:5]), (g.nodes, g.weights[:, None]), (g.nodes[None, :], g.weights[None, :])):
            with pytest.raises(DomainError, match="must be m values each"):
                FredholmGrid(s=2.0, nodes=nodes, weights=weights)


class TestLegendreRule:
    def test_shared_arrays_are_read_only(self):
        x, w = _legendre_rule(7)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("n, rtol", [(13, 1e-14), (80, 5e-14), (200, 2e-13)])
    def test_matches_mpmath(self, n, rtol):
        # Newton's method on P_n from the three-term recurrence at 30 digits,
        # from each node of the rule, gives the mpmath nodes and weights
        # 2 / ((1 - x^2) P_n'(x)^2).  Measured: nodes within 7.3e-17, weights
        # 1.6e-15, 1.4e-14 and 5.1e-14 relative off at n = 13, 80 and 200;
        # numpy's leggauss weights are 7.6e-15, 1.1e-12 and 2.2e-11 off.  The
        # rule is symmetric bit for bit, so the nonnegative half covers it
        x, w = _legendre_rule(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        half = x >= 0.0
        with mp.workdps(30):
            for xi, wi in zip(x[half], w[half]):
                t = mp.mpf(float(xi))
                for _ in range(3):
                    p_prev, p = mp.mpf(1), t
                    for k in range(1, n):
                        p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
                    dp = n * (p_prev - t * p) / (1 - t * t)
                    t -= p / dp
                assert abs(t - xi) <= 1e-16
                assert abs(2 / ((1 - t * t) * dp * dp) - wi) <= rtol * wi

    @pytest.mark.parametrize("kappa", [1, 3])
    def test_grid_unchanged_by_cache_hit(self, kappa):
        _legendre_rule.cache_clear()
        first = gauss_legendre_grid(5.0, 31, kappa=kappa)
        nodes, weights = first.nodes.copy(), first.weights.copy()
        # a caller's grid is its own: writing into it leaves the cached rule intact
        first.nodes[:] = 0.0
        first.weights[:] = 0.0
        again = gauss_legendre_grid(5.0, 31, kappa=kappa)
        assert _legendre_rule.cache_info().hits >= 1
        assert np.array_equal(again.nodes, nodes)
        assert np.array_equal(again.weights, weights)


class TestGapDeterminant:
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_trace_series_oracle(self, s):
        kernel = BesselKernel(0.0)
        g = gauss_legendre_grid(s, 60)
        det = math.exp(log_gap_determinant(s, g, kernel))
        assert abs(det - trace_series_determinant(s, kernel)) < 1e-6

    def test_monotone_decrease_meijer(self):
        handle = MeijerKernel(LEFT, (1e-4, 8.0), tol=1e-12)
        dets = [math.exp(log_gap_determinant(s, gauss_legendre_grid(s, 60), handle)) for s in (0.5, 1, 2, 4, 8)]
        assert all(d1 > d2 for d1, d2 in zip(dets, dets[1:]))
        assert all(0.0 < d <= 1.0 for d in dets)

    def test_meijer_refinement(self):
        handle = MeijerKernel(LEFT, (1e-5, 1.0), tol=1e-12)
        d60 = math.exp(log_gap_determinant(1.0, gauss_legendre_grid(1.0, 60), handle))
        d100 = math.exp(log_gap_determinant(1.0, gauss_legendre_grid(1.0, 100), handle))
        assert abs(d60 - d100) < 1e-8

    def test_graded_grid_for_negative_nu_min(self):
        # integrable x^nu_min density singularity at 0; graded rule keeps
        # the determinant stable under refinement
        p = ProcessParams(1, 0, (-0.5,))
        kappa = kappa_for_nu_min(p.nu_min)
        g80 = gauss_legendre_grid(1.0, 80, kappa=kappa)
        handle = MeijerKernel(p, (0.9 * float(g80.nodes[0]), 1.0), tol=1e-12)
        d40 = math.exp(log_gap_determinant(1.0, gauss_legendre_grid(1.0, 40, kappa=kappa), handle))
        d80 = math.exp(log_gap_determinant(1.0, g80, handle))
        assert abs(d40 - d80) < 5e-7

    def test_negative_nu_min_against_bessel_route(self):
        # r=1 kernels over [0, s] and the Bessel kernel over [0, 4s] define
        # the same determinant; independent check of the graded machinery
        p = ProcessParams(1, 0, (-0.5,))
        g = gauss_legendre_grid(1.0, 80, kappa=4)
        handle = MeijerKernel(p, (0.9 * float(g.nodes[0]), 1.0), tol=1e-12)
        d_meijer = math.exp(log_gap_determinant(1.0, g, handle))
        d_bessel = math.exp(log_gap_determinant(4.0, gauss_legendre_grid(4.0, 120, kappa=4), BesselKernel(-0.5)))
        assert abs(d_meijer - d_bessel) < 1e-5

    def test_grid_s_mismatch(self):
        g = gauss_legendre_grid(1.0, 10)
        with pytest.raises(DomainError):
            log_gap_determinant(2.0, g, BesselKernel(0.0))

    def test_grid_s_nan(self):
        # NaN compares false with the tolerance, so the check must be written
        # to fail for it rather than to pass
        with pytest.raises(DomainError, match="different s"):
            log_gap_determinant(math.nan, gauss_legendre_grid(2.0, 40, 2), BesselKernel(0.5))

    @pytest.mark.parametrize("kernel", [MeijerKernel, BesselKernel], ids=["meijer", "bessel"])
    def test_in_place_matrix_matches_eye_minus_m(self, kernel):
        # the determinant forms I - M in place, with the bits of
        # np.eye(n) - M: M = (F2^T w) F1 (n_t x n_t) from the factors of a
        # handle that has them (Sylvester's identity), and
        # M = sqrt(w) K sqrt(w) (m x m) from the matrix of one that has not
        grid = gauss_legendre_grid(32.0, 200)
        if kernel is MeijerKernel:
            handle = MeijerKernel(LEFT, (0.999 * grid.nodes[0], 32.0))
            f1, f2 = handle.factors(grid.nodes)
            mat = (f2.T * grid.weights) @ f1
        else:
            handle = BesselKernel(0.5)
            sqw = np.sqrt(grid.weights)
            mat = sqw[:, None] * handle.matrix(grid.nodes) * sqw[None, :]
        ref = np.linalg.slogdet(np.eye(mat.shape[0]) - mat)
        assert ref[0] == 1.0
        assert log_gap_determinant(32.0, grid, handle) == ref[1]


class _SingularHandle:
    """Makes I - sqrt(w) K sqrt(w) exactly the zero matrix."""

    def __init__(self, grid):
        self.grid = grid

    def matrix(self, nodes):
        return np.diag(1.0 / self.grid.weights)


class _NegativeHandle(_SingularHandle):
    """Makes I - sqrt(w) K sqrt(w) = diag(-1, 1, ..., 1), determinant -1."""

    def matrix(self, nodes):
        k = np.zeros((self.grid.m, self.grid.m))
        k[0, 0] = 2.0 / self.grid.weights[0]
        return k


class TestLogGapDeterminant:
    def test_negative_and_decreasing(self):
        kernel = BesselKernel(0.0)
        ld2 = log_gap_determinant(2.0, gauss_legendre_grid(2.0, 50), kernel)
        ld4 = log_gap_determinant(4.0, gauss_legendre_grid(4.0, 50), kernel)
        assert ld4 < ld2 < 0.0

    def test_singular_operator_raises(self):
        g = gauss_legendre_grid(1.0, 8)
        with pytest.raises(SingularityError):
            log_gap_determinant(1.0, g, _SingularHandle(g))

    def test_negative_determinant_raises(self):
        g = gauss_legendre_grid(1.0, 8)
        with pytest.raises(SingularityError, match="negative discretized determinant"):
            log_gap_determinant(1.0, g, _NegativeHandle(g))
