"""Tests of the closed-form expansion coefficients and constants.

Frozen references computed with mpmath (Barnes G and zeta'(-1) at 40+
digits); the cross-relations (Bessel, equal-parameter endpoint,
Muttalib-Borodin, parameter cancellation) are exact identities and are held
to near machine precision.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from meijergap import asymptotics
from meijergap.asymptotics import (
    AsymptoticCoeffs,
    compute_coeffs,
    log_constant_bessel,
    log_constant_kr,
    log_constant_mb,
    truncated_log_expansion,
)
from meijergap.errors import DomainError
from meijergap.kernel import ProcessParams
from meijergap.specfun import log_barnes_g, zeta_prime_minus1

LEFT = ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61))
RIGHT = ProcessParams(4, 1, (1.31, 2.15, 2.61, 3.19), (1.87,))

# mpmath evaluations of the assembled log-constant, 40 digits
LEFT_LN_C = -2.9631382296637363
RIGHT_LN_C = -10.09706699823493


class TestComputeCoeffs:
    def test_left_parameter_set(self):
        cc = compute_coeffs(LEFT)
        assert cc.rho == 0.5
        assert cc.a == 1.0
        assert abs(cc.b - 4.34) < 1e-12
        assert abs(cc.c - (-1.551425)) < 1e-12
        assert abs(cc.ln_c - LEFT_LN_C) < 1e-12

    @pytest.mark.parametrize("params", [LEFT, RIGHT, ProcessParams(2, 0, (-0.5, 0.7))])
    def test_one_barnes_call(self, monkeypatch, params):
        # the Barnes-G values of 1 + nu and 1 + mu come from one vectorized call,
        # and so do each closed-form constant's: log_constant_mb(r, alpha) takes
        # 1 + alpha, 2 + alpha and 1 + alpha + k/r for k = 1..r
        calls = []

        def counting(z):
            calls.append(np.size(z))
            return log_barnes_g(z)

        monkeypatch.setattr(asymptotics, "log_barnes_g", counting)
        compute_coeffs(params)
        assert calls == [params.r + params.q]
        r, alpha = params.r, params.nu[0]
        for constant, args, points in (
            (log_constant_mb, (r, alpha), r + 2),
            (log_constant_kr, (r, alpha), 1),
            (log_constant_bessel, (alpha,), 1),
        ):
            calls.clear()
            constant(*args)
            assert calls == [points], constant.__name__

    def test_against_pairwise_product_form(self):
        # ln C written with the pairwise products p_nu = sum_{i<j} nu_i nu_j and
        # p_mu, and the ln n and ln(1+n) blocks they enter, at 30 digits; the
        # code's S1, S2 form must agree to rounding
        rng = np.random.default_rng(1910)
        with mp.workdps(30):
            for _ in range(10):
                r = int(rng.integers(1, 6))
                q = int(rng.integers(0, r))
                nu = tuple(rng.uniform(-0.9, 5.0, r))
                mu = tuple(rng.uniform(-0.9, 5.0, q))
                ln_c = compute_coeffs(ProcessParams(r, q, nu, mu)).ln_c
                n = mp.mpf(r - q)
                nu_m, mu_m = [mp.mpf(v) for v in nu], [mp.mpf(m) for m in mu]
                s_nu1, s_mu1 = mp.fsum(nu_m), mp.fsum(mu_m)
                s_nu2, s_mu2 = mp.fsum(v * v for v in nu_m), mp.fsum(m * m for m in mu_m)
                p_nu = mp.fsum(nu_m[i] * nu_m[j] for i in range(r) for j in range(i + 1, r))
                p_mu = mp.fsum(mu_m[i] * mu_m[j] for i in range(q) for j in range(i + 1, q))
                pair = p_nu + p_mu - s_nu1 * s_mu1 + s_mu2
                coef_n = (1 + n - n * n) / (2 * (1 + n)) * (s_nu2 - s_mu2) + (n * n * (n - 1) - 2) / (24 * (1 + n)) + pair
                coef_n1 = -(2 - n) / 2 * (s_nu2 - s_mu2) - (n - 1) ** 2 / 24 - pair
                ref = (
                    mp.fsum(mp.log(mp.barnesg(1 + v)) for v in nu_m)
                    - mp.fsum(mp.log(mp.barnesg(1 + m)) for m in mu_m)
                    + mp.log(2 * mp.pi) / 2 * (s_mu1 - s_nu1)
                    + (1 - n) * mp.zeta(-1, derivative=1)
                    + coef_n * mp.log(n)
                    + coef_n1 * mp.log(1 + n)
                )
                assert abs(ln_c - float(ref)) < 1e-12 * max(1.0, abs(float(ref))), (r, q, nu, mu)

    def test_left_b_is_exact_rational(self):
        # 2 * ((131 + 215 + 319) - (187 + 261)) / 100 = 217/50
        assert Fraction(2) * (Fraction(131 + 215 + 319, 100) - Fraction(187 + 261, 100)) == Fraction(217, 50)
        assert float(Fraction(217, 50)) == 4.34

    def test_right_parameter_set(self):
        cc = compute_coeffs(RIGHT)
        assert cc.rho == 0.25
        assert abs(cc.a - 4.0 / math.sqrt(3.0)) < 1e-12
        assert abs(cc.b - 12.96771594095856) < 1e-12
        assert abs(cc.c - (-2.4370708333333333)) < 1e-12
        assert abs(cc.ln_c - RIGHT_LN_C) < 1e-12

    def test_bessel_nu_zero_all_vanish(self):
        cc = compute_coeffs(ProcessParams(1, 0, (0.0,)))
        assert (cc.rho, cc.a, cc.b, cc.c) == (0.5, 1.0, 0.0, 0.0)
        assert abs(cc.ln_c) < 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.5])
    def test_bessel_specialization(self, nu):
        cc = compute_coeffs(ProcessParams(1, 0, (nu,)))
        assert cc.rho == 0.5
        assert cc.a == 1.0
        assert cc.b == 2.0 * nu
        assert cc.c == -nu * nu / 4.0
        assert abs(cc.ln_c - log_constant_bessel(nu)) < 1e-12

    def test_pole_zero_invariance(self):
        base = ProcessParams(2, 1, (0.4, 1.7), (0.9,))
        c0 = compute_coeffs(base)
        for t in (-0.5, 0.0, 1.4, 3.0):
            c1 = compute_coeffs(ProcessParams(3, 2, base.nu + (t,), base.mu + (t,)))
            for a, b in zip(
                (c0.rho, c0.a, c0.b, c0.c, c0.ln_c), (c1.rho, c1.a, c1.b, c1.c, c1.ln_c)
            ):
                assert abs(a - b) < 1e-11

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(17)
        nu = tuple(rng.uniform(-0.9, 5, 3))
        mu = tuple(rng.uniform(-0.9, 5, 2))
        c0 = compute_coeffs(ProcessParams(3, 2, nu, mu))
        c1 = compute_coeffs(ProcessParams(3, 2, nu[::-1], mu[::-1]))
        c2 = compute_coeffs(ProcessParams(3, 2, (nu[1], nu[2], nu[0]), mu))
        for other in (c1, c2):
            assert abs(c0.ln_c - other.ln_c) < 1e-12
            assert abs(c0.b - other.b) < 1e-12
            assert abs(c0.c - other.c) < 1e-12


class TestLogConstantBessel:
    def test_zero(self):
        assert log_constant_bessel(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_nu_one(self):
        # lnG(2) - ln sqrt(2 pi) - (ln 2)/2, mpmath: -1.2655121234846454
        assert abs(log_constant_bessel(1.0) - (-1.2655121234846454)) < 1e-12

    @pytest.mark.parametrize("nu", [0.3, 1.7])
    def test_matches_compute_coeffs(self, nu):
        cc = compute_coeffs(ProcessParams(1, 0, (nu,)))
        assert abs(cc.ln_c - log_constant_bessel(nu)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            log_constant_bessel(-1.0)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_domain_nonfinite(self, nu):
        with pytest.raises(DomainError, match="finite nu > -1"):
            log_constant_bessel(nu)


class TestLogConstantKr:
    def test_reduces_to_bessel_at_r_one(self):
        assert abs(log_constant_kr(1.0, 0.8) - log_constant_bessel(0.8)) < 1e-12
        assert log_constant_kr(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_r3_nu0_factor_by_factor(self):
        ref = -2.0 * zeta_prime_minus1() + (16.0 / 96.0) * math.log(3.0) - (4.0 / 24.0) * math.log(4.0)
        assert abs(log_constant_kr(3.0, 0.0) - ref) < 1e-13

    def test_real_r_accepted(self):
        # interpolation path is continuous in r
        vals = [log_constant_kr(r, 0.5) for r in (1.0, 1.5, 2.0)]
        assert all(math.isfinite(v) for v in vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_constant_kr(0.5, 0.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_domain_nonfinite_r(self, r):
        with pytest.raises(DomainError, match="finite r >= 1"):
            log_constant_kr(r, 0.5)

    @pytest.mark.parametrize("nu", [-1.0, math.nan, math.inf, -math.inf])
    def test_domain_nu(self, nu):
        with pytest.raises(DomainError, match="finite nu > -1"):
            log_constant_kr(2.0, nu)


class TestLogConstantMb:
    def test_identity_point(self):
        assert log_constant_mb(1, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_constant_mb(0, 0.0)

    @pytest.mark.parametrize("r", [1.5, math.nan, math.inf, -math.inf])
    def test_domain_nonfinite_or_fractional_r(self, r):
        with pytest.raises(DomainError, match="integer r >= 1"):
            log_constant_mb(r, 0.0)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf, -math.inf])
    def test_domain_alpha(self, alpha):
        with pytest.raises(DomainError, match="finite alpha > -1"):
            log_constant_mb(2, alpha)


class TestTruncatedLogExpansion:
    def test_constant_only(self):
        cc = AsymptoticCoeffs(rho=0.5, a=0.0, b=0.0, c=0.0, ln_c=-2.963)
        assert truncated_log_expansion(10.0, cc) == -2.963

    def test_left_at_one(self):
        cc = compute_coeffs(LEFT)
        val = truncated_log_expansion(1.0, cc)
        assert abs(val - (-cc.a + cc.b + cc.ln_c)) < 1e-14
        assert abs(val - 0.377) < 1e-3

    def test_bessel_nu0_at_four(self):
        cc = compute_coeffs(ProcessParams(1, 0, (0.0,)))
        assert abs(truncated_log_expansion(4.0, cc) - (-4.0)) < 1e-10

    def test_rejects_nonpositive_s(self):
        cc = compute_coeffs(LEFT)
        for s in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="s must be positive and finite"):
                truncated_log_expansion(s, cc)
