"""Special-function tests.

Frozen reference values were computed with mpmath at 40-50 digits; live
oracles use scipy where a routine exists and mpmath otherwise.
"""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jv, loggamma as scipy_loggamma, psi as scipy_psi

from meijergap.errors import DomainError, PoleError, RangeError
from meijergap.specfun import (
    _sincospi_factors,
    bessel_j,
    cexp,
    digamma,
    hurwitz_zeta_prime,
    log_barnes_g,
    log_gamma,
    zeta_prime_minus1,
)

LN_SQRT_PI = 0.5723649429247001
ZETA_PRIME_M1 = -0.16542114370045094  # mpmath, 50 digits
EULER_GAMMA = 0.5772156649015329


class TestCexp:
    """e^(re + i im) by the half-angle formula from numpy's real tan and exp."""

    @pytest.mark.parametrize("im_max", [1.0, 100.0, 1e4])
    def test_against_numpy_exp(self, im_max):
        # each part read at most 2.4 eps e^re on these points
        rng = np.random.default_rng(17)
        re, im = rng.uniform(-5.0, 5.0, 20000), rng.uniform(-im_max, im_max, 20000)
        ref = np.exp(re + 1j * im)
        val = cexp(re.copy(), im.copy())
        bound = 3.0 * np.finfo(float).eps * np.exp(re)
        assert np.all(np.abs(val.real - ref.real) <= bound)
        assert np.all(np.abs(val.imag - ref.imag) <= bound)

    def test_minus_infinity_gives_exact_zeros_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = cexp(np.full(5, -np.inf), np.array([0.0, 1.0, -2.0, 3e3, -1e4]))
        assert np.all(val == 0.0)

    def test_odd_in_the_imaginary_part_bit_for_bit(self):
        rng = np.random.default_rng(3)
        re, im = rng.uniform(-5.0, 5.0, 5000), rng.uniform(-1e4, 1e4, 5000)
        plus, minus = cexp(re.copy(), im.copy()), cexp(re.copy(), -im)
        assert np.array_equal(minus.view(np.int64), np.conj(plus).view(np.int64))

    @pytest.mark.parametrize("x", [0.5, -0.5, 1.5, -2.5])
    def test_sincospi_cosine_factor_tiny_and_positive(self, x):
        # at a half-integer the cosine factor c is a tiny positive number, so a
        # signed-zero imaginary part keeps its sign in Im sin(pi z) = c sh
        for y in (0.0, -0.0):
            s, c, ch, sh = _sincospi_factors(np.array([complex(x, y)]))
            assert math.copysign(1.0, (c * sh)[0]) == math.copysign(1.0, y)
        assert 0.0 < c[0] < 1e-15


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-13

    def test_at_half(self):
        assert abs(log_gamma(0.5) - LN_SQRT_PI) < 1e-13

    def test_complex_point(self):
        # mpmath loggamma(3.7 + 2.1j), 50 digits
        ref = 0.7853469580738222 + 2.583012925115262j
        assert abs(log_gamma(3.7 + 2.1j) - ref) < 1e-13

    @pytest.mark.parametrize("z", [0.0, -1.0, -3.0, -2.0 + 1e-14j])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_against_scipy_on_strip(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(0.1, 30, 200) + 1j * rng.uniform(-30, 30, 200)
        assert np.abs(log_gamma(z) - scipy_loggamma(z)).max() < 1e-12

    def test_overflow_guard(self):
        with pytest.raises(RangeError):
            log_gamma(1e307)

    def test_non_finite_argument(self):
        with pytest.raises(DomainError, match="finite real and imaginary parts"):
            log_gamma(complex(math.inf, 0.0))

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0.2, 15, 50) + 1j * rng.uniform(-15, 15, 50)
        assert np.abs(log_gamma(np.conj(z)) - np.conj(log_gamma(z))).max() == 0.0

    @pytest.mark.parametrize("x", [-0.3, -0.5, -0.7, -1.5, -2.5, -10.2, -59.999, -150.3])
    def test_conjugation_symmetry_on_the_cut(self, x):
        # a signed-zero imaginary part picks the side of the cut (-inf, 0]
        above, below = log_gamma(complex(x, 0.0)), log_gamma(complex(x, -0.0))
        assert below == np.conj(above)
        for z, val in ((complex(x, 0.0), above), (complex(x, -0.0), below)):
            ref = scipy_loggamma(z)
            assert abs(val - ref) < 1e-13 * abs(ref)

    @pytest.mark.parametrize(
        "region",
        ["left strip", "far left strip", "rays", "near poles", "|Im| = 10 line", "Re = 0.5 line", "Re = 10 line"],
    )
    def test_against_scipy_by_region(self, region):
        rng = np.random.default_rng(11)
        if region == "left strip":
            z = rng.uniform(-160, 0.5, 400) + 1j * rng.uniform(-10, 10, 400)
        elif region == "far left strip":
            # the reflection's (-1)^n at n near -1e6: a wrong sign moves
            # ln sin(pi z) by i pi, about 2e-7 of |ln Gamma| here
            z = rng.uniform(-1e6, -1e6 + 200, 400) + 1j * rng.uniform(-10, 10, 400)
        elif region == "rays":
            r = rng.uniform(0.1, 320, 200)
            z = np.concatenate([r * np.exp(2j * np.pi / 3), r * np.exp(-2j * np.pi / 3)])
        elif region == "near poles":
            dist = 10.0 ** rng.uniform(-8, -3, 400)
            z = -rng.integers(0, 61, 400) + dist * np.exp(1j * rng.uniform(0, 2 * np.pi, 400))
        else:
            t = rng.uniform(-30, 12, 100) if region == "|Im| = 10 line" else rng.uniform(-10, 10, 100)
            edge = 10.0 if region != "Re = 0.5 line" else 0.5
            sides = [edge, np.nextafter(edge, 0.0)]
            if region == "|Im| = 10 line":
                z = np.concatenate([t + 1j * s for s in sides + [-s for s in sides]])
            else:
                z = np.concatenate([s + 1j * t for s in sides])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = log_gamma(z)
        ref = scipy_loggamma(z)
        assert np.max(np.abs(val - ref) / np.abs(ref)) < 1e-13

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(13)
        z = np.concatenate(
            [
                rng.uniform(-160, 0.5, 60) + 1j * rng.uniform(-10, 10, 60),
                rng.uniform(0.5, 30, 60) + 1j * rng.uniform(-30, 30, 60),
                rng.uniform(-50, 0, 20) + 1j * rng.choice([-0.0, 0.0], 20),
            ]
        )
        for f in (log_gamma, digamma, log_barnes_g):
            assert np.array_equal(f(z), np.array([f(complex(v)) for v in z]))
            assert np.array_equal(f(z.reshape(4, 35)), f(z).reshape(4, 35))


class TestDigamma:
    def test_at_one(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13

    def test_recurrence(self):
        z = 2.3 + 0.7j
        assert abs(digamma(z + 1) - digamma(z) - 1 / z) < 1e-14

    def test_three_term_asymptotic(self):
        z = 10.0
        approx = math.log(z) - 1 / (2 * z) - 1 / (12 * z * z)
        assert abs(digamma(z).real - approx) < 1e-6

    def test_pole_error(self):
        with pytest.raises(PoleError):
            digamma(-2.0)

    def test_conjugation_symmetry(self):
        z = 3.1 - 4.2j
        assert digamma(np.conj(z)) == np.conj(digamma(z))

    def test_against_scipy(self):
        # the reflected strip, the shifted strip and the Stirling region
        rng = np.random.default_rng(17)
        z = rng.uniform(-60, 30, 600) + 1j * rng.uniform(-30, 30, 600)
        z = np.concatenate([z, rng.uniform(-60, 0.5, 200) + 1j * rng.uniform(-10, 10, 200)])
        assert np.max(np.abs(digamma(z) - scipy_psi(z)) / np.abs(scipy_psi(z))) < 1e-13


def _assert_near_mpmath(z, bound):
    """log_barnes_g(z) against mpmath's log G at 30 digits: each part within
    ``bound`` of max(1, |ln G|), the imaginary part modulo 2 pi, since
    mpmath takes the principal log of G.  Each bound is about three times
    the largest error measured on its points, which leaves room for another
    platform's libm."""
    with mp.workdps(30):
        ref = np.array([complex(mp.log(mp.barnesg(mp.mpc(v.real, v.imag)))) for v in z])
    val = log_barnes_g(z)
    scale = np.maximum(1.0, np.abs(ref))
    assert np.max(np.abs(val.real - ref.real) / scale) < bound
    turns = np.remainder(val.imag - ref.imag + np.pi, 2 * np.pi) - np.pi
    assert np.max(np.abs(turns) / scale) < bound


class TestLogBarnesG:
    def test_trivial_values(self):
        assert abs(log_barnes_g(1.0)) < 1e-12
        assert abs(log_barnes_g(3.0)) < 1e-12

    def test_recurrence_at_nu(self):
        z = 1.0 + 2.5
        resid = log_barnes_g(z + 1) - log_gamma(z) - log_barnes_g(z)
        assert abs(resid) < 1e-12

    @pytest.mark.parametrize(
        "z,ref",
        [
            (3.5, 0.23083252127267864),
            (0.7, -0.21458989707506246),
            (12.25, 68.2129527917423),
            (51.0, 3060.4842587180888),
        ],
    )
    def test_real_values(self, z, ref):
        # mpmath barnesg, 50 digits
        assert abs(log_barnes_g(z).real - ref) < 1e-11 * max(1.0, abs(ref))

    def test_pole_error(self):
        with pytest.raises(PoleError):
            log_barnes_g(0.0)

    @pytest.mark.parametrize(
        "z, where", [(-2.0, "(-2+0j)"), (-3.0 + 1e-14j, "(-3+1e-14j)"), (np.array([2.5, -1.0, -4.0]), "(-1+0j)")]
    )
    def test_pole_error_names_the_first_pole(self, z, where):
        # the entries are checked for poles in order, before the shift, so
        # the message names the first pole given
        with pytest.raises(PoleError, match=re.escape(f"argument {where} is at")):
            log_barnes_g(z)

    def test_overflow_raises_range_error_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                log_barnes_g(1e200)

    def test_far_left_raises_range_error_without_warnings(self):
        # the shift takes one principal log per step; Re z < -1000 is
        # refused before the step count is sized, not allocated for
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (-1e200 + 1e200j, -1e6, -1000.5, np.array([2.5, -1000.5])):
                with pytest.raises(RangeError, match="Re z >= -1000"):
                    log_barnes_g(z)
            assert math.isfinite(log_barnes_g(-999.5).real)

    def test_complex_against_mpmath(self):
        # the oracle batch range, Re in (0.5, 20) and |Im| < 20: 2.6e-14
        # measured
        rng = np.random.default_rng(23)
        _assert_near_mpmath(rng.uniform(0.5, 20.0, 40) + 1j * rng.uniform(-20.0, 20.0, 40), 8e-14)

    @pytest.mark.parametrize(
        "re_range, im_max, bound",
        [((0.01, 6.0), 0.0, 1.5e-13), ((-60.0, 0.5), 15.0, 5e-14), ((-900.0, -60.0), 15.0, 4e-15)],
        ids=["real", "left", "far left"],
    )
    def test_against_mpmath_by_region(self, re_range, im_max, bound):
        # measured: 6.1e-14 on the real interval (0.01, 6), 1.6e-14 on
        # Re in (-60, 0.5) and 1.2e-15 on Re in (-900, -60), |Im| < 15
        rng = np.random.default_rng(29)
        _assert_near_mpmath(rng.uniform(*re_range, 60) + 1j * rng.uniform(-im_max, im_max, 60), bound)

    @pytest.mark.parametrize(
        "z",
        [
            complex(-999.5, 0.0),
            complex(-999.5, -0.0),
            complex(-3.25, 0.0),
            complex(-3.25, -0.0),
            complex(-0.5, 0.0),
            complex(-7.5, 2.0),
            complex(-40.3, -0.5),
            complex(-612.7, 14.0),
            complex(2.5, 3.0),
        ],
    )
    def test_branch_matches_log_gamma_shift(self, z):
        # ln G(z) = ln G(z + n) - sum_{j<n} ln Gamma(z + j) with principal
        # log-gammas, n = ceil(11 - Re z), and no reduction modulo 2 pi: the
        # imaginary part carries the branch those log-gammas give, a
        # signed-zero imaginary part included
        n = math.ceil(11.0 - z.real)
        shifted = np.empty(n, dtype=complex)
        shifted.real, shifted.imag = z.real + np.arange(n), z.imag  # keeps the sign of a zero Im z
        lg = log_gamma(shifted)
        ref = log_barnes_g(complex(z.real + n, z.imag)) - complex(math.fsum(lg.real), math.fsum(lg.imag))
        assert abs(log_barnes_g(z) - ref) <= 1e-13 * abs(ref)

    def test_conjugation_symmetry(self):
        # bit for bit, on the shifted strip, the far left and the real axis
        # with both signs of a zero imaginary part
        rng = np.random.default_rng(29)
        z = np.concatenate(
            [
                rng.uniform(-60.0, 20.0, 200) + 1j * rng.uniform(-20.0, 20.0, 200),
                rng.uniform(-1000.0, -60.0, 40) + 1j * rng.uniform(-15.0, 15.0, 40),
                rng.uniform(-60.0, 20.0, 40) + 0j,
            ]
        )
        assert np.array_equal(log_barnes_g(np.conj(z)), np.conj(log_barnes_g(z)))


class TestHurwitzZetaPrime:
    def test_riemann_point(self):
        assert abs(hurwitz_zeta_prime(1.0) - ZETA_PRIME_M1) < 1e-12

    def test_constant_matches(self):
        assert zeta_prime_minus1() == hurwitz_zeta_prime(1.0)
        assert abs(zeta_prime_minus1() - ZETA_PRIME_M1) < 1e-12

    def test_u2_equals_riemann(self):
        # forced by lnG(2) = zeta'(-1) - zeta'(-1,2) + lnGamma(2) with lnG(2) = 0
        assert abs(hurwitz_zeta_prime(2.0) - ZETA_PRIME_M1) < 1e-12

    def test_forward_recurrence(self):
        u = 3.5
        lhs = hurwitz_zeta_prime(u + 1.0)
        rhs = hurwitz_zeta_prime(u) + u * math.log(u)
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize(
        "u,ref",
        [
            (0.25, 0.09356786897026106),
            (3.5, 2.606180340894556),
            (7.3, 32.63768615843973),
        ],
    )
    def test_frozen_values(self, u, ref):
        # mpmath zeta(-1, u, derivative=1), 50 digits
        assert abs(hurwitz_zeta_prime(u) - ref) < 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("u", [0.0, -1.5])
    def test_domain_error(self, u):
        with pytest.raises(DomainError):
            hurwitz_zeta_prime(u)


class TestBesselJ:
    def test_origin(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0

    def test_half_integer_closed_form(self):
        x = 2.0
        ref = math.sqrt(2 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - ref) < 1e-13

    def test_against_scipy(self):
        # the ascending series loses ~eps * I_nu(x) to cancellation, so the
        # oracle tolerance widens with the argument
        rng = np.random.default_rng(9)
        for _ in range(50):
            nu = rng.uniform(-0.9, 4.0)
            x = rng.uniform(0.0, 20.0)
            tol = 1e-12 if x <= 10 else 1e-9
            assert abs(bessel_j(nu, x) - jv(nu, x)) < tol

    def test_range_error(self):
        with pytest.raises(RangeError):
            bessel_j(0.0, 30.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0.5, -1.0)
        with pytest.raises(DomainError):
            bessel_j(-0.5, 0.0)
        with pytest.raises(DomainError):
            bessel_j(0.5, math.nan)
        with pytest.raises(DomainError):
            bessel_j(math.nan, 1.0)
        for nu in (math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite nu > -1"):
                bessel_j(nu, 1.0)

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(4)
        x = np.concatenate(([0.0, 0.0], rng.uniform(0.0, 20.0, 38)))
        for nu in (0.0, 0.5, 2.7):
            ref = np.array([bessel_j(nu, xi) for xi in x])
            assert np.array_equal(bessel_j(nu, x), ref)
            assert np.array_equal(bessel_j(nu, x.reshape(5, 8).T), ref.reshape(5, 8).T)
        assert isinstance(bessel_j(0.5, 2.0), float)

    def test_array_errors(self):
        with pytest.raises(DomainError):
            bessel_j(-1.0, np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            bessel_j(0.5, np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            bessel_j(0.5, np.array([1.0, np.nan]))
        with pytest.raises(RangeError):
            bessel_j(0.5, np.array([[1.0, 30.5]]))
        with pytest.raises(DomainError):
            bessel_j(-0.5, np.array([1.0, 0.0]))
