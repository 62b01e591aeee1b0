"""Complex-plane special functions: log-gamma, digamma, Barnes log-G,
Hurwitz zeta derivative at -1, and Bessel J.

All gamma-family routines use Stirling-type expansions after shifting the
argument into the asymptotic regime by exact recurrences, which keeps the
accuracy uniform on the vertical strips traversed by the kernel contours.
Every function accepts scalars or numpy arrays and is pure; the Bernoulli
table below is immutable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError, RangeError

# Bernoulli numbers B_2..B_30 (exact rationals evaluated in double precision).
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)

_LN_2PI = math.log(2.0 * math.pi)

# Arguments are recurrence-shifted until Re z reaches this threshold before
# the asymptotic series is applied.
_SHIFT_THRESHOLD = 10.0

_POLE_TOL = 1e-12


def _check_poles(z: np.ndarray) -> None:
    """Raise PoleError if any entry is within tolerance of 0, -1, -2, ..."""
    n0 = np.round(z.real)
    bad = (n0 <= 0) & (np.abs(z - n0) < _POLE_TOL)
    if np.any(bad):
        where = np.asarray(z)[bad].ravel()[0]
        raise PoleError(f"argument {where} is at (or within {_POLE_TOL} of) a nonpositive-integer pole")


def _as_complex_array(z):
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must have finite real and imaginary parts")
    return arr


def _guard_finite(res):
    if not np.all(np.isfinite(res)):
        raise RangeError("result overflowed double precision")
    return res


def log_gamma(z):
    """Principal branch of ln Gamma(z), analytic on C minus (-inf, 0].

    Stirling's series with Bernoulli terms through B_30 is applied after
    shifting Re z above 10 via ln Gamma(z) = ln Gamma(z+1) - ln z; each
    shift uses the principal logarithm, which preserves the branch on the
    cut plane.  Accepts complex scalars or arrays.
    """
    arr = _as_complex_array(z)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr).copy()
    _check_poles(w)

    shift = np.zeros_like(w)
    mask = w.real < _SHIFT_THRESHOLD
    while np.any(mask):
        shift[mask] += np.log(w[mask])
        w[mask] += 1.0
        mask = w.real < _SHIFT_THRESHOLD

    with np.errstate(over="ignore", invalid="ignore"):
        res = (w - 0.5) * np.log(w) - w + 0.5 * _LN_2PI
        winv2 = 1.0 / (w * w)
        term = 1.0 / w
        for k, b2k in enumerate(_BERNOULLI, start=1):
            res += b2k / (2 * k * (2 * k - 1)) * term
            term = term * winv2
        res -= shift
    _guard_finite(res)
    return complex(res[0]) if scalar else res


def digamma(z):
    """Digamma psi(z) = d/dz ln Gamma(z), principal branch.

    Same shift-then-Stirling strategy as :func:`log_gamma`, using
    psi(z) = psi(z+1) - 1/z for the recurrence.
    """
    arr = _as_complex_array(z)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr).copy()
    _check_poles(w)

    shift = np.zeros_like(w)
    mask = w.real < _SHIFT_THRESHOLD
    while np.any(mask):
        shift[mask] += 1.0 / w[mask]
        w[mask] += 1.0
        mask = w.real < _SHIFT_THRESHOLD

    winv2 = 1.0 / (w * w)
    res = np.log(w) - 0.5 / w
    term = winv2.copy()
    for k, b2k in enumerate(_BERNOULLI, start=1):
        res -= b2k / (2 * k) * term
        term = term * winv2
    res -= shift
    _guard_finite(res)
    return complex(res[0]) if scalar else res


def log_barnes_g(z):
    """ln G(z) for the Barnes G-function, G(z+1) = Gamma(z) G(z), G(1) = 1.

    The argument is shifted upward through the recurrence
    ln G(z) = ln G(z+n) - sum_{j<n} ln Gamma(z+j) until Re z + n exceeds
    the asymptotic threshold, then the large-z expansion

        ln G(w+1) = w^2/4 + w ln Gamma(w+1) - (w(w+1)/2 + 1/12) ln w
                    - 1/12 + zeta'(-1) + sum_k B_{2k+2}/(2k(2k+1)(2k+2) w^{2k})

    is evaluated at w = z + n - 1.  The imaginary part inherits a consistent
    branch from the principal log-gammas used in the shift; only real
    arguments and conjugation symmetry are exercised by the accuracy
    guarantees.
    """
    arr = _as_complex_array(z)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr).copy()
    _check_poles(w)

    shift = np.zeros_like(w)
    mask = w.real < _SHIFT_THRESHOLD + 1
    while np.any(mask):
        shift[mask] += log_gamma(w[mask])
        w[mask] += 1.0
        mask = w.real < _SHIFT_THRESHOLD + 1

    v = w - 1.0  # expansion variable: ln G(w) = ln G(v+1)
    res = (
        v * v / 4.0
        + v * log_gamma(v + 1.0)
        - (v * (v + 1.0) / 2.0 + 1.0 / 12.0) * np.log(v)
        - 1.0 / 12.0
        + zeta_prime_minus1()
    )
    vinv2 = 1.0 / (v * v)
    term = vinv2.copy()
    for k, b2k2 in enumerate(_BERNOULLI[1:], start=1):  # B_4, B_6, ...
        res += b2k2 / (2 * k * (2 * k + 1) * (2 * k + 2)) * term
        term = term * vinv2
    res -= shift
    _guard_finite(res)
    return complex(res[0]) if scalar else res


def hurwitz_zeta_prime(u: float) -> float:
    """d/ds zeta(s, u) evaluated at s = -1, for real u > 0.

    Euler-Maclaurin with 18 directly summed terms, the trapezoidal and
    integral boundary terms, and 10 Bernoulli corrections (B_4 .. B_22).
    The short direct sum keeps the cancelling intermediates small, which is
    what limits the accuracy here; the Bernoulli tail is < 1e-26 already at
    this cutoff.  Gives 13+ digits for u in (0.1, 100).
    """
    u = float(u)
    if not math.isfinite(u) or u <= 0.0:
        raise DomainError("hurwitz_zeta_prime requires u > 0")
    n_direct = 18
    parts = [-(k + u) * math.log(k + u) for k in range(n_direct)]

    m = n_direct + u
    lm = math.log(m)
    parts += [m * m * lm / 2.0, -m * m / 4.0, -m * lm / 2.0, (1.0 + lm) / 12.0]
    # Bernoulli tail: -sum_{k>=2} B_2k / (2k (2k-1)(2k-2)) * m^(2-2k)
    mp2 = m * m
    mpow = 1.0
    for idx in range(1, 11):  # B_4 .. B_22
        two_k = 2 * (idx + 1)
        mpow /= mp2
        parts.append(-_BERNOULLI[idx] / (two_k * (two_k - 1) * (two_k - 2)) * mpow)
    return math.fsum(parts)


_ZETA_PRIME_M1: float | None = None


def zeta_prime_minus1() -> float:
    """The constant zeta'(-1) = -0.16542114370045..., cached after first use."""
    global _ZETA_PRIME_M1
    if _ZETA_PRIME_M1 is None:
        _ZETA_PRIME_M1 = hurwitz_zeta_prime(1.0)
    return _ZETA_PRIME_M1


_BESSEL_X_MAX = 30.0


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x) for nu > -1, 0 <= x <= 30.

    Ascending power series with Kahan-compensated summation.  The series
    loses accuracy gradually as x grows; 30 is the documented envelope and
    larger arguments raise RangeError rather than returning degraded values.
    """
    nu = float(nu)
    x = float(x)
    if nu <= -1.0:
        raise DomainError("bessel_j requires nu > -1")
    if x < 0.0:
        raise DomainError("bessel_j requires x >= 0")
    if x > _BESSEL_X_MAX:
        raise RangeError(f"bessel_j supports x <= {_BESSEL_X_MAX}; got {x}")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise DomainError("J_nu(0) diverges for nu in (-1, 0)")

    # leading term (x/2)^nu / Gamma(1+nu), then ratio recursion
    term = math.exp(nu * math.log(x / 2.0) - float(log_gamma(1.0 + nu).real))
    q = x * x / 4.0
    total = 0.0
    comp = 0.0  # Kahan carry
    for k in range(400):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        term *= -q / ((k + 1.0) * (k + 1.0 + nu))
        if abs(term) < 1e-17 * (abs(total) + 1e-300):
            break
    return total

