"""Complex-plane special functions: log-gamma, digamma, Barnes log-G,
Hurwitz zeta derivative at -1, and Bessel J.

The gamma-family routines run no data-dependent loop.  ``log_gamma`` and
``digamma`` do a fixed amount of numpy work per point: they apply their
Stirling series directly where Re z >= 10 or |Im z| >= 10; inside the strip
|Im z| < 10 they reflect Re z < 1/2 to 1 - z and shift the rest once, by at
most 10, with an exact recurrence.  This keeps the accuracy uniform on
the vertical strips and far rays traversed by the kernel contours.
``log_barnes_g`` shifts by its own recurrence, n = ceil(11 - Re z) steps,
and writes the shift's log-gammas through ln Gamma(z + n) and principal
logs: one Stirling point and n logs per argument, and no ``log_gamma``
call.  It raises RangeError where Re z < -1000, so n is at most 1011.
Stirling's series for ln Gamma is one private helper, which both
functions call.

No complex ``np.log`` runs in them: each principal log is
ln|z| + i arctan2(Im z, Re z), the recurrence shift is summed in real
arithmetic over a fixed block of 10 rows, one per step j, and the
asymptotic series are evaluated by Horner's rule in 1/v^2.  Nor does a
libm ``sin`` or ``cos``, or a complex ``exp``: numpy computes those one
element at a time, at 24 to 50 ns each, where its vectorized real ``tan``
and ``exp`` take 1 to 3 ns.  Every unit phasor, here and in the kernel's
contour build and fill, comes from :func:`cexp` by the half-angle formula.
Every function accepts scalars or numpy arrays and is pure; the Bernoulli
table below is immutable.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, PoleError, RangeError

# Bernoulli numbers B_2..B_16 (exact rationals evaluated in double precision).
# The series are applied only where |v| >= 10; there the terms past B_16 are
# below 1e-17 relative and would be added after the larger ones, so they
# vanish in rounding (with them through B_30, log_gamma, digamma and
# log_barnes_g gave the same bits on 55,000 points of the left strip, the
# rays and the real axis).
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

# The series of ln Gamma, psi and ln G as polynomials in u = 1/v^2, lowest
# power first: ln Gamma carries a further factor 1/v, psi and ln G a factor u.
_LOG_GAMMA_SERIES = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, start=1))
_DIGAMMA_SERIES = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, start=1))
_BARNES_SERIES = tuple(b / (2 * k * (2 * k + 1) * (2 * k + 2)) for k, b in enumerate(_BERNOULLI[1:], start=1))

_LN_2PI = math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)

# The asymptotic series is applied where Re z >= 10 or |Im z| >= 10; points
# inside that square are reflected or recurrence-shifted out of it first.
_SHIFT_THRESHOLD = 10.0
# the steps j = 0 .. 9 of a shift by at most 10, one row each
_SHIFT_STEPS = np.arange(_SHIFT_THRESHOLD)[:, None]
_SHIFT_STEPS.flags.writeable = False

_POLE_TOL = 1e-12

# log_barnes_g shifts by ceil(11 - Re z) steps, one principal log each;
# below this bound (a shift of more than 1011 steps) it raises RangeError
_BARNES_RE_MIN = -1000.0


def _at_poles(z) -> np.ndarray:
    """Mask of the entries within tolerance of 0, -1, -2, ...: the poles
    :func:`log_gamma` refuses."""
    n0 = np.round(z.real)
    return (n0 <= 0) & (np.abs(z - n0) < _POLE_TOL)


def _check_poles(z: np.ndarray) -> None:
    """Raise PoleError if any entry is within tolerance of 0, -1, -2, ..."""
    bad = _at_poles(z)
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


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _log(z):
    """Principal log ln|z| + i arctan2(Im z, Re z), from real functions.

    The imaginary part has the sign of Im z, a signed zero included, so
    the side of the cut (-inf, 0] is that of np.log.
    """
    return _complex(np.log(np.abs(z)), np.arctan2(z.imag, z.real))


def cexp(re, im):
    """e^(re + i im) for real arrays ``re`` and ``im`` of one shape, from
    vectorized real ufuncs only: with tau = tan(im/2),

        e^(re + i im) = e^re ((1 - tau^2) + 2i tau) / (1 + tau^2).

    Both arrays are overwritten: they hold the temporaries, so a call
    allocates two real arrays, freed before the complex result is.

    Accuracy, measured against ``np.exp(re + 1j*im)`` on re in [-5, 5] and
    |im| <= 1e4: within 2.4 eps e^re in each part.  numpy's ``tan`` was
    within 1.00 ulp of ``math.tan`` up to |im/2| = 1e6, and tan is odd, so
    cexp(re, -im) is conj(cexp(re, im)) bit for bit.  re = -inf gives exact
    zeros with no warning; where e^re overflows the entries are not finite
    (inf, or NaN where a part is 0), with numpy's overflow warning.
    """
    tau = np.multiply(im, 0.5, out=im)
    np.tan(tau, out=tau)
    scale = np.exp(re, out=re)
    den = np.multiply(tau, tau)
    cos = np.subtract(1.0, den)
    den += 1.0
    cos /= den
    tau += tau
    tau /= den  # sin
    del den
    tau *= scale
    scale *= cos
    del cos
    return _complex(scale, tau)


def _horner(coeffs, u):
    """coeffs[0] + coeffs[1] u + coeffs[2] u^2 + ..., by Horner's rule."""
    p = coeffs[-1] * u + coeffs[-2]
    for c in coeffs[-3::-1]:
        p *= u
        p += c
    return p


def _sincospi_factors(z):
    """The real factors of sin(pi z) = s ch + i c sh and
    cos(pi z) = c ch - i s sh: s, c = (-1)^n sin r, (-1)^n cos r with
    r = pi (Re z - n), n the integer nearest Re z, and
    ch, sh = cosh(pi Im z), sinh(pi Im z).

    Re z is reduced exactly to [-1/2, 1/2], and sin r and cos r are the
    parts of :func:`cexp`, from tan(r/2).  At a half-integer c is a tiny
    positive number (1.1e-16), never a zero of either sign, so the part
    c sh of sin(pi z) keeps the sign of a signed-zero Im z.
    """
    x, y = z.real, z.imag
    n = np.round(x)
    sign = 1.0 - 2.0 * (n - 2.0 * np.floor(0.5 * n))  # (-1)^n
    rot = cexp(np.zeros_like(x), np.pi * (x - n))  # e^(i r)
    return sign * rot.imag, sign * rot.real, np.cosh(np.pi * y), np.sinh(np.pi * y)


def _strip(z):
    """Split z for the reflection-and-shift schemes.

    Returns the reflected mask (Re z < 1/2 inside the strip |Im z| < 10),
    w = 1 - z there and z elsewhere, and the shift n = ceil(10 - Re w) for
    the w still inside the square Re w < 10, |Im w| < 10 (1 <= n <= 10,
    since Re w >= 1/2 there) and 0 off it.
    """
    refl = (z.real < 0.5) & (np.abs(z.imag) < _SHIFT_THRESHOLD)
    w = np.where(refl, 1.0 - z, z)
    inside = (w.real < _SHIFT_THRESHOLD) & (np.abs(w.imag) < _SHIFT_THRESHOLD)
    n = np.where(inside, np.ceil(_SHIFT_THRESHOLD - w.real), 0.0)
    return refl, w, n


def _shift_rows(w, n):
    """The entries with n > 0, Im w at them, the real parts a + j of their
    factors w + j as rows j = 0 .. 9, and the index of each entry's last
    factor, row n - 1.  An accumulation down the rows (:func:`_accumulate`),
    read at that index, runs over the entry's own n factors in order of j."""
    near = n > 0
    m = n[near].astype(np.intp)
    return near, w.imag[near], w.real[near] + _SHIFT_STEPS, (m - 1, np.arange(m.size))


def _accumulate(op, rows):
    """``op`` accumulated down the rows, in place: row j becomes
    op(row j-1, row j).  One call per row; numpy's own accumulation along
    the first axis loops over the columns, which is several times slower."""
    for prev, row in zip(rows, rows[1:]):
        op(prev, row, out=row)
    return rows


def _stirling(v):
    """ln Gamma(v) by Stirling's series through B_16, for Re v >= 10 or
    |Im v| >= 10, its sum by Horner's rule in 1/v^2."""
    vinv = 1.0 / v
    return (v - 0.5) * _log(v) - v + 0.5 * _LN_2PI + _horner(_LOG_GAMMA_SERIES, vinv * vinv) * vinv


def log_gamma(z):
    """Principal branch of ln Gamma(z), analytic on C minus (-inf, 0].

    Fixed work per point, in three regions:

    * Re z >= 10 or |Im z| >= 10: Stirling's series with Bernoulli terms
      through B_16, applied directly and evaluated by Horner's rule in
      1/z^2.
    * Re z < 1/2 inside the strip |Im z| < 10: Hare's principal-branch
      reflection (J. Algorithms 25 (1997) 221-236),
      ln Gamma(z) = ln pi + i copysign(2 pi, Im z) floor(Re z/2 + 1/4)
                    - ln sin(pi z) - ln Gamma(1 - z).
      A signed-zero imaginary part selects the side of the cut, so
      ln Gamma(x - 0j) = conj(ln Gamma(x + 0j)).
    * the rest of the strip: one shift by n = ceil(10 - Re z) <= 10,
      ln Gamma(z) = ln Gamma(z + n) - sum_{j<n} ln(z + j).  With
      z = a + ib the sum is formed in real arithmetic, as
      (1/2) ln prod_{j<n} ((a + j)^2 + b^2) + i sum_{j<n} arctan2(b, a + j):
      every factor has a positive real part, so its argument lies in
      (-pi/2, pi/2) and the sum of the arguments keeps the principal branch.

    Every principal log, of z + n and of sin(pi z), is ln|.| + i arctan2
    of the parts; no complex logarithm is taken.  Accepts complex scalars
    or arrays.
    """
    arr = _as_complex_array(z)
    scalar = arr.ndim == 0
    z = np.atleast_1d(arr)
    _check_poles(z)
    refl, w, n = _strip(z)

    with np.errstate(over="ignore", invalid="ignore"):
        res = _stirling(w + n)
        near, b, x, last = _shift_rows(w, n)
        arg = _accumulate(np.add, np.arctan2(b, x))[last]
        x *= x  # in place, |w + j|^2
        x += b * b
        mod2 = _accumulate(np.multiply, x)[last]
        res[near] -= _complex(0.5 * np.log(mod2), arg)
    if np.any(refl):
        zr = z[refl]
        turn = np.copysign(2.0 * math.pi, zr.imag) * np.floor(0.5 * zr.real + 0.25)
        s, c, ch, sh = _sincospi_factors(zr)  # sin(pi z) only
        res[refl] = _LN_PI + 1j * turn - _log(_complex(s * ch, c * sh)) - res[refl]
    _guard_finite(res)
    return complex(res[0]) if scalar else res


def digamma(z):
    """Digamma psi(z) = d/dz ln Gamma(z), principal branch.

    The regions of :func:`log_gamma`: the Stirling series for psi off the
    strip, psi(z) = psi(1 - z) - pi cot(pi z) for Re z < 1/2 inside it, and
    one shift psi(z) = psi(z + n) - sum_{j<n} 1/(z + j) for the rest, each
    1/(a + j + ib) summed as (a + j - ib)/((a + j)^2 + b^2).
    """
    arr = _as_complex_array(z)
    scalar = arr.ndim == 0
    z = np.atleast_1d(arr)
    _check_poles(z)
    refl, w, n = _strip(z)

    v = w + n
    vinv = 1.0 / v
    u = vinv * vinv
    res = _log(v) - 0.5 * vinv - u * _horner(_DIGAMMA_SERIES, u)
    near, b, x, last = _shift_rows(w, n)
    inv = 1.0 / (x * x + b * b)
    res[near] -= _complex(_accumulate(np.add, x * inv)[last], -b * _accumulate(np.add, inv)[last])
    if np.any(refl):
        s, c, ch, sh = _sincospi_factors(z[refl])
        res[refl] -= np.pi * _complex(c * ch, -s * sh) / _complex(s * ch, c * sh)  # pi cot(pi z)
    _guard_finite(res)
    return complex(res[0]) if scalar else res


def log_barnes_g(z):
    """ln G(z) for the Barnes G-function, G(z+1) = Gamma(z) G(z), G(1) = 1.

    The argument is shifted upward through the recurrence
    ln G(z) = ln G(z+n) - sum_{j<n} ln Gamma(z+j), with n = ceil(11 - Re z)
    (0 when Re z >= 11), then the large-z expansion

        ln G(w+1) = w^2/4 + w ln Gamma(w+1) - (w(w+1)/2 + 1/12) ln w
                    - 1/12 + zeta'(-1) + sum_k B_{2k+2}/(2k(2k+1)(2k+2) w^{2k})

    is evaluated at w = z + n - 1, its sum by Horner's rule in 1/w^2.
    Since ln Gamma(v+1) = ln Gamma(v) + ln v for the principal branches,
    the shift is

        sum_{j<n} ln Gamma(z+j) = n ln Gamma(z+n) - sum_{i<n} (i+1) ln(z+i),

    so each argument takes one Stirling evaluation, at z + n (Re >= 11),
    and n principal logs, each ln|z+i| + i arctan2 of the parts, summed
    per entry in order of i; no :func:`log_gamma` call is made.  The
    imaginary part inherits the branch of those principal log-gammas, and
    a signed-zero imaginary part picks the side of the cut, as in
    :func:`log_gamma`.  Re z < -1000 raises RangeError before anything is
    sized by the shift, so the work stays bounded.
    """
    arr = _as_complex_array(z)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr).ravel()
    if np.any(w.real < _BARNES_RE_MIN):
        raise RangeError(f"log_barnes_g supports Re z >= {_BARNES_RE_MIN:g}; got {w[w.real < _BARNES_RE_MIN][0]}")
    _check_poles(w)

    n = np.maximum(np.ceil(_SHIFT_THRESHOLD + 1 - w.real), 0.0).astype(np.intp)
    entry = np.repeat(np.arange(w.size), n)
    i = np.arange(entry.size) - np.repeat(np.cumsum(n) - n, n)
    x, b = w.real[entry] + i, w.imag[entry]
    weight = i + 1.0  # ln(z + i) enters the shift i + 1 times
    v = w + n - 1.0  # expansion variable: ln G(z) = ln G(v+1) - shift

    with np.errstate(over="ignore", invalid="ignore"):
        logs = _complex(
            np.bincount(entry, weight * (0.5 * np.log(x * x + b * b)), w.size),
            np.bincount(entry, weight * np.arctan2(b, x), w.size),
        )
        lg_v = _stirling(v + 1.0)
        u = 1.0 / (v * v)
        res = (
            v * v / 4.0
            + v * lg_v
            - (v * (v + 1.0) / 2.0 + 1.0 / 12.0) * _log(v)
            - 1.0 / 12.0
            + zeta_prime_minus1()
            + u * _horner(_BARNES_SERIES, u)
            - (n * lg_v - logs)
        )
    _guard_finite(res)
    return complex(res[0]) if scalar else res.reshape(arr.shape)


def hurwitz_zeta_prime(u: float) -> float:
    """d/ds zeta(s, u) evaluated at s = -1, for real u > 0.

    Euler-Maclaurin with 18 directly summed terms, the trapezoidal and
    integral boundary terms, and 7 Bernoulli corrections (B_4 .. B_16).
    The short direct sum keeps the cancelling intermediates small, which is
    what limits the accuracy here; the first omitted Bernoulli term is
    < 1e-22 already at this cutoff.  Gives 13+ digits for u in (0.1, 100).
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
    for k, b2k in enumerate(_BERNOULLI[1:], start=2):  # B_4 .. B_16
        mpow /= mp2
        parts.append(-b2k / (2 * k * (2 * k - 1) * (2 * k - 2)) * mpow)
    return math.fsum(parts)


@functools.cache
def zeta_prime_minus1() -> float:
    """The constant zeta'(-1) = -0.16542114370045..., cached after first use."""
    return hurwitz_zeta_prime(1.0)


_BESSEL_X_MAX = 30.0


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x) for nu > -1, 0 <= x <= 30.

    The ascending power series as one plain running sum over every entry of
    ``x`` at once, until each entry's next term is below 1e-17 of its sum:
    under half an ulp, so the further terms an array call adds for its
    slower entries leave a finished sum unchanged, and an array call equals
    element-wise scalar calls; a scalar ``x`` gives a float.

    The error is cancellation among the terms, which grow like e^x / x
    before they fall, not summation rounding, so a compensated sum does not
    reduce it (measured: the same largest error per band to within 1.2x).
    Against mpmath at 3000 points of [0.01, 30], nu in {-0.5, 0, 0.5, 0.7,
    1.5, 2.5, 4}, it is at most 1.2e-13 on (0, 10], 1.3e-9 on (10, 20] and
    2.3e-5 on (20, 30], absolute.  30 is the documented envelope; larger
    arguments raise RangeError rather than returning degraded values.
    """
    nu = float(nu)
    arr = np.asarray(x, dtype=float)
    if not -1.0 < nu < math.inf:  # NaN fails too
        raise DomainError("bessel_j requires finite nu > -1")
    if not np.all(arr >= 0.0):  # NaN fails too
        raise DomainError("bessel_j requires x >= 0")
    if np.any(arr > _BESSEL_X_MAX):
        raise RangeError(f"bessel_j supports x <= {_BESSEL_X_MAX}; got {arr[arr > _BESSEL_X_MAX][0]}")
    x = arr.ravel()
    zero = x == 0.0
    if nu < 0.0 and np.any(zero):
        raise DomainError("J_nu(0) diverges for nu in (-1, 0)")

    # leading term (x/2)^nu / Gamma(1+nu), then ratio recursion; x = 0
    # entries hold J_nu(0) from the start and add terms of 0
    term = np.exp(nu * np.log(np.where(zero, 1.0, x / 2.0)) - math.lgamma(1.0 + nu))
    term[zero] = 0.0
    total = np.where(zero, float(nu == 0.0), 0.0)
    q = x * x / 4.0
    for k in range(400):
        total += term
        term *= -q / ((k + 1.0) * (k + 1.0 + nu))
        if np.all(np.abs(term) < 1e-17 * (np.abs(total) + 1e-300)):
            break
    return float(total[0]) if arr.ndim == 0 else total.reshape(arr.shape)
