"""Closed forms for the large-gap expansion of the gap probability,

    ln det(1 - K|[0,s]) = -a s^(2 rho) + b s^rho + c ln s + ln C + o(1),

including the multiplicative constant C for general parameters, its Bessel
and equal-parameter specializations, and the Muttalib-Borodin constant used
as a cross-check.  Everything is evaluated additively in log space; Barnes-G
products are never exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .kernel import ProcessParams
from .specfun import log_barnes_g, zeta_prime_minus1

_LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Expansion coefficients (rho, a, b, c, ln C)."""

    rho: float
    a: float
    b: float
    c: float
    ln_c: float


def compute_coeffs(params: ProcessParams) -> AsymptoticCoeffs:
    """All five expansion coefficients for the given parameters.

    They depend on the parameters only through n = r - q,
    S1 = sum(nu) - sum(mu), S2 = sum(nu^2) - sum(mu^2) and the Barnes-G
    values, which come from one :func:`log_barnes_g` call:

        rho  = 1/(1+n),           a = n^((1-n)/(1+n)) (n+1)^2 / 4,
        b    = (1+n) n^(-n/(1+n)) S1,
        c    = (n-1)/(12(n+1)) - S2/(2(n+1)),
        ln C = sum ln G(1+nu) - sum ln G(1+mu) - S1 ln(2 pi)/2 + (1-n) zeta'(-1)
               + (S1^2/2 - n^2 S2/(2(n+1)) + (n^3-n^2-2)/(24(n+1))) ln n
               + ((n-1) S2/2 - S1^2/2 - (n-1)^2/24) ln(n+1).
    """
    nu, mu = params.nu, params.mu
    n = params.r - params.q
    s1 = math.fsum(nu) - math.fsum(mu)
    s2 = math.fsum(v * v for v in nu) - math.fsum(m * m for m in mu)
    rho = 1.0 / (1 + n)
    a = float(n) ** ((1.0 - n) / (1 + n)) * (n + 1) ** 2 / 4.0
    b = (1 + n) * float(n) ** (-n / (1.0 + n)) * s1
    c = (n - 1.0) / (12 * (n + 1)) - s2 / (2.0 * (n + 1))

    ln_g = log_barnes_g([1.0 + v for v in nu] + [1.0 + m for m in mu]).real
    ln_c = (
        math.fsum(ln_g[: len(nu)])
        - math.fsum(ln_g[len(nu) :])
        - s1 * _LN_2PI / 2.0
        + (1 - n) * zeta_prime_minus1()
        + (s1 * s1 / 2.0 - n * n * s2 / (2.0 * (n + 1)) + (n**3 - n**2 - 2.0) / (24.0 * (n + 1))) * math.log(n)
        + ((n - 1.0) * s2 / 2.0 - s1 * s1 / 2.0 - (n - 1.0) ** 2 / 24.0) * math.log(n + 1)
    )
    return AsymptoticCoeffs(rho=rho, a=a, b=b, c=c, ln_c=ln_c)


def log_constant_bessel(nu: float) -> float:
    """ln of the Bessel-case constant G(1+nu) (2 pi)^(-nu/2) 2^(-nu^2/2)."""
    nu = float(nu)
    if not -1.0 < nu < math.inf:  # NaN fails too
        raise DomainError("requires finite nu > -1")
    return float(log_barnes_g(1.0 + nu).real) - nu / 2.0 * _LN_2PI - nu * nu / 2.0 * math.log(2.0)


def log_constant_kr(r: float, nu: float) -> float:
    """ln C_r for the interpolating kernel family with all parameters equal:

        C_r = G(1+nu)^r (2 pi)^(-r nu/2) exp(-(r-1) zeta'(-1))
              * r^((-2 + r^2 (r - 1 + 12 nu^2)) / (24 (r+1)))
              * (1+r)^(-((r-1)^2 + 12 r nu^2) / 24).

    ``r`` may be real (the interpolation path is continuous in r >= 1).
    """
    r = float(r)
    nu = float(nu)
    if not 1.0 <= r < math.inf:  # NaN fails too
        raise DomainError("requires finite r >= 1")
    if not -1.0 < nu < math.inf:
        raise DomainError("requires finite nu > -1")
    out = r * float(log_barnes_g(1.0 + nu).real) - r * nu / 2.0 * _LN_2PI - (r - 1.0) * zeta_prime_minus1()
    out += (-2.0 + r * r * (r - 1.0 + 12.0 * nu * nu)) / (24.0 * (r + 1.0)) * math.log(r)
    out -= ((r - 1.0) ** 2 + 12.0 * r * nu * nu) / 24.0 * math.log(1.0 + r)
    return out


def log_constant_mb(r: int, alpha: float) -> float:
    """ln of the Muttalib-Borodin hard-edge constant at theta = 1/r.

    Assembled from the regularized sums d(1, alpha) and d(1/r, alpha),

        d(1/r, a) = r zeta'(-1) + (1 + (1+2a) r)/4 ln(2 pi)
                    - (3 + 1/r + r + 6a(1 + r + a r))/12 ln r
                    - sum_{k=1..r} ln G(1 + a + k/r),

    and the two explicit ln(theta), ln(1+theta) blocks.
    """
    if not (1 <= r < math.inf and int(r) == r):  # NaN fails before int() sees it
        raise DomainError("requires integer r >= 1")
    r = int(r)
    alpha = float(alpha)
    if not -1.0 < alpha < math.inf:  # NaN fails too
        raise DomainError("requires finite alpha > -1")
    theta = 1.0 / r
    # ln G at 1 + alpha, 2 + alpha and 1 + alpha + k/r (k = 1..r), in one call
    ln_g = log_barnes_g([1.0 + alpha, 2.0 + alpha] + [1.0 + alpha + k / r for k in range(1, r + 1)]).real.tolist()

    d_1 = zeta_prime_minus1() + (1.0 + alpha) / 2.0 * _LN_2PI - ln_g[1]
    d_r = (
        r * zeta_prime_minus1()
        + (1.0 + (1.0 + 2.0 * alpha) * r) / 4.0 * _LN_2PI
        - (3.0 + 1.0 / r + r + 6.0 * alpha * (1.0 + r + alpha * r)) / 12.0 * math.log(r)
        - math.fsum(ln_g[2:])
    )

    out = ln_g[0] - alpha / 2.0 * _LN_2PI + d_1 - d_r
    out += (24.0 * alpha * (alpha + 2.0) + 15.0 + 3.0 * theta + 4.0 * theta**2) / (24.0 * (1.0 + theta)) * math.log(theta)
    out += (6.0 * alpha * theta - 6.0 * alpha * (1.0 + alpha) - (theta - 1.0) ** 2) / (12.0 * theta) * math.log(1.0 + theta)
    return out


def truncated_log_expansion(s: float, coeffs: AsymptoticCoeffs) -> float:
    """-a s^(2 rho) + b s^rho + c ln s + ln C, the truncated expansion of
    ln det(1 - K|[0,s])."""
    s = float(s)
    if not 0.0 < s < math.inf:  # NaN fails too
        raise DomainError("s must be positive and finite")
    return (
        -coeffs.a * s ** (2.0 * coeffs.rho)
        + coeffs.b * s**coeffs.rho
        + coeffs.c * math.log(s)
        + coeffs.ln_c
    )
