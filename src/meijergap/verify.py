"""Built-in consistency checks: special-function identities, the Bessel
specialization and kernel reduction, parameter-cancellation invariance, the
Muttalib-Borodin relation, the equal-parameter endpoint, and (at the full
level) cross-validation of the two independent kernel evaluation routes.

Each check returns its worst residual together with the tolerance it is held
to, so a failing build names the broken identity and by how much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, kernel, specfun


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e})"


def _result(name, residual, tol):
    return CheckResult(name=name, passed=residual < tol, residual=float(residual), tolerance=tol)


def check_gamma_recurrence() -> CheckResult:
    rng = np.random.default_rng(2024)
    z = rng.uniform(0.5, 20, 100) + 1j * rng.uniform(-20, 20, 100)
    resid = np.abs(np.exp(specfun.log_gamma(z + 1) - specfun.log_gamma(z)) - z).max()
    return _result("log_gamma recurrence exp(lnG(z+1)-lnG(z)) = z", resid, 1e-12)


def check_barnes_recurrence() -> CheckResult:
    rng = np.random.default_rng(2024)
    z = rng.uniform(0.5, 20, 100) + 1j * rng.uniform(-20, 20, 100)
    gap = specfun.log_barnes_g(z + 1) - specfun.log_gamma(z) - specfun.log_barnes_g(z)
    # imaginary part is branch-tracked; compare it modulo 2 pi
    im = np.abs(np.remainder(gap.imag + math.pi, 2 * math.pi) - math.pi)
    resid = max(np.abs(gap.real).max(), im.max())
    return _result("log_barnes_g recurrence lnG(z+1) = lnGamma(z) + lnG(z)", resid, 1e-11)


def check_barnes_asymptotic() -> CheckResult:
    z = 50.0
    five_term = (
        z * z / 4.0
        + z * specfun.log_gamma(z + 1.0).real
        - (z * (z + 1.0) / 2.0 + 1.0 / 12.0) * math.log(z)
        - 1.0 / 12.0
        + specfun.zeta_prime_minus1()
    )
    resid = abs(specfun.log_barnes_g(z + 1.0).real - five_term)
    return _result("log_barnes_g large-z five-term expansion at z=50", resid, 1e-4)


def check_barnes_hurwitz_identity() -> CheckResult:
    rng = np.random.default_rng(2024)
    resid = 0.0
    for z in rng.uniform(0.05, 10.0, 20):
        lhs = (
            specfun.log_barnes_g(z + 1.0).real
            - specfun.zeta_prime_minus1()
            + specfun.hurwitz_zeta_prime(z + 1.0)
            - z * specfun.log_gamma(z + 1.0).real
        )
        resid = max(resid, abs(lhs))
    return _result("Barnes/Hurwitz identity lnG(z+1) = zeta'(-1) - zeta'(-1,z+1) + z lnGamma(z+1)", resid, 1e-10)


def check_conjugation_symmetry() -> CheckResult:
    rng = np.random.default_rng(2024)
    z = rng.uniform(0.2, 15, 50) + 1j * rng.uniform(-15, 15, 50)
    resid = 0.0
    for f in (specfun.log_gamma, specfun.digamma, specfun.log_barnes_g):
        resid = max(resid, np.abs(f(np.conj(z)) - np.conj(f(z))).max())
    return _result("conjugation symmetry f(conj z) = conj f(z)", resid, 1e-13)


def check_bessel_specialization() -> CheckResult:
    resid = 0.0
    for nu in (0.0, 0.3, 1.0, 2.5):
        cc = asymptotics.compute_coeffs(kernel.ProcessParams(1, 0, (nu,)))
        resid = max(
            resid,
            abs(cc.rho - 0.5),
            abs(cc.a - 1.0),
            abs(cc.b - 2.0 * nu),
            abs(cc.c + nu * nu / 4.0),
            abs(cc.ln_c - asymptotics.log_constant_bessel(nu)),
        )
    return _result("Bessel specialization of the expansion coefficients", resid, 1e-12)


def check_pole_zero_invariance() -> CheckResult:
    rng = np.random.default_rng(7)
    resid = 0.0
    for _ in range(20):
        r = int(rng.integers(1, 5))
        q = int(rng.integers(0, r))
        nu = tuple(rng.uniform(-0.9, 5.0, r))
        mu = tuple(rng.uniform(-0.9, 5.0, q))
        t = float(rng.uniform(-0.9, 5.0))
        c0 = asymptotics.compute_coeffs(kernel.ProcessParams(r, q, nu, mu))
        c1 = asymptotics.compute_coeffs(kernel.ProcessParams(r + 1, q + 1, nu + (t,), mu + (t,)))
        for a, b in zip(
            (c0.rho, c0.a, c0.b, c0.c, c0.ln_c), (c1.rho, c1.a, c1.b, c1.c, c1.ln_c)
        ):
            resid = max(resid, abs(a - b))
    return _result("coefficient invariance under appending an equal (nu, mu) pair", resid, 1e-11)


def check_muttalib_borodin() -> CheckResult:
    resid = 0.0
    for r, alpha in ((2, 0.5), (3, 0.0), (3, 1.2)):
        nus = tuple(alpha + j / r for j in range(r))
        cc = asymptotics.compute_coeffs(kernel.ProcessParams(r, 0, nus))
        rel = r * cc.c * math.log(r) + asymptotics.log_constant_mb(r, alpha)
        resid = max(resid, abs(cc.ln_c - rel))
    return _result("Muttalib-Borodin relation ln C = r c ln r + ln C_MB(1/r, alpha)", resid, 1e-10)


def check_kr_endpoint() -> CheckResult:
    resid = 0.0
    for n, nu in ((1, 0.5), (2, 0.0), (3, 1.0)):
        cc = asymptotics.compute_coeffs(kernel.ProcessParams(n, 0, (nu,) * n))
        resid = max(resid, abs(cc.ln_c - asymptotics.log_constant_kr(n, nu)))
    return _result("equal-parameter endpoint ln C = ln C_r", resid, 1e-11)


def check_bessel_reduction() -> CheckResult:
    """The contour kernel at r=1, q=0 against the closed-form Bessel matrix,
    which involves no contour and no t-rule."""
    resid = 0.0
    grid = np.linspace(0.1, 5.0, 5)
    for nu in (0.0, 0.5, 2.0):
        k = kernel.MeijerKernel(kernel.ProcessParams(1, 0, (nu,)), (0.1, 5.0)).matrix(grid)
        kb = 4.0 * (grid[None, :] / grid[:, None]) ** (nu / 2.0) * kernel.BesselKernel(nu).matrix(4.0 * grid)
        resid = max(resid, np.abs(k - kb).max())
    return _result("double-contour kernel reduces to the Bessel kernel at r=1, q=0", resid, 1e-7)


def check_kernel_oracle() -> CheckResult:
    """The contour kernel against the residue-series oracle.

    Both routes integrate G1(t x) G2(t y) over t in [0, 1]: the contour fill
    with its own graded t-rule and the contour sums G1, G2, the oracle with
    a differently graded t-rule and the residue series of the same factors.
    The check therefore covers the two G-sums and two t-rules.  It does not
    cover the Cauchy factor 1/(v - u) of the double contour integral, which
    neither route forms; the kernel tests check the factored fill against
    the double sum with that factor.  The cases reach r - q = 6 (q = 0,
    nu = 0, 1, ..., 5), twice the benchmark catalogue's largest r - q.
    """
    cases = (
        kernel.ProcessParams(2, 0, (0.3, 0.8)),
        kernel.ProcessParams(2, 1, (0.5, 1.2), (0.7,)),
        kernel.ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61)),
        kernel.ProcessParams(6, 0, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)),
    )
    rng = np.random.default_rng(5)
    resid = 0.0
    for params in cases:
        cq = kernel.build_contours(params, (0.05, 2.0))
        for _ in range(10):
            x, y = rng.uniform(0.05, 2.0, 2)
            resid = max(resid, abs(kernel.kernel_eval(x, y, cq) - kernel.kernel_eval_series(x, y, params)))
    return _result("double-contour kernel agrees with the residue-series oracle", resid, 1e-8)


FAST_CHECKS = (
    check_gamma_recurrence,
    check_barnes_recurrence,
    check_barnes_asymptotic,
    check_barnes_hurwitz_identity,
    check_conjugation_symmetry,
    check_bessel_specialization,
    check_pole_zero_invariance,
    check_muttalib_borodin,
    check_kr_endpoint,
    check_bessel_reduction,
)

FULL_CHECKS = FAST_CHECKS + (check_kernel_oracle,)


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run the consistency suite; ``level`` is 'fast' or 'full'."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    checks = FULL_CHECKS if level == "full" else FAST_CHECKS
    return [chk() for chk in checks]
