"""Acceptance suite: one test per graduation criterion, each printing a
pass/fail line and asserting its stated tolerance and runtime budget.

Criterion 10 checks the large-gap expansion numerically.  For each showcase
parameter set it sweeps s = 2, 4, ..., s_top (32 for r=3, q=2; 1024 for
r=4, q=1, whose rho = 1/4 expansion converges slowly) on kappa=2 graded
grids and asserts that
(i) every ln det agrees between m=100 and m=200 to 1e-6,
(ii) the remainder g = ln det - expansion shrinks strictly in |g|,
(iii) the last doubling difference of f = s^rho g is smaller than the first,
(iv) the order-2 Richardson extrapolation of g in t = s^-rho over the last
three points is within 3e-3 of 0, i.e. the closed-form ln C is confirmed.
The shape of f on a finite range is not part of the claim: for r=4, q=1
it has a maximum near s = 6.5 and a minimum near s = 650.
"""

import math
import time

import numpy as np
import pytest

from meijergap.asymptotics import compute_coeffs, truncated_log_expansion
from meijergap.fredholm import gauss_legendre_grid, log_gap_determinant
from meijergap.kernel import BesselKernel, MeijerKernel, ProcessParams
from meijergap.verify import (
    check_barnes_asymptotic,
    check_barnes_hurwitz_identity,
    check_barnes_recurrence,
    check_bessel_reduction,
    check_bessel_specialization,
    check_conjugation_symmetry,
    check_gamma_recurrence,
    check_kernel_oracle,
    check_kr_endpoint,
    check_muttalib_borodin,
    check_pole_zero_invariance,
)

from test_fredholm import trace_series_determinant

LEFT = ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61))
RIGHT = ProcessParams(4, 1, (1.31, 2.15, 2.61, 3.19), (1.87,))


def _report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.2f}s / budget {budget:.0f}s): {detail}")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s runtime budget"


def test_c01_left_coefficient_regression():
    t0 = time.perf_counter()
    cc = compute_coeffs(LEFT)
    ok = (
        cc.rho == 0.5
        and cc.a == 1.0
        and abs(cc.b - 4.34) < 1e-12
        and abs(cc.c - (-1.551)) < 1e-3
        and abs(cc.ln_c - (-2.963)) < 1e-3
    )
    _report("01", ok, f"rho={cc.rho} a={cc.a} b={cc.b} c={cc.c:.6f} lnC={cc.ln_c:.6f}", time.perf_counter() - t0, 1.0)
    assert ok


def test_c02_right_coefficient_regression():
    t0 = time.perf_counter()
    cc = compute_coeffs(RIGHT)
    ok = (
        cc.rho == 0.25
        and abs(cc.a - 4.0 / math.sqrt(3.0)) < 1e-12
        and abs(cc.b - 12.97) < 0.01
        and abs(cc.c - (-2.437)) < 1e-3
        and abs(cc.ln_c - (-10.097)) < 1e-3
    )
    _report("02", ok, f"rho={cc.rho} a={cc.a:.12f} b={cc.b:.6f} c={cc.c:.6f} lnC={cc.ln_c:.6f}", time.perf_counter() - t0, 1.0)
    assert ok


def test_c03_bessel_consistency():
    t0 = time.perf_counter()
    res = check_bessel_specialization()
    _report("03", res.passed, f"max (rho,a,b,c,lnC) residual {res.residual:.2e}", time.perf_counter() - t0, 1.0)
    assert res.passed


def test_c04_pole_zero_invariance():
    t0 = time.perf_counter()
    res = check_pole_zero_invariance()
    _report("04", res.passed, f"20 random sets, worst coefficient change {res.residual:.2e}", time.perf_counter() - t0, 1.0)
    assert res.passed


def test_c05_muttalib_borodin_relation():
    t0 = time.perf_counter()
    res = check_muttalib_borodin()
    _report("05", res.passed, f"worst relation residual {res.residual:.2e}", time.perf_counter() - t0, 1.0)
    assert res.passed


def test_c06_equal_parameter_endpoint():
    t0 = time.perf_counter()
    res = check_kr_endpoint()
    _report("06", res.passed, f"worst endpoint residual {res.residual:.2e}", time.perf_counter() - t0, 1.0)
    assert res.passed


def test_c07_kernel_bessel_reduction():
    t0 = time.perf_counter()
    res = check_bessel_reduction()
    _report("07", res.passed, f"max |(x/y)^(nu/2) K - 4 K_Be(4x,4y)| = {res.residual:.2e}", time.perf_counter() - t0, 30.0)
    assert res.passed


def test_c08_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    res = check_kernel_oracle()
    _report("08", res.passed, f"max |contour - series| = {res.residual:.2e}", time.perf_counter() - t0, 60.0)
    assert res.passed


def test_c09_fredholm_properties():
    t0 = time.perf_counter()
    details = []

    g = gauss_legendre_grid(1e-8, 4)
    d0 = math.exp(log_gap_determinant(1e-8, g, BesselKernel(0.0)))
    ok = abs(d0 - 1.0) < 1e-6
    details.append(f"det(s->0)={d0:.8f}")

    kernel = BesselKernel(0.0)
    s = 0.5
    det = math.exp(log_gap_determinant(s, gauss_legendre_grid(s, 60), kernel))
    trace = trace_series_determinant(s, kernel)
    ok = ok and abs(det - trace) < 1e-6
    details.append(f"trace-series residual {abs(det - trace):.2e}")

    dets = [math.exp(log_gap_determinant(si, gauss_legendre_grid(si, 60), kernel)) for si in (0.5, 1, 2, 4, 8)]
    ok = ok and all(d1 > d2 for d1, d2 in zip(dets, dets[1:]))
    ok = ok and all(0.0 < d <= 1.0 for d in dets)
    details.append("monotone decrease over s in {0.5..8}")

    handle = MeijerKernel(LEFT, (1e-6, 4.0), tol=1e-12)
    d20, d40, d80 = (math.exp(log_gap_determinant(4.0, gauss_legendre_grid(4.0, m), handle)) for m in (20, 40, 80))
    ratio = abs(d20 - d40) / max(abs(d40 - d80), 1e-300)
    ok = ok and ratio >= 10.0
    details.append(f"refinement ratio {ratio:.1f}x")

    _report("09", ok, "; ".join(details), time.perf_counter() - t0, 300.0)
    assert ok


def _compensated_sweep(params: ProcessParams, s_top: float, nodes=(100, 200), kappa: int = 2):
    """s = 2, 4, ..., s_top and ln det(1 - K|[0,s]) at each node count in
    ``nodes`` on kappa-graded grids, sharing one kernel handle."""
    svals = 2.0 ** np.arange(1, round(math.log2(s_top)) + 1)
    first_node = float(gauss_legendre_grid(svals[0], max(nodes), kappa=kappa).nodes[0])
    handle = MeijerKernel(params, (0.999 * first_node, svals[-1]), tol=1e-12)
    lds = [[log_gap_determinant(s, gauss_legendre_grid(s, m, kappa=kappa), handle) for s in svals] for m in nodes]
    return svals, np.array(lds)


def _richardson_limit(t: np.ndarray, g: np.ndarray) -> float:
    """Value at t = 0 of the polynomial in t through the points (t_i, g_i)."""
    return float(np.linalg.solve(np.vander(t, len(t), increasing=True), g)[0])


@pytest.mark.parametrize("side,params", [("left", LEFT), ("right", RIGHT)])
def test_c10_compensated_convergence(side, params):
    t0 = time.perf_counter()
    cc = compute_coeffs(params)
    svals, (ld_coarse, ld_fine) = _compensated_sweep(params, {"left": 32.0, "right": 1024.0}[side])
    elapsed = time.perf_counter() - t0

    refinement = float(np.max(np.abs(ld_coarse - ld_fine)))
    g = ld_fine - np.array([truncated_log_expansion(s, cc) for s in svals])
    f = svals**cc.rho * g
    limit = _richardson_limit(svals[-3:] ** -cc.rho, g[-3:])

    certified = refinement < 1e-6
    decaying = bool(np.all(np.abs(g[1:]) < np.abs(g[:-1])))
    endpoint = abs(f[-1] - f[-2]) < abs(f[1] - f[0])
    extrapolated = abs(limit) < 3e-3
    ok = certified and decaying and endpoint and extrapolated
    table = ", ".join(f"{s:g}: {gi:.6f}" for s, gi in zip(svals, g))
    detail = (
        f"g={{{table}}}, max|ln det(m=100) - ln det(m=200)|={refinement:.1e}, "
        f"|g| strictly decreasing={decaying}, "
        f"|f({svals[-1]:g})-f({svals[-2]:g})| < |f(4)-f(2)|={endpoint}, "
        f"Richardson limit of g={limit:.2e}"
    )
    _report(f"10-{side}", ok, detail, elapsed, 60.0)
    assert certified, f"{side}: determinants not certified by refinement to 1e-6: {detail}"
    assert decaying, f"{side}: remainder g = ln det - expansion does not decay: {detail}"
    assert endpoint, f"{side}: endpoint doubling difference of f does not shrink: {detail}"
    assert extrapolated, f"{side}: Richardson limit of g is not within 3e-3 of 0: {detail}"


def test_c11_special_function_identity_suite():
    t0 = time.perf_counter()
    results = [
        check_gamma_recurrence(),
        check_barnes_recurrence(),
        check_barnes_asymptotic(),
        check_barnes_hurwitz_identity(),
        check_conjugation_symmetry(),
    ]
    ok = all(r.passed for r in results)
    worst = "; ".join(f"{r.name.split()[0]}:{r.residual:.1e}" for r in results)
    _report("11", ok, worst, time.perf_counter() - t0, 10.0)
    assert ok
