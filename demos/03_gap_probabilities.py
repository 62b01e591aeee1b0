#!/usr/bin/env python3
# Gap probabilities det(1 - K|[0,s]) as Fredholm determinants.
#
# The operator on [0, s] is discretized by an m-point Gauss-Legendre rule
# (Nystrom), symmetrized, and the determinant taken in log space.  The
# determinant of the r=1, nu=0 process has the classical large-s behavior
# exp(-s + ...), which makes a nice visual sanity check.  The Meijer-G
# determinants come from log_gap_determinants, the rule of `meijergap det`
# and `converge`; the Bessel grids are graded toward 0 by kappa_for_nu_min
# as that rule's are.

import math

import numpy as np

from meijergap import (
    BesselKernel,
    ProcessParams,
    gauss_legendre_grid,
    kappa_for_nu_min,
    log_gap_determinant,
    log_gap_determinants,
)

print("=== Bessel point process (nu = 0), kernel on [0, 4s] scale ===")
print(f"{'s':>6} {'det(1-K_Be|[0,s])':>20} {'ln det':>12}")
kernel = BesselKernel(0.0)
bessel_kappa = kappa_for_nu_min(0.0)
for s in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
    ld = log_gap_determinant(s, gauss_legendre_grid(s, 60, bessel_kappa), kernel)
    print(f"{s:6.1f} {math.exp(ld):20.12f} {ld:12.6f}")
print("   (ln det approaches -s/4 + ... : gaps become exponentially rare)")

print("\n=== product-type process, r=3, q=2 showcase parameters ===")
params = ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61))
svals = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
m = 100
print(f"{'s':>6} {'det':>20} {'ln det':>12}")
for s, ld in zip(svals, log_gap_determinants(params, svals, m)):
    print(f"{s:6.1f} {math.exp(ld):20.12f} {ld:12.6f}")

print("\n=== Nystrom refinement at s=4 (spectral-grade convergence) ===")
for m_ref in (20, 40, 80, 160):
    [ld] = log_gap_determinants(params, [4.0], m_ref)
    print(f"   m={m_ref:<4}: ln det = {ld:.14f}")

# Optional picture: determinants for both kernels on a log scale.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ss = np.geomspace(0.25, 16.0, 25)
    bessel_ld = [log_gap_determinant(s, gauss_legendre_grid(s, 60, bessel_kappa), kernel) for s in ss]
    meijer_ld = log_gap_determinants(params, ss, m)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(ss, bessel_ld, "o-", label="Bessel nu=0")
    ax.plot(ss, meijer_ld, "s-", label="Meijer-G r=3, q=2")
    ax.set_xlabel("s")
    ax.set_ylabel("ln det(1 - K|[0,s])")
    ax.set_xscale("log")
    ax.legend()
    fig.tight_layout()
    fig.savefig("gap_probabilities.png", dpi=150)
    print("\nwrote gap_probabilities.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
