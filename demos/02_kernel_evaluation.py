#!/usr/bin/env python3
# Evaluating the hard-edge Meijer-G kernel two independent ways.
#
# Both routes integrate G1(t x) G2(t y) over t in [0, 1], the integrable
# form of the kernel, each with its own graded t-rule.  Route 1
# (production): discretize the two Mellin-Barnes contours once, so that
# G1 and G2 are contour sums, and precompute their products with the
# t-powers; a matrix of K(x, y) is then three real matrix products.
# Route 2 (oracle): sum the residue series of the two Meijer G-function
# factors.  The routes share no contour, so their agreement checks the
# G-sums and the t-rules.  For r=1, q=0 both must also reduce to the
# classical Bessel kernel.

import numpy as np

from meijergap import (
    BesselKernel,
    ProcessParams,
    build_contours,
    kernel_eval,
    kernel_eval_series,
    kernel_matrix,
)

print("=== double-contour vs residue-series ===")
cases = [
    ProcessParams(2, 0, (0.3, 0.8)),
    ProcessParams(2, 1, (0.5, 1.2), (0.7,)),
    ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61)),
    ProcessParams(2, 0, (0.0, 0.0)),   # coincident parameters (logarithmic series)
]
rng = np.random.default_rng(1)
for params in cases:
    cq = build_contours(params, (0.05, 2.0), tol=1e-12)
    worst = 0.0
    for _ in range(6):
        x, y = rng.uniform(0.05, 2.0, 2)
        worst = max(worst, abs(kernel_eval(x, y, cq) - kernel_eval_series(x, y, params)))
    n_nodes = (len(cq.gamma_nodes), len(cq.gammatilde_nodes))
    print(f"r={params.r}, q={params.q}, nu={params.nu}: contours {n_nodes}, "
          f"max route disagreement {worst:.2e}")

print("\n=== Bessel reduction at r=1, q=0 ===")
grid = np.linspace(0.1, 5.0, 5)
for nu in (0.0, 0.5, 2.0):
    cq = build_contours(ProcessParams(1, 0, (nu,)), (0.1, 5.0), tol=1e-12)
    lhs = kernel_matrix(grid, grid, cq)
    rhs = 4.0 * (grid[None, :] / grid[:, None]) ** (nu / 2.0) * BesselKernel(nu).matrix(4.0 * grid)
    worst = np.abs(lhs - rhs).max()
    print(f"nu={nu}: max |K - 4 (y/x)^(nu/2) K_Be(4x, 4y)| over a 5x5 grid = {worst:.2e}")

print("\n=== one-point density along the diagonal ===")
params = ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61))
cq = build_contours(params, (0.05, 8.0), tol=1e-12)
for x in (0.05, 0.2, 1.0, 4.0, 8.0):
    print(f"   K(x, x) at x={x:<5}: {kernel_eval(x, x, cq):.10f}")
