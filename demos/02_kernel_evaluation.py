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

from meijergap import ProcessParams, build_contours, kernel_eval, kernel_eval_series
from meijergap.verify import check_bessel_reduction, check_kernel_oracle

print("=== double-contour vs residue-series ===")
print(check_kernel_oracle().line())

# Coincident parameters make the residue series logarithmic (double poles);
# no verify check covers them, so the demo compares the routes itself.
params = ProcessParams(2, 0, (0.0, 0.0))
cq = build_contours(params, (0.05, 2.0), tol=1e-12)
points = np.random.default_rng(1).uniform(0.05, 2.0, (6, 2))
worst = max(abs(kernel_eval(x, y, cq) - kernel_eval_series(x, y, params)) for x, y in points)
n_nodes = (len(cq.gamma_nodes), len(cq.gammatilde_nodes))
print(f"r=2, q=0, nu={params.nu}: contours {n_nodes}, max route disagreement {worst:.2e}")

# At r=1, q=0 the kernel is 4 (y/x)^(nu/2) K_Be(4x, 4y), where K_Be is the
# closed-form Bessel kernel: no contour and no t-rule.
print("\n=== Bessel reduction at r=1, q=0 ===")
print(check_bessel_reduction().line())

print("\n=== one-point density along the diagonal ===")
params = ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61))
cq = build_contours(params, (0.05, 8.0), tol=1e-12)
for x in (0.05, 0.2, 1.0, 4.0, 8.0):
    print(f"   K(x, x) at x={x:<5}: {kernel_eval(x, x, cq):.10f}")
