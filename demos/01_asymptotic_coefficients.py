#!/usr/bin/env python3
# Tour of the closed-form large-gap expansion coefficients
#
#     ln det(1 - K|[0,s]) = -a s^(2 rho) + b s^rho + c ln s + ln C + o(1),
#
# for the hard-edge Meijer-G point process, including the multiplicative
# constant C, and the exact cross-checks that pin it down.  Each cross-check
# is one of `meijergap verify`'s checks; the demo prints its result line.

import math

from meijergap import ProcessParams, compute_coeffs
from meijergap.verify import (
    check_bessel_specialization,
    check_kr_endpoint,
    check_muttalib_borodin,
    check_pole_zero_invariance,
)

# Two showcase parameter sets (the same ones used by the converge demo).
SHOWCASES = {
    "r=3, q=2": ProcessParams(3, 2, (1.31, 2.15, 3.19), (1.87, 2.61)),
    "r=4, q=1": ProcessParams(4, 1, (1.31, 2.15, 2.61, 3.19), (1.87,)),
}

print("=== expansion coefficients ===")
for label, params in SHOWCASES.items():
    cc = compute_coeffs(params)
    print(f"{label}: nu={params.nu} mu={params.mu}")
    print(f"   rho = {cc.rho:.15g}")
    print(f"   a   = {cc.a:.15g}")
    print(f"   b   = {cc.b:.15g}")
    print(f"   c   = {cc.c:.15g}")
    print(f"   lnC = {cc.ln_c:.15g}   (C = {math.exp(cc.ln_c):.15g})")

print("\n=== cross-checks (the `meijergap verify` lines) ===")

# The r=1, q=0 process is the Bessel point process; the general constant
# must collapse to G(1+nu) (2 pi)^(-nu/2) 2^(-nu^2/2).
print(check_bessel_specialization().line())

# Collapsing all parameters to a single nu reproduces the constant of the
# interpolating kernel family in closed form.
print(check_kr_endpoint().line())

# At theta = 1/r with nu_j = alpha + (j-1)/r the process coincides with the
# hard edge of the Muttalib-Borodin ensemble after rescaling, which forces
# ln C = r c ln r + ln C_MB(1/r, alpha).
print(check_muttalib_borodin().line())

# Appending an equal (nu, mu) pair leaves the gamma-ratio symbol F, hence
# the kernel and every coefficient, unchanged.
print(check_pole_zero_invariance().line())
