"""Hard-edge Meijer-G point process toolkit: kernel evaluation, gap
probabilities as Fredholm determinants, and the closed-form large-gap
asymptotic coefficients including the multiplicative constant."""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticCoeffs,
    compute_coeffs,
    log_constant_bessel,
    log_constant_kr,
    log_constant_mb,
    truncated_log_expansion,
)
from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    MeijerGapError,
    PoleError,
    RangeError,
    SingularityError,
)
from .fredholm import FredholmGrid, gauss_legendre_grid, kappa_for_nu_min, log_gap_determinant
from .kernel import (
    BesselKernel,
    ContourQuadrature,
    MeijerKernel,
    ProcessParams,
    build_contours,
    kernel_eval,
    kernel_eval_series,
    log_big_f,
)
from .specfun import (
    bessel_j,
    log_barnes_g,
    log_gamma,
    zeta_prime_minus1,
)

__all__ = [
    "__version__",
    "AsymptoticCoeffs",
    "AccuracyError",
    "BesselKernel",
    "ContourQuadrature",
    "ConvergenceError",
    "DomainError",
    "FredholmGrid",
    "MeijerGapError",
    "MeijerKernel",
    "PoleError",
    "ProcessParams",
    "RangeError",
    "SingularityError",
    "bessel_j",
    "build_contours",
    "compute_coeffs",
    "gauss_legendre_grid",
    "kappa_for_nu_min",
    "kernel_eval",
    "kernel_eval_series",
    "log_barnes_g",
    "log_big_f",
    "log_constant_bessel",
    "log_constant_kr",
    "log_constant_mb",
    "log_gamma",
    "log_gap_determinant",
    "truncated_log_expansion",
    "zeta_prime_minus1",
]
