"""Gap probabilities det(1 - K|[0,s]) by Nystrom discretization.

The integral operator on [0, s] is replaced by the symmetrized quadrature
matrix M_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j) on a Gauss-Legendre grid; the
similarity transform leaves the determinant invariant and improves
conditioning.  det(I - M) is evaluated through an LU factorization with
partial pivoting, accumulating log |pivots| so that determinants far below
double-precision underflow remain representable in log form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

_WEIGHT_SUM_TOL = 1e-12


@functools.lru_cache(maxsize=32)
def _legendre_rule(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    Every caller shares the returned arrays, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class FredholmGrid:
    """Quadrature rule on (0, s): strictly increasing nodes, positive weights
    summing to s."""

    s: float
    m: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (np.all(np.diff(self.nodes) > 0) and self.nodes[0] > 0 and self.nodes[-1] < self.s):
            raise DomainError("grid nodes must increase strictly inside (0, s)")
        if np.any(self.weights <= 0):
            raise DomainError("grid weights must be positive")
        if abs(float(np.sum(self.weights)) - self.s) > _WEIGHT_SUM_TOL * max(1.0, self.s):
            raise DomainError("grid weights must sum to s")


def gauss_legendre_grid(s: float, m: int, kappa: int = 1) -> FredholmGrid:
    """m-point Gauss-Legendre rule mapped affinely from [-1, 1] to [0, s].

    ``kappa > 1`` applies the variable change x = s^(1-kappa) xi^kappa
    (equivalently x = (eta)^kappa on [0, s^(1/kappa)]), which grades the
    rule toward 0 and restores quadrature accuracy when the one-point
    density has an integrable x^nu_min singularity there (nu_min in (-1,0)).
    """
    s = float(s)
    if s <= 0.0:
        raise DomainError("s must be positive")
    m = int(m)
    if m < 2:
        raise DomainError("node count m must be at least 2")
    kappa = int(kappa)
    if kappa < 1:
        raise DomainError("kappa must be a positive integer")
    t, w = _legendre_rule(m)
    edge = s ** (1.0 / kappa)
    eta = edge * (t + 1) / 2
    w_eta = edge * w / 2
    return FredholmGrid(s=s, m=m, nodes=eta**kappa, weights=kappa * eta ** (kappa - 1) * w_eta)


def kappa_for_nu_min(nu_min: float) -> int:
    """Grading exponent ceil(2 / (1 + nu_min)) for singular densities, 1 otherwise."""
    if nu_min >= 0.0:
        return 1
    return math.ceil(2.0 / (1.0 + nu_min))


def log_gap_determinant(s: float, grid: FredholmGrid, kernel) -> float:
    """ln det(1 - K|[0,s]) for the kernel handle on the given grid.

    ``kernel`` is any object with a ``matrix(nodes)`` method returning
    K(x_i, x_j) on the grid nodes, such as the handles in
    :mod:`meijergap.kernel`.  The gap probability itself is
    ``math.exp(log_gap_determinant(...))``.  Raises SingularityError if the
    discretized determinant is zero, non-finite or negative (the
    log-determinant of a gap probability must be real).
    """
    if abs(float(s) - grid.s) > 1e-12 * max(1.0, grid.s):
        raise DomainError("grid was built for a different s")
    sqw = np.sqrt(grid.weights)
    mat = np.eye(grid.m) - sqw[:, None] * kernel.matrix(grid.nodes) * sqw[None, :]
    sign, logdet = np.linalg.slogdet(mat)
    if sign == 0.0 or not math.isfinite(logdet):
        raise SingularityError("discretized operator is numerically singular; s is beyond the envelope")
    if sign < 0.0:
        raise SingularityError("negative discretized determinant; refine the grid")
    return float(logdet)
