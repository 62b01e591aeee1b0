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

    The nodes are numpy's ``leggauss`` nodes, within 7e-17 of mpmath's up to
    n = 400.  Its weights are not: they are 1.1e-12, 2.2e-11 and 5.7e-10
    relative off mpmath's at n = 80, 200 and 400.  Each weight is therefore
    recomputed as 2 / ((1 - x^2) P_n'(x)^2), with P_n-1(x) and P_n(x) from
    the three-term recurrence and P_n' = n (P_n-1 - x P_n) / (1 - x^2), and
    the rule is symmetrized; measured against mpmath at 40 digits the
    weights are 1.6e-15, 1.4e-14, 5.1e-14 and 1.9e-12 relative off at
    n = 13, 80, 200 and 400.  Every caller shares the returned arrays, so
    they are read-only.
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = n * (p_prev - x * p) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class FredholmGrid:
    """Quadrature rule on (0, s): m strictly increasing nodes and m positive
    weights summing to s, with m the size of ``nodes``."""

    s: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.weights.shape != self.nodes.shape:
            raise DomainError("grid nodes and weights must be m values each")
        if not (np.all(np.diff(self.nodes) > 0) and self.nodes[0] > 0 and self.nodes[-1] < self.s):
            raise DomainError("grid nodes must increase strictly inside (0, s)")
        if np.any(self.weights <= 0):
            raise DomainError("grid weights must be positive")
        if abs(float(np.sum(self.weights)) - self.s) > _WEIGHT_SUM_TOL * max(1.0, self.s):
            raise DomainError("grid weights must sum to s")

    @property
    def m(self) -> int:
        return self.nodes.size


def gauss_legendre_grid(s: float, m: int, kappa: int = 1) -> FredholmGrid:
    """m-point Gauss-Legendre rule mapped affinely from [-1, 1] to [0, s].

    ``kappa > 1`` applies x = s^(1-kappa) xi^kappa, which grades the rule
    toward 0, where the kernel behaves like x^nu_min (like ln x for
    coinciding integer parameters); :func:`kappa_for_nu_min` picks the
    kappa that restores quadrature accuracy for every nu_min < 1.
    """
    s = float(s)
    if not 0.0 < s < math.inf:  # NaN fails too
        raise DomainError("s must be positive and finite")
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
    return FredholmGrid(s=s, nodes=eta**kappa, weights=kappa * eta ** (kappa - 1) * w_eta)


def kappa_for_nu_min(nu_min: float) -> int:
    """Grading exponent ceil(2 / (1 + nu_min)), the smallest kappa with
    kappa (1 + nu_min) >= 2: every nu_min < 1 is graded."""
    return math.ceil(2.0 / (1.0 + nu_min))


def log_gap_determinant(s: float, grid: FredholmGrid, kernel) -> float:
    """ln det(1 - K|[0,s]) for the kernel handle on the given grid.

    ``kernel`` is any object with a ``matrix(nodes)`` method returning
    K(x_i, x_j) on the grid nodes as a new array, such as the handles in
    :mod:`meijergap.kernel`: the determinant overwrites that array with
    I - M in place, the bits of ``np.eye(m) - M``.  The gap probability
    itself is ``math.exp(log_gap_determinant(...))``.  Raises
    SingularityError if the discretized determinant is zero, non-finite or
    negative (the log-determinant of a gap probability must be real).
    """
    if not abs(float(s) - grid.s) <= 1e-12 * max(1.0, grid.s):  # NaN fails too
        raise DomainError("grid was built for a different s")
    sqw = np.sqrt(grid.weights)
    mat = kernel.matrix(grid.nodes)
    mat *= sqw[:, None]
    mat *= sqw[None, :]
    np.subtract(0.0, mat, out=mat)  # 0 - M, as the zeros of np.eye give it
    mat.flat[:: grid.m + 1] += 1.0
    sign, logdet = np.linalg.slogdet(mat)
    if sign == 0.0 or not math.isfinite(logdet):
        raise SingularityError("discretized operator is numerically singular; s is beyond the envelope")
    if sign < 0.0:
        raise SingularityError("negative discretized determinant; refine the grid")
    return float(logdet)
