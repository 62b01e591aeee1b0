"""Hard-edge Meijer-G kernel: gamma-ratio symbol, contour quadrature,
double-contour evaluation, residue-series oracle, and the Bessel kernel.

The kernel of the determinantal point process is

    K(x, y) = (2 pi i)^-2  int_gamma du  int_gammatilde dv
              F(u)/F(v) * x^-u y^(v-1) / (v - u),

with F(z) = Gamma(z) prod_k Gamma(1+mu_k-z) / prod_j Gamma(1+nu_j-z).
Both contours run upward between the two pole families, gamma bending into
the left half-plane past the poles of Gamma(z) and gammatilde into the
right half-plane short of the poles at 1+nu_min, 2+nu_min, ...
Discretizing both contours once turns every kernel evaluation into a
bilinear form in precomputed separable coefficients, which is what makes
the Fredholm matrix fill cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError
from .fredholm import _legendre_rule, gauss_legendre_grid
from .specfun import bessel_j, log_gamma

_TWO_PI_I_SQ = (2j * math.pi) ** 2

# Contour discretization: Gauss-Legendre points per panel, panel length
# along each ray, and the node budget per contour before the build gives up.
_PANEL_POINTS = 20
_PANEL_LENGTH = 1.5
_NODE_CAP = 4096

# Bound on the residue-series ring-resolution estimate: it reads at most
# 1.7e-6 on the verify and benchmark families over x, y in [0.05, 2], and
# at least 2.7e-2 at (0.5, 0.7) for r = 1, nu <= -0.6, where the series is
# off the Bessel reduction by 5e-6 or more.
_SERIES_RING_TOL = 1e-5


@dataclass(frozen=True)
class ProcessParams:
    """Model parameters (r, q, nu_1..nu_r, mu_1..mu_q) of the point process.

    Requires r > q >= 0 and every nu_j, mu_k > -1.
    """

    r: int
    q: int
    nu: tuple
    mu: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        if int(self.r) != self.r or int(self.q) != self.q:
            raise DomainError("r and q must be integers")
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "q", int(self.q))
        if not self.r > self.q >= 0:
            raise DomainError("requires r > q >= 0")
        if len(self.nu) != self.r:
            raise DomainError(f"nu must have length r = {self.r}")
        if len(self.mu) != self.q:
            raise DomainError(f"mu must have length q = {self.q}")
        if any(v <= -1.0 for v in self.nu) or any(m <= -1.0 for m in self.mu):
            raise DomainError("requires every nu_j > -1 and mu_k > -1")

    @property
    def nu_min(self) -> float:
        return min(self.nu + self.mu)


def log_big_f(z, params: ProcessParams):
    """ln F(z) = ln Gamma(z) + sum_k ln Gamma(1+mu_k-z) - sum_j ln Gamma(1+nu_j-z),
    each term the principal branch.

    All 1 + q + r log-gammas come from one :func:`log_gamma` call.  The sum
    is analytic on C minus ((-inf, 0] union [1+nu_min, inf)); off that set
    it is still a valid pointwise logarithm of F.  Raises PoleError
    at poles of the numerator gammas (and at zeros of F, where the
    denominator gammas blow up).
    """
    z = np.asarray(z, dtype=complex)
    return _log_gamma_ratio([z] + [1.0 + m - z for m in params.mu], [1.0 + v - z for v in params.nu])


def _log_gamma_ratio(num, den):
    """sum ln Gamma(a) over the arrays a in ``num`` minus the same sum over
    ``den``, added in list order, from one :func:`log_gamma` call on the
    stacked arguments."""
    lg = log_gamma(np.stack(num + den))
    out = lg[0]
    for row in lg[1 : len(num)]:
        out = out + row
    for row in lg[len(num) :]:
        out = out - row
    return out


@dataclass(frozen=True)
class ContourQuadrature:
    """Discretized contours and precomputed separable kernel coefficients.

    With w_i, wt_j the quadrature weights of the nodes u_i on gamma and v_j
    on gammatilde, each carrying the complex direction factor dz,
    ``separable_coeffs[i, j]`` equals
    w_i wt_j F(u_i) / (F(v_j) (v_j - u_i) (2 pi i)^2), making

        K(x, y) = Re sum_ij separable_coeffs[i, j] x^-u_i y^(v_j - 1).
    """

    gamma_nodes: np.ndarray
    gammatilde_nodes: np.ndarray
    crossing_points: tuple
    x_range: tuple
    truncation_bound: float
    separable_coeffs: np.ndarray = field(repr=False)


def _panel(z0: complex, z1: complex):
    """Gauss-Legendre nodes/weights on the straight segment z0 -> z1."""
    x, w = _legendre_rule(_PANEL_POINTS)
    return (z0 + z1) / 2 + (z1 - z0) / 2 * x, (z1 - z0) / 2 * w


def _upper_half(x_cross, angle, params, x_range, tol, invert):
    """Upper half of one contour, oriented upward: the panel x_cross ->
    x_cross + i, then the ray at ``angle`` from x_cross + i.

    The ray is cut into panels of length _PANEL_LENGTH and ends at the first
    tip k >= 2 where the integrand magnitude bound over x_range drops below
    tol.  The bound is evaluated on doubling blocks of candidate tips, never
    past the last tip the node budget of the whole contour allows."""
    ln_tol = math.log(tol)
    ln_lo, ln_hi = math.log(x_range[0]), math.log(x_range[1])
    start, direction = x_cross + 1j, np.exp(1j * angle)
    # the budget admits panels 1..k_max on the ray and as many on its mirror
    k_max = _NODE_CAP // (2 * _PANEL_POINTS) - 1
    k_lo, block = 2, 8
    while k_lo <= k_max:
        ks = np.arange(k_lo, min(k_lo + block, k_max + 1))
        tips = start + direction * (_PANEL_LENGTH * ks)
        ln_f = log_big_f(tips, params).real
        re = tips.real
        if invert:
            ln_bound = -ln_f + np.maximum((re - 1.0) * ln_lo, (re - 1.0) * ln_hi)
        else:
            ln_bound = ln_f + np.maximum(-re * ln_lo, -re * ln_hi)
        below = np.flatnonzero(ln_bound < ln_tol)
        if below.size:
            n_panels = int(ks[below[0]])
            break
        k_lo += block
        block *= 2
    else:
        raise ConvergenceError(f"contour truncation bound {tol} not reached within {_NODE_CAP} nodes")
    ends = np.concatenate(([x_cross], start + direction * (_PANEL_LENGTH * np.arange(n_panels + 1))))
    nodes, weights = zip(*(_panel(z0, z1) for z0, z1 in zip(ends[:-1], ends[1:])))
    return np.concatenate(nodes), np.concatenate(weights)


def _whole(upper, mirror):
    """Values on a whole contour from those on its upper half and their
    mirror image, in upward order: the segment panel's mirror reversed, the
    upper half, then the ray's mirror (traversed from infinity inward)."""
    return np.concatenate((mirror[_PANEL_POINTS - 1 :: -1], upper, mirror[_PANEL_POINTS:]))


def build_contours(params: ProcessParams, x_range: tuple, tol: float) -> ContourQuadrature:
    """Discretize the two kernel contours for arguments inside ``x_range``.

    gamma crosses the real axis at (1+nu_min)/3 with rays into the left
    half-plane at angles +-2 pi/3; gammatilde crosses at 2(1+nu_min)/3 with
    rays at +-pi/3 into the right half-plane.  The integrand factors
    |F(u) x^-u| and |y^(v-1) / F(v)| decay super-exponentially along these
    rays, so fixed-length composite Gauss-Legendre panels are extended until
    their magnitude bound over ``x_range`` falls below ``tol``.

    The parameters are real, so F(conj z) = conj F(z) and both contours are
    symmetric about the real axis: each is built, and ln F evaluated, on its
    upper half only.  The lower half maps nodes by conj, and weights and
    F-factors (which carry the upward direction dz) by -conj.
    """
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if not (0.0 < x_lo < x_hi) or not math.isfinite(x_hi):
        raise DomainError("x_range must satisfy 0 < x_lo < x_hi < inf")
    if not tol > 0.0:
        raise DomainError("tol must be positive")

    span = 1.0 + params.nu_min
    x_gamma, x_gammatilde = span / 3.0, 2.0 * span / 3.0
    u, wu = _upper_half(x_gamma, 2 * math.pi / 3, params, (x_lo, x_hi), tol, False)
    v, wv = _upper_half(x_gammatilde, math.pi / 3, params, (x_lo, x_hi), tol, True)

    # F(u)/F(v) splits into one exp per node rather than one per pair;
    # Re ln F at the nodes stays far inside exp's range (|Re ln F| < 140 on
    # the benchmark catalogues), and the check below catches any overflow
    gu = wu * np.exp(log_big_f(u, params)) / _TWO_PI_I_SQ
    gv = wv * np.exp(-log_big_f(v, params))
    u, gu = _whole(u, np.conj(u)), _whole(gu, -np.conj(gu))
    v, gv = _whole(v, np.conj(v)), _whole(gv, -np.conj(gv))
    coeffs = np.outer(gu, gv) / (v[None, :] - u[:, None])
    if not np.all(np.isfinite(coeffs)):
        raise AccuracyError("non-finite separable coefficients; contours too aggressive for these parameters")

    return ContourQuadrature(
        gamma_nodes=u,
        gammatilde_nodes=v,
        crossing_points=(x_gamma, x_gammatilde),
        x_range=(x_lo, x_hi),
        truncation_bound=float(tol),
        separable_coeffs=coeffs,
    )


def _check_range(x, cq: ContourQuadrature):
    x_lo, x_hi = cq.x_range
    if np.any(x < 0.999 * x_lo) or np.any(x > 1.001 * x_hi):
        raise DomainError(f"argument outside the x_range {cq.x_range} the contours were built for")


def kernel_matrix(xs, ys, cq: ContourQuadrature) -> np.ndarray:
    """K(x_i, y_j) on the grid xs x ys via the separable bilinear form."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    _check_range(xs, cq)
    _check_range(ys, cq)
    px = np.exp(-np.outer(np.log(xs), cq.gamma_nodes))
    py = np.exp(np.outer(np.log(ys), cq.gammatilde_nodes - 1.0))
    vals = px @ cq.separable_coeffs @ py.T
    # the contours and coefficients are conjugate-symmetric, so the imaginary
    # part is the rounding error of the sum, not a truncation estimate; it
    # may scale with the value where the kernel exceeds 1 (x -> 0 with
    # nu_min < 0) and is an absolute check everywhere else
    threshold = 100.0 * cq.truncation_bound * np.maximum(1.0, np.abs(vals.real))
    bad = np.abs(vals.imag) > threshold
    if np.any(bad):
        resid = float(np.abs(vals.imag).max())
        raise AccuracyError(
            f"imaginary residual {resid:.3e} exceeds 100*tol*max(1, |K|): cancellation or asymmetric coefficients"
        )
    return vals.real


def kernel_eval(x: float, y: float, cq: ContourQuadrature) -> float:
    """K(x, y) from the precomputed double-contour discretization.

    The imaginary part of the bilinear sum is rounding error, not a
    truncation estimate; AccuracyError is raised when it exceeds
    100*tol*max(1, |K|): cancellation, or coefficients that are not
    conjugate-symmetric.
    """
    return float(kernel_matrix([x], [y], cq)[0, 0])


class MeijerKernel:
    """Kernel handle: the contours for ``params`` over ``x_range`` and the
    Fredholm matrix fill on them."""

    def __init__(self, params: ProcessParams, x_range: tuple, tol: float = 1e-12):
        self.cq = build_contours(params, x_range, tol)

    def matrix(self, xs) -> np.ndarray:
        return kernel_matrix(xs, xs, self.cq)


# ---------------------------------------------------------------------------
# Residue-series oracle
# ---------------------------------------------------------------------------

def _cluster_poles(bases, n_terms: int):
    """Pole positions {b + k : b in bases, 0 <= k < n_terms} grouped into
    coincidence clusters, plus a safe circle radius for residue extraction."""
    pts = np.sort(np.concatenate([np.asarray(bases, dtype=float) + k for k in range(n_terms)]))
    locs = [pts[0]]
    for p in pts[1:]:
        if abs(p - locs[-1]) >= 1e-9:
            locs.append(p)
    locs = np.asarray(locs)
    gaps = np.diff(locs)
    radius = 0.25 if gaps.size == 0 else min(0.25, 0.35 * float(gaps.min()))
    if radius < 1e-6:
        raise ConvergenceError("pole families nearly coincide; residue extraction is ill-conditioned")
    return locs, radius


def _sum_residues(locs, radius, ln_num, z, circle_points: int = 40):
    """-(sum of residues) of exp(ln_num(t)) * z^t over the listed pole
    clusters, each extracted by trapezoidal integration on a small circle.
    ``z`` may be a vector; returns one value per z, and per z the gap
    between that value and the same sum over every other ring point.  The
    circle rule is spectrally accurate and handles higher-order
    (logarithmic) poles with no special casing, but only while z^t varies
    slowly around the ring; the gap grows where |ln z| is too large for the
    ring to resolve.  The leading minus sign matches the orientation of the
    defining loop contour.
    """
    theta = 2 * math.pi * np.arange(circle_points) / circle_points
    ring = radius * np.exp(1j * theta)
    t = (locs[:, None] + ring[None, :]).ravel()
    ln_z = np.log(np.asarray(z, dtype=float))
    vals = np.exp(ln_num(t)[:, None] + np.outer(t, ln_z))  # (n_locs*M, nz)
    vals *= np.tile(ring, locs.size)[:, None]
    rings = vals.reshape(locs.size, circle_points, -1)
    per_cluster = rings.mean(axis=1)
    totals = -per_cluster.sum(axis=0)
    gap = np.abs(totals + rings[:, ::2].mean(axis=1).sum(axis=0))
    tail = np.abs(per_cluster[-1])
    scale = np.abs(totals) + 1e-16 * np.abs(per_cluster).max(axis=0)
    if np.any(tail > 1e-14 * scale):
        raise ConvergenceError("residue series not converged: last term exceeds 1e-14 of the partial sum")
    return totals, gap


def _g_first(z, params: ProcessParams, n_terms: int):
    """Series value of the first kernel factor: pole family at 0, 1, 2, ...,
    integrand Gamma(-t) prod_k Gamma(1+mu_k+t) / prod_j Gamma(1+nu_j+t) z^t."""

    def ln_num(t):
        return _log_gamma_ratio([-t] + [1.0 + m + t for m in params.mu], [1.0 + v + t for v in params.nu])

    locs, radius = _cluster_poles([0.0], n_terms)
    return _sum_residues(locs, radius, ln_num, z)


def _g_second(z, params: ProcessParams, n_terms: int):
    """Series value of the second kernel factor: pole families at
    nu_j, nu_j + 1, ..., integrand
    prod_j Gamma(nu_j - t) / (Gamma(1+t) prod_k Gamma(mu_k - t)) z^t."""

    def ln_num(t):
        return _log_gamma_ratio([v - t for v in params.nu], [1.0 + t] + [m - t for m in params.mu])

    locs, radius = _cluster_poles(params.nu, n_terms)
    return _sum_residues(locs, radius, ln_num, z)


def kernel_eval_series(
    x: float, y: float, params: ProcessParams, n_t: int = 80, n_terms: int = 48
) -> float:
    """Independent oracle for :func:`kernel_eval`.

    Evaluates K(x, y) = int_0^1 G_1(t x) G_2(t y) dt where each factor is the
    single-contour series of a Meijer G-function, summed over ``n_terms``
    residue clusters per pole family.  The t-integrand behaves like
    t^nu_min near 0, so the integral is computed by ``n_t``-point
    Gauss-Legendre quadrature after the regularizing substitution
    t = tau^kappa with kappa = max(4, ceil(4 / (1 + nu_min))).

    The ring-resolution gaps of the two factors, weighted by the quadrature
    weights and the other factor, bound the error the residue rings add to
    the integral; above 1e-5 the series is not resolved (from nu_min of
    about -0.55 down, where t x falls far below 1e-40 near t = 0) and
    ConvergenceError is raised.
    """
    x, y = float(x), float(y)
    if x <= 0.0 or y <= 0.0:
        raise DomainError("kernel arguments must be positive")
    kappa = max(4, math.ceil(4.0 / (1.0 + params.nu_min)))
    grid = gauss_legendre_grid(1.0, n_t, kappa)
    t, dt = grid.nodes, grid.weights
    with np.errstate(over="ignore", invalid="ignore"):
        g1, gap1 = _g_first(t * x, params, n_terms)
        g2, gap2 = _g_second(t * y, params, n_terms)
        ring_err = float(np.sum(dt * (gap1 * np.abs(g2) + np.abs(g1) * gap2)))
    if not ring_err <= _SERIES_RING_TOL:  # unresolved rings overflow: inf and NaN included
        raise ConvergenceError(
            f"residue rings unresolved: error estimate {ring_err:.1e} exceeds {_SERIES_RING_TOL:.0e}"
        )
    return float(np.sum(dt * (g1 * g2).real))


# ---------------------------------------------------------------------------
# Bessel kernel (r = 1, q = 0 hard-edge limit)
# ---------------------------------------------------------------------------

def _bessel_matrix(xs, ys, nu: float) -> np.ndarray:
    """Bessel hard-edge kernel K(x_i, y_j) on the grid xs x ys,

        (J_nu(sqrt x) sqrt y J'_nu(sqrt y) - sqrt x J'_nu(sqrt x) J_nu(sqrt y)) / (2(x-y)).

    J_nu and t J'_nu(t) = nu J_nu(t) - t J_{nu+1}(t) are evaluated once per
    distinct argument.  Where |x - y| < 1e-6 the quotient is replaced by its
    analytic limit at the midpoint c,
    ((c - nu^2) J_nu(sqrt c)^2 + (sqrt c J'_nu(sqrt c))^2) / (4c),
    which agrees with the off-diagonal formula to O((x-y)^2).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(xs < 0.0) or np.any(ys < 0.0):
        raise DomainError("bessel_kernel requires x, y >= 0")
    diff = xs[:, None] - ys[None, :]
    near = np.abs(diff) < 1e-6
    mid = 0.5 * (xs[:, None] + ys[None, :])[near]
    args, where = np.unique(np.concatenate((xs, ys, mid)), return_inverse=True)
    t = np.sqrt(args)
    j = bessel_j(nu, t)
    tjp = nu * j - t * bessel_j(nu + 1.0, t)
    jx, jy, jm = np.split(j[where], [xs.size, xs.size + ys.size])
    tx, ty, tm = np.split(tjp[where], [xs.size, xs.size + ys.size])
    out = (jx[:, None] * ty[None, :] - tx[:, None] * jy[None, :]) / (2.0 * np.where(near, 1.0, diff))
    # at c = 0 (nu >= 0; J_nu(0) diverges for nu < 0) the limit is 1/4 for nu = 0, else 0
    origin = mid == 0.0
    c = np.where(origin, 1.0, mid)
    out[near] = np.where(origin, 0.25 if nu == 0.0 else 0.0, ((c - nu * nu) * jm * jm + tm * tm) / (4.0 * c))
    return out


def bessel_kernel(x: float, y: float, nu: float) -> float:
    """Bessel hard-edge kernel
    (J_nu(sqrt x) sqrt y J'_nu(sqrt y) - sqrt x J'_nu(sqrt x) J_nu(sqrt y)) / (2(x-y)),
    with its midpoint limit where |x - y| < 1e-6: the 1x1 view of the
    matrix fill behind :meth:`BesselKernel.matrix`."""
    return float(_bessel_matrix([x], [y], nu)[0, 0])


class BesselKernel:
    """Kernel handle for the Bessel hard-edge kernel: its Fredholm matrix fill."""

    def __init__(self, nu: float):
        if nu <= -1.0:
            raise DomainError("requires nu > -1")
        self.nu = float(nu)

    def matrix(self, xs) -> np.ndarray:
        return _bessel_matrix(xs, xs, self.nu)
