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

# Residue-series oracle: Gauss-Legendre points of the t-integral, residue
# clusters per pole family, and trapezoidal points on each residue ring.
_SERIES_T_POINTS = 80
_SERIES_TERMS = 48
_RING_POINTS = 40

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
    lg = log_gamma(np.stack([z] + [1.0 + m - z for m in params.mu] + [1.0 + v - z for v in params.nu]))
    out = lg[0]
    for row in lg[1 : 1 + params.q]:
        out = out + row
    for row in lg[1 + params.q :]:
        out = out - row
    return out


@dataclass(frozen=True)
class ContourQuadrature:
    """Discretized contours and precomputed separable kernel coefficients.

    Each node array holds a contour's upper half followed by that half's
    conjugate, so with h = size/2 node i + h is conj(node i).  With w_i,
    wt_j the quadrature weights of the nodes u_i on gamma and v_j on
    gammatilde, each carrying the complex direction factor dz, the
    coefficients c_ij = w_i wt_j F(u_i) / (F(v_j) (v_j - u_i) (2 pi i)^2) give

        K(x, y) = Re sum_ij c_ij x^-u_i y^(v_j - 1).

    ``gamma_panels`` and ``gammatilde_panels`` factor each upper half by
    panel: a pair (mids, offsets) with the panel midpoints, shape (n,), and
    the two offset rows, shape (2, points), so that the upper-half nodes are
    mids[0] + offsets[0] on the crossing panel followed by
    mids[p] + offsets[1] on each ray panel p >= 1.

    With h = Nv/2, A = c_(i, j) and B = c_(i, j + h) for the upper rows
    i < Nu/2 of gamma and j < h (the lower rows are their conjugate mirror,
    c_(i + Nu/2, j) = conj(c_(i, (j + h) mod Nv))), S = A + B and D = A - B,
    ``separable_coeffs`` stores the real block [[Re S, Im D], [-Im S, Re D]],
    shape (Nu, Nv), with its rows and columns interleaved: entry
    (2i + r, 2j + k) is block entry (r Nu/2 + i, k h + j).
    """

    gamma_nodes: np.ndarray
    gammatilde_nodes: np.ndarray
    crossing_points: tuple
    x_range: tuple
    truncation_bound: float
    separable_coeffs: np.ndarray = field(repr=False)
    gamma_panels: tuple = field(repr=False)
    gammatilde_panels: tuple = field(repr=False)


def _upper_half(x_cross, angle, params, x_range, tol, invert):
    """Upper half of one contour, oriented upward: the panel x_cross ->
    x_cross + i, then the ray at ``angle`` from x_cross + i.

    The ray is cut into panels of length _PANEL_LENGTH and ends at the first
    tip k >= 2 where the integrand magnitude bound over x_range drops below
    tol.  The bound is evaluated on doubling blocks of candidate tips, never
    past the last tip the node budget of the whole contour allows.  Returns
    the nodes, the weights and the panel factorization (mids, offsets) of
    :class:`ContourQuadrature`."""
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
    mids = (ends[:-1] + ends[1:]) / 2
    # Gauss-Legendre on each straight panel: the crossing panel has half
    # length i/2 and every ray panel direction * _PANEL_LENGTH / 2
    x, w = _legendre_rule(_PANEL_POINTS)
    halves = np.array([0.5j, direction * (_PANEL_LENGTH / 2)])
    offsets = np.outer(halves, x)
    nodes = np.concatenate((mids[0] + offsets[0], (mids[1:, None] + offsets[1]).ravel()))
    weights = np.concatenate((halves[0] * w, np.tile(halves[1] * w, n_panels)))
    return nodes, weights, (mids, offsets)


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
    F-factors (which carry the upward direction dz) by -conj; it is stored
    after the upper half.  Every upper-half node is a panel midpoint plus
    one of two offset rows (the crossing panel's or the rays'), and both are
    kept with the nodes so that the fill can factor its powers per panel.
    The coefficients are stored only for the upper rows of gamma, as the
    real block of their conjugate-symmetric sums and differences (see
    :class:`ContourQuadrature`), in the bytes of the complex rows.
    """
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if not (0.0 < x_lo < x_hi) or not math.isfinite(x_hi):
        raise DomainError("x_range must satisfy 0 < x_lo < x_hi < inf")
    if not tol > 0.0:
        raise DomainError("tol must be positive")

    span = 1.0 + params.nu_min
    x_gamma, x_gammatilde = span / 3.0, 2.0 * span / 3.0
    u, wu, u_panels = _upper_half(x_gamma, 2 * math.pi / 3, params, (x_lo, x_hi), tol, False)
    v, wv, v_panels = _upper_half(x_gammatilde, math.pi / 3, params, (x_lo, x_hi), tol, True)

    # F(u)/F(v) splits into one exp per node rather than one per pair;
    # Re ln F at the nodes stays far inside exp's range (|Re ln F| < 140 on
    # the benchmark catalogues), and the check below catches any overflow
    gu = wu * np.exp(log_big_f(u, params)) / _TWO_PI_I_SQ
    gv = wv * np.exp(-log_big_f(v, params))
    # as complex numbers, row pair (2i, 2i + 1) of the stored block holds
    # A + conj B and i (A - conj B), with A = (g_u g_v) / (v - u) and
    # conj B = (conj g_u)(-g_v) / (v - conj u), the conjugate of B's
    # (g_u)(-conj g_v) / (conj v - u) bit for bit.  The block is allocated
    # after its two (Nu/2, h) factors, so that the build's peak memory and
    # heap layout stay those of one complex (Nu/2, Nv) outer product
    a = np.outer(gu, gv) / (v[None, :] - u[:, None])
    conj_b = np.outer(np.conj(gu), -gv) / (v[None, :] - np.conj(u)[:, None])
    coeffs = np.empty((u.size, 2, v.size), dtype=complex)
    np.add(a, conj_b, out=coeffs[:, 0])
    np.subtract(a, conj_b, out=coeffs[:, 1])
    coeffs[:, 1] *= 1j
    del a, conj_b
    coeffs = coeffs.view(float).reshape(2 * u.size, 2 * v.size)
    if not np.all(np.isfinite(coeffs)):
        raise AccuracyError("non-finite separable coefficients; contours too aggressive for these parameters")

    return ContourQuadrature(
        gamma_nodes=np.concatenate((u, np.conj(u))),
        gammatilde_nodes=np.concatenate((v, np.conj(v))),
        crossing_points=(x_gamma, x_gammatilde),
        x_range=(x_lo, x_hi),
        truncation_bound=float(tol),
        separable_coeffs=coeffs,
        gamma_panels=u_panels,
        gammatilde_panels=v_panels,
    )


def _log_args(x, cq: ContourQuadrature) -> np.ndarray:
    """ln x for kernel arguments, which must lie in the contours' x_range."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x_lo, x_hi = cq.x_range
    if np.any(x < 0.999 * x_lo) or np.any(x > 1.001 * x_hi):
        raise DomainError(f"argument outside the x_range {cq.x_range} the contours were built for")
    return np.log(x)


def _half_powers(scale, panels) -> np.ndarray:
    """exp(scale_i z_j) over the upper-half nodes z_j = mid + offset of one
    contour, factored per panel as exp(scale_i mid) exp(scale_i offset): one
    exp per (argument, panel) and per (argument, offset), then one product
    per node."""
    mids, offsets = panels
    e_mid = np.exp(np.outer(scale, mids))
    e_off = np.exp(scale[:, None, None] * offsets)
    out = np.empty((scale.size, mids.size, offsets.shape[1]), dtype=complex)
    np.multiply(e_mid[:, :1, None], e_off[:, None, 0], out=out[:, :1])
    np.multiply(e_mid[:, 1:, None], e_off[:, None, 1], out=out[:, 1:])
    return out.reshape(scale.size, -1)


def kernel_matrix(xs, ys, cq: ContourQuadrature) -> np.ndarray:
    """K(x_i, y_j) on the grid xs x ys via the separable bilinear form.

    The sum is folded over the contours' conjugate symmetry.  Only the upper
    halves of x^-u and y^(v-1) are exponentiated, each factored over the
    panels of :class:`ContourQuadrature`, and the lower halves are their
    conjugates.  The first product over the upper rows of gamma is
    E1 = P_h A + conj(P_h B), a real bilinear form: [Re E1 | Im E1] is
    [Re P_h | Im P_h] times the stored real block, one real matrix product
    on the interleaved (real, imaginary) view of P_h.  P C = [E1, conj E1]
    then enters the complex second product with y^(v-1).
    """
    ln_x, ln_y = _log_args(xs, cq), _log_args(ys, cq)
    hv = cq.gammatilde_nodes.size // 2
    # E1 is written straight into the left half of d, viewed as
    # (real, imaginary) pairs; x^-u is freed before y^(v-1) is formed
    d = np.empty((ln_x.size, 2 * hv), dtype=complex)
    np.matmul(_half_powers(-ln_x, cq.gamma_panels).view(float), cq.separable_coeffs, out=d[:, :hv].view(float))
    np.conj(d[:, :hv], out=d[:, hv:])
    mids, offsets = cq.gammatilde_panels
    qy = _half_powers(ln_y, (mids - 1.0, offsets))
    vals = d @ np.concatenate((qy, np.conj(qy)), axis=1).T
    # P C and y^(v-1) are exact conjugate mirrors, so the imaginary part is
    # the rounding error of the second product, not a truncation estimate;
    # it may scale with the value where the kernel exceeds 1 (x -> 0 with
    # nu_min < 0) and is an absolute check everywhere else
    threshold = 100.0 * cq.truncation_bound * np.maximum(1.0, np.abs(vals.real))
    bad = np.abs(vals.imag) > threshold
    if np.any(bad):
        resid = float(np.abs(vals.imag).max())
        raise AccuracyError(
            f"imaginary residual {resid:.3e} exceeds 100*tol*max(1, |K|): cancellation in the bilinear sum"
        )
    return vals.real


def kernel_eval(x: float, y: float, cq: ContourQuadrature) -> float:
    """K(x, y) from the precomputed double-contour discretization.

    The imaginary part of the bilinear sum is the rounding error of its
    second product (the first is folded to an exact conjugate mirror), not
    a truncation estimate; AccuracyError is raised when it exceeds
    100*tol*max(1, |K|), i.e. on cancellation in the sum.
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

def _cluster_poles(bases):
    """Pole positions {b + k : b in bases, 0 <= k < _SERIES_TERMS} grouped into
    coincidence clusters, plus a safe circle radius for residue extraction."""
    pts = np.sort(np.concatenate([np.asarray(bases, dtype=float) + k for k in range(_SERIES_TERMS)]))
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


def _sum_residues(locs, radius, ln_num, z):
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
    theta = 2 * math.pi * np.arange(_RING_POINTS) / _RING_POINTS
    ring = radius * np.exp(1j * theta)
    t = (locs[:, None] + ring[None, :]).ravel()
    ln_z = np.log(np.asarray(z, dtype=float))
    vals = np.exp(ln_num(t)[:, None] + np.outer(t, ln_z))  # (n_locs*M, nz)
    vals *= np.tile(ring, locs.size)[:, None]
    rings = vals.reshape(locs.size, _RING_POINTS, -1)
    per_cluster = rings.mean(axis=1)
    totals = -per_cluster.sum(axis=0)
    gap = np.abs(totals + rings[:, ::2].mean(axis=1).sum(axis=0))
    tail = np.abs(per_cluster[-1])
    scale = np.abs(totals) + 1e-16 * np.abs(per_cluster).max(axis=0)
    if np.any(tail > 1e-14 * scale):
        raise ConvergenceError("residue series not converged: last term exceeds 1e-14 of the partial sum")
    return totals, gap


def _g_first(z, params: ProcessParams):
    """Series value of the first kernel factor: pole family at 0, 1, 2, ...,
    integrand Gamma(-t) prod_k Gamma(1+mu_k+t) / prod_j Gamma(1+nu_j+t) z^t,
    which is F(-t) z^t."""
    locs, radius = _cluster_poles([0.0])
    return _sum_residues(locs, radius, lambda t: log_big_f(-t, params), z)


def _g_second(z, params: ProcessParams):
    """Series value of the second kernel factor: pole families at
    nu_j, nu_j + 1, ..., integrand
    prod_j Gamma(nu_j - t) / (Gamma(1+t) prod_k Gamma(mu_k - t)) z^t,
    which is z^t / F(1+t)."""
    locs, radius = _cluster_poles(params.nu)
    return _sum_residues(locs, radius, lambda t: -log_big_f(1.0 + t, params), z)


def kernel_eval_series(x: float, y: float, params: ProcessParams) -> float:
    """Independent oracle for :func:`kernel_eval`.

    Evaluates K(x, y) = int_0^1 G_1(t x) G_2(t y) dt where each factor is the
    single-contour series of a Meijer G-function, summed over _SERIES_TERMS
    residue clusters per pole family, with both integrands taken from
    :func:`log_big_f`.  The t-integrand behaves like t^nu_min near 0, so the
    integral is computed by _SERIES_T_POINTS-point Gauss-Legendre quadrature
    after the regularizing substitution t = tau^kappa with
    kappa = max(4, ceil(4 / (1 + nu_min))).

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
    grid = gauss_legendre_grid(1.0, _SERIES_T_POINTS, kappa)
    t, dt = grid.nodes, grid.weights
    with np.errstate(over="ignore", invalid="ignore"):
        g1, gap1 = _g_first(t * x, params)
        g2, gap2 = _g_second(t * y, params)
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

        (sqrt x J_{nu+1}(sqrt x) J_nu(sqrt y) - sqrt y J_nu(sqrt x) J_{nu+1}(sqrt y)) / (2(x-y)),

    the usual J_nu(sqrt x) sqrt y J'_nu(sqrt y) - sqrt x J'_nu(sqrt x) J_nu(sqrt y)
    numerator with t J'_nu(t) = nu J_nu(t) - t J_{nu+1}(t) and its two
    nu J_nu(sqrt x) J_nu(sqrt y) terms cancelled analytically, so that they
    add no rounding where x and y are close.  J_nu and t J_{nu+1}(t) are
    evaluated once per distinct argument.  Where |x - y| <= 1e-6 max(x, y)
    the quotient is replaced by its analytic limit at the midpoint c,
    ((c - nu^2) J_nu(sqrt c)^2 + (sqrt c J'_nu(sqrt c))^2) / (4c),
    which agrees with the off-diagonal formula to O((x-y)^2).  The switch is
    relative because near 0 the kernel varies on the scale of x itself.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(xs < 0.0) or np.any(ys < 0.0):
        raise DomainError("bessel_kernel requires x, y >= 0")
    diff = xs[:, None] - ys[None, :]
    near = np.abs(diff) <= 1e-6 * np.maximum(xs[:, None], ys[None, :])
    mid = 0.5 * (xs[:, None] + ys[None, :])[near]
    args, where = np.unique(np.concatenate((xs, ys, mid)), return_inverse=True)
    t = np.sqrt(args)
    j = bessel_j(nu, t)
    tj1 = t * bessel_j(nu + 1.0, t)
    jx, jy, jm = np.split(j[where], [xs.size, xs.size + ys.size])
    tx, ty, tm = np.split(tj1[where], [xs.size, xs.size + ys.size])
    out = (tx[:, None] * jy[None, :] - jx[:, None] * ty[None, :]) / (2.0 * np.where(near, 1.0, diff))
    # at c = 0 (nu >= 0; J_nu(0) diverges for nu < 0) the limit is 1/4 for nu = 0, else 0
    origin = mid == 0.0
    c = np.where(origin, 1.0, mid)
    tjp = nu * jm - tm
    out[near] = np.where(origin, 0.25 if nu == 0.0 else 0.0, ((c - nu * nu) * jm * jm + tjp * tjp) / (4.0 * c))
    return out


def bessel_kernel(x: float, y: float, nu: float) -> float:
    """Bessel hard-edge kernel
    (sqrt x J_{nu+1}(sqrt x) J_nu(sqrt y) - sqrt y J_nu(sqrt x) J_{nu+1}(sqrt y)) / (2(x-y)),
    with its midpoint limit where |x - y| <= 1e-6 max(x, y): the 1x1 view of the
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
