"""Hard-edge Meijer-G kernel: gamma-ratio symbol, contour quadrature,
double-contour evaluation, residue-series oracle, and the Bessel kernel.

The kernel of the determinantal point process is

    K(x, y) = (2 pi i)^-2  int_gamma du  int_gammatilde dv
              F(u)/F(v) * x^-u y^(v-1) / (v - u),

with F(z) = Gamma(z) prod_k Gamma(1+mu_k-z) / prod_j Gamma(1+nu_j-z).
Both contours run upward between the two pole families: gamma is a
hyperbola crossing the real axis at c, left of the poles at 1+nu_min,
2+nu_min, ... and bending into the left half-plane past the poles of
Gamma(z); gammatilde is its mirror image, crossing at 1+nu_min-c and
bending into the right half-plane.  Each is discretized by the
trapezoidal rule in its hyperbola parameter, which converges geometrically
on such smooth contours (Weideman & Trefethen, Math. Comp. 76 (2007)).
On the contours Re(v - u) > 0, so 1/(v - u) = int_0^1 t^(v-u-1) dt and the
kernel is integrable: K(x, y) = int_0^1 G1(t x) G2(t y) dt with single-
contour sums G1, G2.  Discretizing both contours and the t-integral once
turns the Fredholm matrix fill into three real matrix products on
precomputed factors and one table of powers x^-u that both contours share.
Every complex exponential of the build and the fill is a
:func:`~meijergap.specfun.cexp` of its real and imaginary parts, which
runs on numpy's vectorized real ``tan`` and ``exp``; the residue-series
oracle keeps numpy's complex ``exp``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError
from .fredholm import gauss_legendre_grid
from .specfun import _at_poles, bessel_j, cexp, log_gamma

_TWO_PI_I_SQ = (2j * math.pi) ** 2

# Contour discretization: the largest trapezoidal step h in the hyperbola
# parameter theta, the ratio a / c of each hyperbola's width to its
# crossing, the distance from the crossing that the candidate nodes reach
# before the build gives up (enough for x_range = (1e-50, 4096) at
# tol = 1e-12 on r = 1 and NEG), and the default truncation tolerance of
# build_contours.  Over the benchmark catalogues' builds the kernel at
# h = 0.05 agrees with the rule at h/4 to 4.9e-14 of max(1, |K|); h = 0.075
# leaves NEG and RIGHT 3e-12 off, and h = 0.1 4.4e-9.  Along the contours F
# behaves like Gamma(z)^(r - q + 1) up to sine and power factors, so its
# decay steepens with r - q and the step shrinks with it:
# h = min(_STEP, 0.2 / (r - q + 1)), 0.05 up to r - q = 3.  With all
# nu_j = 0.5 and q = 0 the kernel is off the residue series by 1.6e-5 of
# max |K| at r = 8 with h = 0.05, and by 5.4e-11 with h = 0.2/9.
_STEP = 0.05
_WIDTH = 0.75
_REACH = 150.0
CONTOUR_TOL = 1e-12

# Factored fill: the numerator of the grading exponent
# kappa = ceil(_T_GRADING / (1 + nu_min)) of the t-integral
# 1/(v - u) = int_0^1 t^(v-u-1) dt, whose Gauss-Legendre points _t_points
# sets from kappa, rho = 1/(r - q + 1) and x_hi.  Measured on (1e-3, x_hi)
# over 40 geometric and 24 linear points: the fewest points, a multiple of
# 8, from which on the kernel stays within twice its rounding floor of a
# 400-point rule (320 for nu = -0.8), and then the rule's points.
#
#     process (kappa, rho)       x_hi = 1       16       256      1024
#     LEFT (4, 1/2)                 16 / 32  24 / 40  40 / 56   (*) / 80
#     RIGHT (4, 1/4)                16 / 32  16 / 32  16 / 40   24 / 40
#     NEG (18, 1/3)                 24 / 72  32 / 72  48 / 72   56 / 88
#     GIN2 (9, 1/3)                 24 / 40  24 / 40  40 / 56   48 / 64
#     r = 3, nu = 0, 1, 2 (9, 1/4)  16 / 40  24 / 40  40 / 48   48 / 56
#     r = 1, nu = -0.8 (46, 1/2)    48 / 72  64 / 88 128 / 152 192 / 208
#     r = 1, nu = -0.5 (18, 1/2)    32 / 72  48 / 72  88 / 104 128 / 136
#     r = 1, nu = 0 (9, 1/2)        24 / 40  32 / 48  64 / 80   96 / 104
#     r = 1, nu = 2 (3, 1/2)        16 / 32  24 / 40  40 / 56   56 / 72
#
# (*) the kernel's floor there is 3e-10 of max(1, |K|), set by
# cancellation in the contour sums; the fill's rounding guard refuses that
# fill, and those of r = 1 with nu >= 0 over (1e-3, 1024).  80 points are
# 3.5e-4 of max(1, |K|) off at nu = -0.8, x_hi = 256, and 4.2e-3 at
# nu = -0.5, x_hi = 1024.
_T_GRADING = 9.0


def _t_points(kappa: int, rho: float, x_hi: float) -> int:
    """Points of the graded t-rule of a build over a range up to ``x_hi``:

        n_t = 8 ceil(max(16 + 5 sqrt(kappa x_hi^rho), min(4 kappa, 72)) / 8).

    The t-integrand G1(t x) G2(t y) varies on the scale of (t x)^rho, and
    the grading t = tau^kappa packs that variation toward tau = 1: the points
    needed grow like sqrt(kappa x_hi^rho) (see the table above).  The floor
    min(4 kappa, 72) holds heavily graded rules (NEG's kappa = 18) at one
    size for every x_hi up to 256.  There the kernel's rounding floor, 2e-14
    of max(1, |K|) for NEG at y near 1e-6, moves with the rule's size, and
    a handle built for (1e-6, 256) fills the values of one built for
    (1e-6, 16) to 3e-16 on one rule, but only to 3e-14 on rules of 56 and
    64 points.  Every size is a multiple of 8, so the rules of all builds
    up to 256 points fit ``_legendre_rule``'s 32-entry cache.
    """
    return 8 * math.ceil(max(16.0 + 5.0 * math.sqrt(kappa * x_hi**rho), min(4.0 * kappa, 72.0)) / 8.0)


def _graded_t_rule(n: int, kappa: int, nu_min: float):
    """The n-point t-rule on (0, 1) graded as t = tau^kappa, for the builds
    and for the residue-series oracle.  Near nu_min = -1 kappa is so large
    that the first node underflows to 0; that is reported in terms of
    nu_min, not of the grid."""
    try:
        return gauss_legendre_grid(1.0, n, kappa)
    except DomainError:
        raise DomainError(f"nu_min = {nu_min} is too close to -1: the graded t-rule underflows") from None


# Rounding guard of the fill: the largest admitted ratio of an entry's
# rounding bound E to max(1, |K|).  E / max(1, |K|) peaks at 2.6e-11 over
# every fill of the benchmark catalogues (LEFT, sweep at s = 256), at 1.1e-12
# for r = 1 down to nu = -0.88 on det's grids, and at 1.5e-8 for r = 1,
# nu = 4 over (1e-6, 256), where K cancels: the limit keeps a margin of 6.
# The screen eps a_i b_j >= E_ij that clears a fill without forming E (see
# _kernel_matrix) must stay below half the limit: it peaks at 3.6e-11 over
# the catalogues and at 2.0e-8 for nu = 4 over (1e-6, 256).
_ROUNDING_LIMIT = 1e-7
_EPS = float(np.finfo(float).eps)

# Subnormal numbers slow every product they enter.  Stored factors below
# the smallest normal number are set to 0, and so is an entry x^-u of the
# fill's power table below e^_MIN_EXPONENT.  On the benchmark fills the
# stored factors stay below e^1 and the scale y^nu_min of y^(v-1) below
# e^21, so each term cut is below e^-578, far below rounding in any K.
_TINY = float(np.finfo(float).tiny)
_MIN_EXPONENT = -600.0


# Residue-series oracle: Gauss-Legendre points of the t-integral, residue
# clusters per pole chain (and per log_big_f call on the rings), and
# trapezoidal points on each residue ring (even: the ring sums fold each
# ring over its conjugate symmetry).  The oracle's t-rule stays at a fixed
# 80 points, apart from the contour build's _t_points, so that the
# kernel-oracle checks test that rule.
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

    Requires r > q >= 0 and every nu_j, mu_k finite and > -1.
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
        if not all(-1.0 < v < math.inf for v in self.nu + self.mu):  # NaN fails too
            raise DomainError("requires every nu_j and mu_k finite and > -1")

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
    """Discretized contours and the precomputed factors of the kernel fill.

    Each node array holds a contour's upper half followed by that half's
    conjugate, so with h = size/2 node i + h is conj(node i); node 0 is the
    crossing on the real axis and appears in both halves.  With w_i, wt_j
    the trapezoidal weights of the nodes u_i on gamma and v_j on gammatilde,
    each carrying the complex direction factor dz (node 0's halved), put
    g_u = w_u F(u) / (2 pi i)^2 and g_v = wt_v / F(v).  On the contours
    Re(v - u) >= span/3 > 0, so 1/(v - u) = int_0^1 t^(v-u-1) dt and

        K(x, y) = int_0^1 G1(t x) G2(t y) dt,
        G1(z) = sum_u g_u z^-u,  G2(z) = sum_v g_v z^(v-1).

    The lower halves carry -conj g, so each sum is 2i Im of its upper-half
    part.  With t_k, W_k the n_t-point t-rule (n_t from :func:`_t_points`,
    set by the grading and the argument range; see :func:`build_contours`),
    T_u = g_u t_k^-u and
    T_v = -4 W_k g_v t_k^(v-1) over the upper halves (shapes (Nu/2, n_t) and
    (Nv/2, n_t)) give K = Im(P_h T_u) Im(Q_h T_v)^T, where P_h = x^-u and
    Q_h = y^(v-1) = y^nu_min conj(y^-u) on the upper halves (node i of
    gammatilde is 1 + nu_min - conj u_i).  ``separable_coeffs`` stores T_u
    and then -conj T_v, ready for that conj, as real rows, shape
    (Nu + Nv, n_t): row 2i is Im and row 2i + 1 Re of upper-half row i, so
    that the interleaved (real, imaginary) view of z^-u times a contour's
    rows is Im(P_h T_u), or Im(Q_h T_v) / y^nu_min.  ``magnitude_norms``
    holds the 2-norm over the t-rule of the 1-norms |Re| + |Im| of those
    rows, shape ((Nu + Nv)/2,), for the screen that clears most fills
    without forming the rounding bound (see :func:`_kernel_matrix`).
    """

    gamma_nodes: np.ndarray
    gammatilde_nodes: np.ndarray
    x_range: tuple
    separable_coeffs: np.ndarray = field(repr=False)
    magnitude_norms: np.ndarray = field(repr=False)


def build_contours(params: ProcessParams, x_range: tuple, tol: float = CONTOUR_TOL) -> ContourQuadrature:
    """Discretize the two kernel contours for arguments inside ``x_range``.

    With span = 1 + nu_min, c = min(span/3, 1/|ln x_lo|) and a = _WIDTH c,
    the contours are the hyperbolas

        u(theta) = c + a (1 - cosh theta) + i sqrt(3) a sinh theta,
        v(theta) = (span - c) + a (cosh theta - 1) + i sqrt(3) a sinh theta,

    whose asymptotes leave at angles +-2 pi/3 (gamma) and +-pi/3
    (gammatilde).  gamma crosses the real axis at c, between the pole of
    Gamma(z) at 0 and gammatilde's crossing, and Re(v - u) >= span - 2c >=
    span/3.  Near x = 0 the power |x^-u| at the crossing is x^-c, at most e
    over x_range: so the terms of the contour sums are not far larger than
    their sum.  Scaling both hyperbolas by c keeps the poles at 0 and at
    1 + nu_min at a fixed distance in theta, so the trapezoidal rule at
    theta = k h, k = 0, 1, ..., converges at the same geometric rate for
    every c.  The step is h = min(_STEP, 0.2 / (r - q + 1)): F's decay
    along the contours steepens with r - q.

    The parameters are real, so F(conj z) = conj F(z) and both contours are
    symmetric about the real axis: each is built, and ln F evaluated, on its
    upper half theta >= 0 only, with the weight of theta = 0 halved.  The
    lower half maps nodes by conj, and weights and F-factors (which carry
    the upward direction dz) by -conj; it is stored after the upper half.

    One :func:`log_big_f` call over the candidate nodes of both contours,
    theta = 0 up to where they lie about _REACH from the crossing, gives the
    truncation bounds and the weights.  The integrand factors |F(u) x^-u|
    and |y^(v-1) / F(v)| decay super-exponentially along the contours.
    K is unchanged under F -> lambda F, and so is the cut: each factor is
    measured against the crossing of the other contour, whose factor it
    multiplies, as |F(u) / F(v_0) x^-u| on gamma and |F(u_0) / F(v) y^(v-1)|
    on gammatilde, with u_0, v_0 the crossings (node 0).  Each contour ends
    at its first node from which on that bound's largest value over
    ``x_range`` is below ``tol`` at every candidate (:func:`_first_tip`);
    if the last candidate is not below it, ConvergenceError is raised.
    Every fill on the handle uses all the nodes kept: along the hyperbolas
    the decay of F, not the argument range, sets the node count, so a fill
    over a narrower range would need nearly as many.  ``tol`` must lie in (0, 1): a bound of 1 or more
    truncates nothing reliably.

    The t-integral of the factored kernel (see :class:`ContourQuadrature`)
    is an n_t-point Gauss-Legendre rule graded as t = tau^kappa with
    kappa = ceil(_T_GRADING / span): the t-integrand behaves like
    t^(Re(v - u) - 1) near 0, and Re(v - u) >= span/3.  n_t is
    :func:`_t_points` of kappa, rho = 1/(r - q + 1) and x_hi: the
    t-integrand varies faster as x_hi grows.  Where kappa and n_t send the
    first t-node below the smallest double, DomainError is raised: over
    (0.1, 1) at nu_min = -0.9 (-0.89 builds), and over (1e-3, 256) at -0.88
    (-0.87 builds).  Each stored factor
    is one real exp of Re(ln F(u) - u ln t), or Re((v - 1) ln t - ln F(v)),
    times F's phase and a phase e^(-i Im u ln t) that both contours share;
    the phases come from :func:`~meijergap.specfun.cexp`.
    """
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if not (0.0 < x_lo < x_hi) or not math.isfinite(x_hi):
        raise DomainError("x_range must satisfy 0 < x_lo < x_hi < inf")
    if not 0.0 < tol < 1.0:  # NaN fails too
        raise DomainError("tol must satisfy 0 < tol < 1")

    span = 1.0 + params.nu_min
    ln_lo, ln_hi = math.log(x_lo), math.log(x_hi)
    c = span / max(3.0, span * abs(ln_lo))  # min(span/3, 1/|ln x_lo|)
    a, h = _WIDTH * c, min(_STEP, 0.2 / (params.r - params.q + 1))
    # far out |u - c| ~ a e^theta: the candidates run up to about _REACH
    theta = h * np.arange(int(math.log1p(_REACH / a) / h) + 1)
    bend, rise = a * (np.cosh(theta) - 1.0), (math.sqrt(3.0) * a) * np.sinh(theta)
    u, v = (c - bend) + 1j * rise, (span - c + bend) + 1j * rise
    # du/dtheta = -a sinh + i sqrt(3) a cosh, and dv/dtheta = -conj(du/dtheta)
    du = h * a * (-np.sinh(theta) + 1j * math.sqrt(3.0) * np.cosh(theta))
    du[0] /= 2.0

    # truncation: each contour's first node from which on
    # ln |F(u) / F(v_0) x^-u| (gamma) or ln |F(u_0) / F(v) y^(v-1)|
    # (gammatilde), at its largest over x_range, is below ln tol at every
    # candidate; u_0 and v_0 are the crossings, node 0
    ln_f = log_big_f(np.concatenate((u, v)), params)
    ln_fu, ln_fv = ln_f[: u.size], ln_f[u.size :]
    bounds = (np.stack((ln_fu.real - ln_fv.real[0], -u.real)), np.stack((ln_fu.real[0] - ln_fv.real, v.real - 1.0)))
    ends = [_first_tip(b, ln_lo, ln_hi, math.log(tol)) for b in bounds]
    if None in ends:
        raise ConvergenceError(f"contour truncation bound {tol} not reached within {_REACH:g} of the crossing")
    n_u, n_v = ends[0] + 1, ends[1] + 1
    u, v = u[:n_u], v[:n_v]

    kappa = math.ceil(_T_GRADING / span)
    rule = _graded_t_rule(_t_points(kappa, 1.0 / (params.r - params.q + 1), x_hi), kappa, params.nu_min)
    ln_t = np.log(rule.nodes)
    # T_u and -conj T_v (conj dv = -du) share the phases e^(-i Im u ln t); each magnitude is
    # one real exp of its whole exponent (|Re ln F| < 148 at the benchmark nodes); an overflow
    # is left to the typed check below, with no numpy warning
    phase = np.outer(-rise[: max(n_u, n_v)], ln_t)
    phase = cexp(np.zeros_like(phase), phase)
    f_uv = cexp(np.zeros(n_u + n_v), np.concatenate((ln_fu.imag[:n_u], ln_fv.imag[:n_v])))  # F's phases
    f_uv *= np.concatenate((du[:n_u] / _TWO_PI_I_SQ, -4.0 * du[:n_v]))
    f_u, f_v = f_uv[:n_u], f_uv[n_u:]
    with np.errstate(over="ignore", invalid="ignore"):
        t_u = np.exp(ln_fu.real[:n_u, None] - np.outer(u.real, ln_t)) * (phase[:n_u] * f_u[:, None])
        t_v = np.exp(np.outer(v.real - 1.0, ln_t) - ln_fv.real[:n_v, None]) * rule.weights * (phase[:n_v] * f_v[:, None])
    coeffs = np.empty((2 * (n_u + n_v), rule.m))
    for rows, t in ((coeffs[: 2 * n_u], t_u), (coeffs[2 * n_u :], t_v)):
        rows[0::2], rows[1::2] = t.imag, t.real
    coeffs[np.abs(coeffs) < _TINY] = 0.0
    if not np.all(np.isfinite(coeffs)):
        raise AccuracyError("non-finite separable coefficients; contours too aggressive for these parameters")

    mags = np.abs(coeffs[0::2]) + np.abs(coeffs[1::2])
    return ContourQuadrature(
        gamma_nodes=np.concatenate((u, np.conj(u))),
        gammatilde_nodes=np.concatenate((v, np.conj(v))),
        x_range=(x_lo, x_hi),
        separable_coeffs=coeffs,
        magnitude_norms=np.sqrt(np.einsum("ij,ij->i", mags, mags)),
    )


def _first_tip(bounds, ln_lo, ln_hi, ln_tol):
    """The truncation rule of a contour: the index of its first node, given
    the nodes' bounds as rows (ln |F| part, power), from which on every
    bound ln |F| + power ln x, at its largest over [ln_lo, ln_hi], is below
    ln_tol; None if the last node's is not."""
    ln_f, power = bounds
    above = np.flatnonzero(ln_f + np.maximum(power * ln_lo, power * ln_hi) >= ln_tol)
    if above.size == 0:
        return 0
    return None if above[-1] == ln_f.size - 1 else int(above[-1]) + 1


def _log_args(x, cq: ContourQuadrature) -> np.ndarray:
    """ln x for kernel arguments, which must lie in the contours' x_range."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x_lo, x_hi = cq.x_range
    if not np.all((x >= 0.999 * x_lo) & (x <= 1.001 * x_hi)):  # NaN fails too
        raise DomainError(f"argument outside the x_range {cq.x_range} the contours were built for")
    return np.log(x)


def _power_table(ln_arg, exponents):
    """The powers P = arg^e, 0 below e^_MIN_EXPONENT, and their 1-norms
    |Re P| + |Im P| (magnitude bounds without square roots).

    Each power is one :func:`cexp` of the real products ln arg Re e and
    ln arg Im e, the parts of the complex product ln arg e bit for bit: one
    vectorized real exp and tan per entry, where numpy's complex exp makes
    scalar libm calls (on 2 shared cores 9 ns against 44-50 ns per entry).
    Overflow leaves non-finite entries, which the fill's guard reports."""
    re, im = np.outer(ln_arg, exponents.real), np.outer(ln_arg, exponents.imag)
    re[re < _MIN_EXPONENT] = -np.inf  # cexp gives 0
    p = cexp(re, im)
    del re, im  # cexp's temporaries, freed before the norms
    return p, np.abs(p.real) + np.abs(p.imag)


def _kernel_matrix(xs, cq: ContourQuadrature) -> np.ndarray:
    """K(x_i, x_j) on the grid xs via the factored integrable form: the one
    Meijer kernel fill.

    One table x^-u over the grid and the first max(n_u, n_v) upper-half
    nodes, n_u of gamma and n_v of gammatilde as stored (either contour can
    be the longer), gives both contours' powers (see
    :class:`ContourQuadrature`); three real matrix products of its blocks
    and the stored rows give G1, G2 and K = G1 G2^T.  Every fill multiplies
    every stored node, also for arguments in the 0.1% slack around
    ``x_range``.

    Every entry is checked against its rounding bound
    E = eps |P_h| |T_u| (|Q_h| |T_v|)^T, the magnitude sum of its terms with
    |.| the 1-norm |Re| + |Im| (|T_v| carries the factor 4 W).
    AccuracyError is raised where E exceeds _ROUNDING_LIMIT max(1, |K|),
    cancellation in the contour sums, or where an entry or E is not finite.
    With rho the stored rows' ``magnitude_norms``, a = |P_h| rho_u and
    b = |Q_h| rho_v, Cauchy-Schwarz over the t-rule gives E_ij <= eps a_i b_j,
    which clears the fill, with a factor 2 for the rounding of a and b, when
    eps max a max b <= _ROUNDING_LIMIT / 2 (no m x m work) or else when
    eps a_i b_j <= _ROUNDING_LIMIT max(1, |K_ij|) / 2 at every entry.  Only a
    fill that neither screen clears forms E, from the norms of the same
    power table; a NaN or an inf fails both screens.
    """
    ln_x = _log_args(xs, cq)
    n_u, n_v = cq.gamma_nodes.size // 2, cq.gammatilde_nodes.size // 2  # gammatilde's rows start at row 2 n_u
    span = cq.gamma_nodes[0].real + cq.gammatilde_nodes[0].real  # 1 + nu_min; -u = conj(v) - span
    exponents = -cq.gamma_nodes[:n_u] if n_v <= n_u else np.conj(cq.gammatilde_nodes[:n_v]) - span
    rows, norms = cq.separable_coeffs, cq.magnitude_norms
    with np.errstate(over="ignore", invalid="ignore"):
        p, p_norms = _power_table(ln_x, exponents)
        p_u, p_v = p_norms[:, :n_u], p_norms[:, :n_v]
        g1, g2 = p[:, :n_u].view(float) @ rows[: 2 * n_u], p[:, :n_v].view(float) @ rows[2 * n_u :]
        del p  # free the table before the m x m products; the guard reads its norms
        scale = np.exp((span - 1.0) * ln_x)  # y^nu_min of Q_h, y on the same grid
        vals = g1 @ (scale[:, None] * g2).T
        # |P| rho bounds the t-rule 2-norm of each row of |P| |T| (triangle inequality)
        a = (2.0 * _EPS / _ROUNDING_LIMIT) * (p_u @ norms[:n_u])  # a_i b_j is eps a_i b_j / (_ROUNDING_LIMIT / 2)
        b = scale * (p_v @ norms[n_u:])
        if a.max() * b.max() <= 1.0:  # NaN fails
            return vals
        k_scale = np.abs(vals)
        np.maximum(k_scale, 1.0, out=k_scale)  # max(1, |K|), NaN kept
        if np.all(np.outer(a, b) <= k_scale):  # NaN fails
            return vals
        # neither screen clears the fill: form E from the rows' 1-norms
        mags = np.abs(rows[0::2]) + np.abs(rows[1::2])
        bound = (_EPS / _ROUNDING_LIMIT * (p_u @ mags[:n_u])) @ (scale[:, None] * (p_v @ mags[n_u:])).T
        if not np.all(bound <= k_scale):  # NaN fails too; bound is E / _ROUNDING_LIMIT
            ratio = _ROUNDING_LIMIT * bound / k_scale
            if bad := np.count_nonzero(~np.isfinite(ratio)):
                raise AccuracyError(f"{bad} of {ratio.size} kernel entries or bounds not finite: the contour sums overflow")
            raise AccuracyError(
                f"rounding bound {ratio.max():.3e} of max(1, |K|) exceeds {_ROUNDING_LIMIT:.0e}: cancellation in the contour sums"
            )
    return vals


def kernel_eval(x: float, y: float, cq: ContourQuadrature) -> float:
    """K(x, y) from the precomputed double-contour discretization: the
    ``[0, 1]`` entry of the two-point fill on ``[x, y]``, with its rounding
    guard."""
    return float(_kernel_matrix([x, y], cq)[0, 1])


class MeijerKernel:
    """Kernel handle: the contours for ``params`` over ``x_range`` and the
    Fredholm matrix fill on them."""

    def __init__(self, params: ProcessParams, x_range: tuple, tol: float = CONTOUR_TOL):
        self.cq = build_contours(params, x_range, tol)

    def matrix(self, xs) -> np.ndarray:
        return _kernel_matrix(xs, self.cq)


# ---------------------------------------------------------------------------
# Residue-series oracle
# ---------------------------------------------------------------------------

def _cluster_poles(bases, radius):
    """The pole chains b, b + 1, ..., b + _SERIES_TERMS - 1 of the given
    bases, grouped into residue clusters, and the radius of the residue
    rings.

    Returns the cluster locations in ascending order and the ring radius:
    the given one, or 0.35 of the smallest gap between clusters if that is
    smaller.  One sort puts the poles in ascending order, and a pole less
    than 1e-9 above the one before it joins that pole's cluster, which is
    located at its lowest pole.  ConvergenceError is raised where the radius
    falls below 1e-6: the pole families nearly coincide.
    """
    poles = np.sort((np.asarray(bases, dtype=float)[:, None] + np.arange(_SERIES_TERMS)).ravel())
    locs = poles[np.diff(poles, prepend=-np.inf) >= 1e-9]
    radius = min(radius, 0.35 * float(np.diff(locs).min()))
    if radius < 1e-6:
        raise ConvergenceError("pole families nearly coincide; residue extraction is ill-conditioned")
    return locs, radius


def _clusters_needed(locs, ring, coeffs, ln_top):
    """How many leading clusters a call of :func:`_sum_residues` whose
    largest argument is z_top = e^ln_top sums.  Each cluster's term at
    z_top is formed, and the count runs to the last term above 1e-17 of
    their sum (floored, as in the tail check, by 1e-16 of the largest
    term), plus one cluster for that check.  Every term past it is below a
    quarter of an ulp of the sum at z_top, and as z falls a later
    cluster's term, whose location is higher, falls faster than the terms
    before it.  Where the terms are not finite, every cluster is summed."""
    top = (coeffs[0] @ np.exp(ring * ln_top)).real * np.exp(locs * ln_top)
    cut = 1e-17 * (abs(top.sum()) + 1e-16 * np.abs(top).max())
    if not np.isfinite(cut):
        return locs.size
    return min(locs.size, int(np.flatnonzero(np.abs(top) > cut).max(initial=-1)) + 2)


def _sum_residues(locs, ring, coeffs, z):
    """-(sum of residues) of amp(t) z^t over the listed pole clusters, each
    extracted by trapezoidal integration on a small circle.  ``ring`` holds
    the offsets t - loc of the upper half k = 0..M/2 of an M-point circle,
    M = _RING_POINTS, and ``coeffs`` the amplitudes amp(t) at those points
    of each cluster's circle times the offsets and the fold weights below,
    shape (2, cluster, ring point): the full ring's weights, then the
    every-other-point ones (see :func:`_series_rings`, which builds them
    once per parameter set).  ``z`` may be a vector; returns one value per
    z, and per z the gap between that value and the same sum over every
    other ring point.  Only the leading clusters that the largest z needs
    are summed (:func:`_clusters_needed`), and the last cluster summed is
    the one the tail check measures.  The clusters left out sit below
    rounding: on the tested families the sums and gaps keep the bits of the
    sums over every cluster.  The circle rule is spectrally accurate and
    handles higher-order (logarithmic) poles with no special casing, but
    only while z^t varies slowly around the ring; the gap grows where
    |ln z| is too large for the ring to resolve.  The leading minus sign
    matches the orientation of the defining loop contour.

    The powers separate, z^t = z^loc z^(t - loc), so each cluster's ring
    mean is one complex matrix product, the coefficients over
    (cluster, ring point) times the ring powers z^(t - loc) over
    (ring point, z), scaled by the real z^loc: one exp per (cluster, z) and
    one per (ring point, z).  The parameters and pole locations are real and
    z > 0, so the term at conj(t) is the conjugate of the term at t, and a
    ring sum is the real part of the half sum with weights 1 at the real
    points k = 0, M/2 and 2 in between; the every-other-point sum keeps the
    weights of even k only.  This needs M even, so that k = M/2 is the
    second real point of the ring.

    Its exponentials are numpy's complex ``exp``, not the half-angle
    :func:`~meijergap.specfun.cexp` of the contour build and fill: the
    oracle stays an independent route, so the kernel-oracle check of
    ``meijergap verify`` checks cexp too.
    """
    ln_z = np.log(np.asarray(z, dtype=float))
    n = _clusters_needed(locs, ring, coeffs, ln_z.max())
    means = (coeffs[:, :n] @ np.exp(np.outer(ring, ln_z))).real * np.exp(np.outer(locs[:n], ln_z))
    per_cluster, per_cluster_even = means  # (n, nz) each: full ring, every other point
    totals = -per_cluster.sum(axis=0)
    gap = np.abs(totals + per_cluster_even.sum(axis=0))
    tail = np.abs(per_cluster[-1])
    scale = np.abs(totals) + 1e-16 * np.abs(per_cluster).max(axis=0)
    if np.any(tail > 1e-14 * scale):
        raise ConvergenceError("residue series not converged: last term exceeds 1e-14 of the partial sum")
    return totals, gap


@functools.lru_cache(maxsize=8)
@np.errstate(over="ignore", invalid="ignore")
def _series_rings(params: ProcessParams):
    """The parts of :func:`kernel_eval_series` that depend on ``params``
    alone, computed once per parameter set: the residue rings of the two
    kernel factors, each as the ``(locs, ring, coeffs)`` that
    :func:`_sum_residues` takes, and the oracle's t-rule (nodes, weights).

    G1 sums the residues of F(-t) z^t = Gamma(-t) prod_k Gamma(1+mu_k+t) /
    prod_j Gamma(1+nu_j+t) z^t over the chain t = 0, 1, 2, ...; its rings
    stay within 0.35 (1 + mu_min) of 0, clear of the poles of
    Gamma(1+mu_k+t) at -1-mu_k.  G2 sums those of z^t / F(1+t) =
    prod_j Gamma(nu_j-t) / (Gamma(1+t) prod_k Gamma(mu_k-t)) z^t over the
    chains t = nu_j, nu_j + 1, ....

    The amplitudes F(-t) and 1/F(1+t) on the upper half of every cluster's
    ring are exp(+-ln F) from :func:`log_big_f`, one call per block of at
    most _SERIES_TERMS clusters, which keeps a first call's temporaries
    small (RIGHT's G2 has 192 clusters).  A real ring point can fall on a
    pole of a gamma function that divides the amplitude, 1/Gamma(1+nu_j+t)
    in G1 or 1/Gamma(1+t) and 1/Gamma(mu_k-t) in G2, where log_big_f
    raises: the amplitude there is 0, and ln F is taken at the other points.

    The cache is keyed on the ``ProcessParams``, whose fields are
    normalized to ints and floats, so parameters given as ints or as floats
    share an entry; it keeps the 8 most recent parameter sets.  Every
    returned array is shared by the calls on that entry and is read-only.
    Errors are not cached: a parameter set that raises (nearly coincident
    pole families, an underflowing t-rule) raises on every call.
    """
    grid = _graded_t_rule(_SERIES_T_POINTS, max(4, math.ceil(4.0 / (1.0 + params.nu_min))), params.nu_min)
    half = np.exp(2j * math.pi * np.arange(_RING_POINTS // 2 + 1) / _RING_POINTS)
    k = np.arange(half.size)
    full = np.where((k == 0) | (k == k[-1]), 1.0, 2.0) / _RING_POINTS
    weights = np.stack((full, np.where(k % 2 == 0, 2.0 * full, 0.0)))  # full ring, every other point
    room = min(0.25, 0.35 * (1.0 + min(params.mu))) if params.q else 0.25
    out = []
    # F's argument z on the rings is -t for G1 and 1 + t for G2, the amplitude F(z)^sign; its
    # zeros are the poles of log_big_f's log-gammas of 1 + nu_j - z (G1), or of z and 1 + mu_k - z (G2)
    for bases, radius, sign in (((0.0,), room, 1.0), (params.nu, 0.25, -1.0)):
        locs, radius = _cluster_poles(bases, radius)
        ring = radius * half
        z = -(locs[:, None] + ring) if sign > 0 else 1.0 + (locs[:, None] + ring)
        zeros = [_at_poles(1.0 + p - z) for p in (params.nu if sign > 0 else params.mu)]
        if sign < 0:
            zeros.append(_at_poles(z))
        live = ~np.any(zeros, axis=0)
        amps = np.zeros_like(z)
        for block in range(0, locs.size, _SERIES_TERMS):
            rows = slice(block, block + _SERIES_TERMS)
            amps[rows][live[rows]] = np.exp(sign * log_big_f(z[rows][live[rows]], params))
        out.append((locs, ring, amps * ring * weights[:, None]))
    out.append((grid.nodes, grid.weights))
    for arrays in out:
        for a in arrays:
            a.setflags(write=False)
    return tuple(out)


def kernel_eval_series(x: float, y: float, params: ProcessParams) -> float:
    """Independent oracle for :func:`kernel_eval`.

    Evaluates K(x, y) = int_0^1 G_1(t x) G_2(t y) dt where each factor is the
    single-contour series of a Meijer G-function, summed over _SERIES_TERMS
    residue clusters per pole chain (see :func:`_series_rings`).  The
    t-integrand behaves like t^nu_min near 0, so the integral is computed by
    _SERIES_T_POINTS-point Gauss-Legendre quadrature after the regularizing
    substitution t = tau^kappa with kappa = max(4, ceil(4 / (1 + nu_min))).
    The rings' amplitudes (exp(+-ln F) from :func:`log_big_f` on the upper
    half of every ring) and the t-rule depend on ``params`` alone:
    :func:`_series_rings` computes them once per parameter set and keeps
    the 8 most recent sets, as read-only arrays.  Each call evaluates both
    factors at all t-nodes at once, with one exp per (ring point, node) and
    per (cluster, node), over the clusters the largest t x or t y needs
    (see :func:`_sum_residues`).

    The ring-resolution gaps of the two factors, weighted by the quadrature
    weights and the other factor, bound the error the residue rings add to
    the integral; above 1e-5 the series is not resolved (from nu_min of
    about -0.55 down, where t x falls far below 1e-40 near t = 0) and
    ConvergenceError is raised.
    """
    x, y = float(x), float(y)
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):  # NaN fails too
        raise DomainError("kernel arguments must be positive and finite")
    rings1, rings2, (t, dt) = _series_rings(params)
    with np.errstate(over="ignore", invalid="ignore"):
        (g1, gap1), (g2, gap2) = _sum_residues(*rings1, t * x), _sum_residues(*rings2, t * y)
        ring_err = float(np.sum(dt * (gap1 * np.abs(g2) + np.abs(g1) * gap2)))
    if not ring_err <= _SERIES_RING_TOL:  # unresolved rings overflow: inf and NaN included
        raise ConvergenceError(
            f"residue rings unresolved: error estimate {ring_err:.1e} exceeds {_SERIES_RING_TOL:.0e}"
        )
    return float(np.sum(dt * (g1 * g2).real))


# ---------------------------------------------------------------------------
# Bessel kernel (r = 1, q = 0 hard-edge limit)
# ---------------------------------------------------------------------------

class BesselKernel:
    """Kernel handle for the Bessel hard-edge kernel: its Fredholm matrix fill."""

    def __init__(self, nu: float):
        if not -1.0 < nu < math.inf:  # NaN fails too
            raise DomainError("requires finite nu > -1")
        self.nu = float(nu)

    def matrix(self, xs) -> np.ndarray:
        """Bessel hard-edge kernel K(x_i, x_j) on the grid xs,

            (sqrt x J_{nu+1}(sqrt x) J_nu(sqrt y) - sqrt y J_nu(sqrt x) J_{nu+1}(sqrt y)) / (2(x-y)),

        the usual J_nu(sqrt x) sqrt y J'_nu(sqrt y) - sqrt x J'_nu(sqrt x) J_nu(sqrt y)
        numerator with t J'_nu(t) = nu J_nu(t) - t J_{nu+1}(t) and its two
        nu J_nu(sqrt x) J_nu(sqrt y) terms cancelled analytically, so that they
        add no rounding where x and y are close.  J_nu and t J_{nu+1}(t) are
        evaluated once per distinct argument.  Where |x - y| <= 1e-6 max(x, y)
        (the diagonal included) the quotient is replaced by its analytic limit
        at the midpoint c,
        ((c - nu^2) J_nu(sqrt c)^2 + (sqrt c J'_nu(sqrt c))^2) / (4c),
        which agrees with the off-diagonal formula to O((x-y)^2).  The switch
        is relative because near 0 the kernel varies on the scale of x itself.
        """
        nu = self.nu
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if not np.all(xs >= 0.0):  # NaN fails too
            raise DomainError("BesselKernel requires x, y >= 0")
        diff = xs[:, None] - xs[None, :]
        near = np.abs(diff) <= 1e-6 * np.maximum(xs[:, None], xs[None, :])
        mid = 0.5 * (xs[:, None] + xs[None, :])[near]
        args, where = np.unique(np.concatenate((xs, mid)), return_inverse=True)
        t = np.sqrt(args)
        jx, jm = np.split(bessel_j(nu, t)[where], [xs.size])
        tx, tm = np.split((t * bessel_j(nu + 1.0, t))[where], [xs.size])
        out = (tx[:, None] * jx[None, :] - jx[:, None] * tx[None, :]) / (2.0 * np.where(near, 1.0, diff))
        # at c = 0 (nu >= 0; J_nu(0) diverges for nu < 0) the limit is 1/4 for nu = 0, else 0
        origin = mid == 0.0
        c = np.where(origin, 1.0, mid)
        tjp = nu * jm - tm
        out[near] = np.where(origin, 0.25 if nu == 0.0 else 0.0, ((c - nu * nu) * jm * jm + tjp * tjp) / (4.0 * c))
        return out
