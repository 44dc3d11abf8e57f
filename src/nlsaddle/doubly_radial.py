"""Geometry of the cone {|x'|=|x''|} and the averaged kernels on orbits.

Everything in R^(2m) that is invariant under O(m)xO(m) reduces to the two
orbit radii (s, t) = (|x'|, |x''|).  This module provides the (s,t)-variable
kernel J obtained by integrating K over the two spheres (`j_values`, the one
evaluator of J: one blocked loop over r^2 = d + u(1 - th_1) + v(1 - th_2),
both angles on the rule or, for the fractional kernel on a flat weight
(m=2), in closed form), the
odd-sector kernel difference kbar(x,y) - kbar(x,y*) of the rotation average
kbar = J / |S^(m-1)|^2, its closed hypergeometric form
for the pure power kernel (m >= 2), the zero-order coefficient of the
odd-sector operator (for the power kernel at m=1 a planar integral along
exact rays, which needs no J; otherwise a polar integral of J over the
directions that see the octant, in two graded panels), and a randomized
verifier for the kernel inequality.  An m=1 table build makes
no J call for its pairs and self-cell (nor, for the power kernel, its
zero-order column): J is the 4-term sum over the sign reflections, each
lattice distance is h sqrt(a^2 + b^2), and both sum K per offset (a, b).
Every Gauss rule comes from `_gauss` (`_panels` places it on intervals):
numpy's Gauss-Legendre rule on the flat weight (J at m=2, every panel) and
Gauss-Chebyshev of the second kind on (1 - x^2)^(1/2) (J at m=3, the m=2
sphere-slice tail), so an m=1 or m=2 run needs numpy alone.  scipy.special,
whose import takes longer than numpy's, is imported where used: roots_jacobi
for the other weights (J at m >= 4, the tail at m >= 3), hyp2f1 for the
Appell-F2 oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng

from .errors import ConvergenceError, DomainError, PreconditionError, SingularityError
from .kernels import RadialKernel, _h

# Gauss-Jacobi nodes of J's rule where the caller passes none
_RULE_ORDER = 32
# values per scratch array of every blocked loop (512 KiB of float64), here
# and in energy: small enough that the C allocator reuses heap pages from
# block to block instead of mapping, zeroing and returning fresh ones
_BLOCK_VALUES = 2 ** 16
# Gauss-Legendre nodes of the exterior tail along rays, _TAIL_ORDER_BASE + 4m
# (m=1), and the angular and radial nodes of its sphere-slice rule (m >= 2)
_TAIL_ORDER_BASE = 16
_TAIL_N_THETA = 48
_TAIL_N_RAD = 32
# relative gap tolerance and order cap of the sampled inequality check
_INEQUALITY_REL_TOL = 1e-8
_INEQUALITY_MAX_ORDER = 256


def _blocks(n: int, width: int, grain: int = 1):
    """(lo, hi) of the blocks of n items holding `width` scratch values each:
    _BLOCK_VALUES per block, in multiples of `grain` items."""
    step = max(grain, _BLOCK_VALUES // width // grain * grain)
    return ((lo, min(n, lo + step)) for lo in range(0, n, step))


def _coords(p) -> tuple[float, float]:
    s, t = p
    if s < 0.0 or t < 0.0:
        raise DomainError("orbit radii must be nonnegative")
    return float(s), float(t)


def omega_sphere(m: int) -> float:
    """Surface measure of the unit sphere S^(m-1); counting measure 2 for m=1."""
    if not m >= 1:
        raise DomainError("the sphere S^(m-1) needs m >= 1")
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for the spherical weight (1-theta^2)^((m-2)/2) on [-1,1].

    For m = 1 the sphere S^0 is two points and the rule is exact by
    construction.  For m >= 2 these are the Gauss nodes of `_gauss`
    (Gauss-Legendre on the flat weight of m=2).  `order` is the number of
    nodes, which `j_values` puts on both sphere angles.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _weight_exponent(m: int) -> float:
    """The Jacobi exponent a of J's spherical weight (1 - theta^2)^a at
    half-dimension m; a = 0 is the flat weight on which J has a closed form."""
    return (m - 2) / 2.0


@functools.lru_cache(maxsize=None)
def _gauss(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The ascending n-node Gauss rule of (1 - x^2)^a on [-1, 1], read-only
    and kept per (n, a): numpy's Gauss-Legendre rule at a = 0 (leggauss
    takes 0.2 to 0.9 ms per call, as long as the m=1 tail), Gauss-Chebyshev
    of the second kind at a = 1/2, scipy's roots_jacobi otherwise."""
    if a == 0.0:
        x, w = leggauss(n)
    elif a == 0.5:
        th = np.arange(n, 0, -1) * (math.pi / (n + 1))
        x, w = np.cos(th), math.pi / (n + 1) * np.sin(th) ** 2
    else:
        from scipy.special import roots_jacobi
        x, w = roots_jacobi(n, a, a)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on each interval between consecutive
    columns of `edges` (..., k + 1), as (..., k n) arrays, panel by panel."""
    gl, wgl = _gauss(n, 0.0)
    edges = np.asarray(edges, float)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    x = half * gl
    x += 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    shape = edges.shape[:-1] + (-1,)
    return x.reshape(shape), (half * wgl).reshape(shape)


def gauss_jacobi_rule(order: int, m: int) -> QuadratureRule:
    if m == 1:
        return QuadratureRule(2, np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    if order < 2:
        raise DomainError("quadrature order must be >= 2")
    return QuadratureRule(order, *_gauss(order, _weight_exponent(m)))


def _default_rule(m: int, rule: QuadratureRule | None) -> QuadratureRule:
    """`rule`, or the _RULE_ORDER-node rule of half-dimension m if it is None."""
    return gauss_jacobi_rule(_RULE_ORDER, m) if rule is None else rule


def j_values(kernel: RadialKernel, s, t, sig, tau, rule: QuadratureRule) -> np.ndarray:
    """Vectorized J(s,t,sigma,tau) over broadcastable arrays.

    J is the double spherical integral of K: the exact 4-term sum over the
    sign choices for m=1, an integral over both sphere angles for m>=2.
    With d = (s-sig)^2 + (t-tau)^2, u = 2 s sig and v = 2 t tau the distance
    is r^2 = d + u(1 - th_1) + v(1 - th_2), every term nonnegative, so
    nothing cancels near the diagonal and J is bit-for-bit symmetric under
    (s,t) <-> (sig,tau).  One blocked loop hands d, u and v to an integrator:
    for the fractional kernel on a flat weight (m=2) `_j_closed`, exact over
    both angles, which reads no rule field; otherwise `_inner_rule`, the
    rule's tensor sum.  At m >= 2 the angle integrals carry the constant
    c_m^2 = |S^(m-2)|^2 of the two spheres.  The 1e-60 floor on d only keeps
    exact zeros finite: the diagonal entries that `build_kernel_table`
    computes at m >= 2 and then overwrites.  A block holds order^2 values
    per point on the rule (16 arrays of one value in closed form), in
    multiples of 16 points: the BLAS sums over the rule order a point's
    terms by its place among 16 (AVX-512), so no J depends on the block
    size.
    """
    radii = [np.asarray(a, float) for a in (s, t, sig, tau)]
    # checked before broadcasting, so that an n x n pair call checks O(n) values
    if not all(np.all(np.isfinite(a) & (a >= 0.0)) for a in radii):
        raise DomainError("orbit radii must be finite and nonnegative")
    s, t, sig, tau = np.broadcast_arrays(*radii)
    flat = [a.reshape(-1) for a in (s, t, sig, tau)]
    closed = _j_is_closed(kernel)
    width = 16 if closed else rule.order ** 2
    out = np.empty(s.size)
    for lo, hi in _blocks(s.size, width, grain=16):
        S, T, SIG, TAU = (a[lo:hi] for a in flat)
        d = (S - SIG) ** 2 + (T - TAU) ** 2
        np.maximum(d, 1e-60, out=d)
        u, v = 2.0 * S * SIG, 2.0 * T * TAU
        out[lo:hi] = _j_closed(kernel, d, u, v) if closed else _inner_rule(kernel, d, u, v, rule)
    if kernel.m >= 2:
        out *= omega_sphere(kernel.m - 1) ** 2
    return out.reshape(s.shape)


def _j_is_closed(kernel: RadialKernel) -> bool:
    """Whether `j_values` takes `_j_closed`, which reads no rule node."""
    return kernel.family == "fractional" and _weight_exponent(kernel.m) == 0.0


def _inner_rule(kernel: RadialKernel, d, u, v, rule: QuadratureRule) -> np.ndarray:
    """sum_ij w_i w_j h(d + min(u, v)(1 - th_j) + max(u, v)(1 - th_i)) per point."""
    a = np.multiply.outer(1.0 - rule.nodes, np.minimum(u, v))
    a += d
    r2 = a[:, None, :] + np.multiply.outer(1.0 - rule.nodes, np.maximum(u, v))
    return rule.weights @ (rule.weights @ _h(kernel, r2))


def _j_closed(kernel: RadialKernel, d, u, v) -> np.ndarray:
    """int int h(d + u(1 - th_1) + v(1 - th_2)) dth_1 dth_2 over [-1, 1]^2 for
    h(x) = c_norm x^(-k), k = m + gamma, per point.

    The integral is the mixed second difference of x^(2-k) over the steps
    2u and 2v at d, divided by (k-1)(k-2) u v.  With x_u = 2u/d,
    L_u = log(1 + x_u), q = x_u x_v / ((1 + x_u)(1 + x_v)) and
    R(x, L) = expm1((2-k) L) / ((2-k) x), it equals
        4 h(d) / (k-1) [(k-2) R(x_u, L_u) R(x_v, L_v)
                        + ((1 + x_u)(1 + x_v))^(1-k) R(-q, log(1 - q))],
    a sum of positive terms, so it keeps full relative accuracy at every
    ratio of d, u and v (1.3e-15 against 150-digit arithmetic over d, u, v
    from 1e-12 to 1e4), and every step is symmetric in u and v.  log(1 - q)
    is log1p(-q) for q <= 1/2 and the log of 1 - q = (1 + (x_u + x_v)) /
    ((1 + x_u)(1 + x_v)) above.  x_u, x_v and q are floored at 1e-300, where
    R is 1, which also gives the limits u = 0 and v = 0 (4 h(d) at u = v = 0).
    """
    k = kernel.power / 2.0
    p = 2.0 - k
    xu = np.maximum(2.0 * u / d, 1e-300)
    xv = np.maximum(2.0 * v / d, 1e-300)
    den = (1.0 + xu) * (1.0 + xv)
    q = np.maximum(xu * xv / den, 1e-300)
    log_w = np.where(q > 0.5, np.log((1.0 + (xu + xv)) / den), np.log1p(-np.minimum(q, 0.5)))
    log_u, log_v = np.log1p(xu), np.log1p(xv)

    def rel(x, log):
        return np.expm1(p * log) / (p * x)

    return (4.0 / (k - 1.0)) * _h(kernel, d) * (
        (k - 2.0) * rel(xu, log_u) * rel(xv, log_v)
        + np.exp((1.0 - k) * (log_u + log_v)) * rel(-q, log_w))


def _check_pair(p, q):
    ps, pt = _coords(p)
    qs, qt = _coords(q)
    scale = max(ps, pt, qs, qt, 1e-300)
    if abs(ps - qs) <= 1e-14 * scale and abs(pt - qt) <= 1e-14 * scale:
        raise SingularityError("J is singular on the diagonal (s,t) = (sigma,tau)")
    return ps, pt, qs, qt


def kernel_difference(kernel: RadialKernel, p, q) -> float:
    """kbar(x, y) - kbar(x, y*) for orbits strictly on the outer side, J on
    the _RULE_ORDER-node rule.

    kbar = J / |S^(m-1)|^2 is the mean of K(|Rx - y|) over O(m)^2, since the
    orbit of x covers the product of spheres uniformly.  Positive whenever
    K(sqrt(.)) is strictly convex.
    """
    s, t, sig, tau = _check_pair(p, q)
    if not (s > t and sig >= tau):
        raise DomainError("kernel_difference requires orbits on the outer side of the cone")
    rule = gauss_jacobi_rule(_RULE_ORDER, kernel.m)
    direct = float(j_values(kernel, s, t, sig, tau, rule))
    swapped = float(j_values(kernel, s, t, tau, sig, rule))
    return (direct - swapped) / omega_sphere(kernel.m) ** 2


@dataclass
class InequalityReport:
    """Sampled status of the inequality kbar(x,y) > kbar(x,y*) on outer
    pairs; the fields are the report's JSON keys."""

    kernel: str
    m: int
    gamma: float
    n_samples: int
    violations: int
    min_gap: float
    seed: int
    rel_tolerance: float
    n_unconverged: int
    worst_samples: list

    def as_dict(self) -> dict:
        return asdict(self)


def sample_outer_orbits(rng: np.random.Generator, n: int,
                        r_range=(1e-2, 1e2)) -> tuple[np.ndarray, np.ndarray]:
    """Radii log-uniform in r_range, polar angle uniform in the outer octant."""
    lo, hi = (math.log(r) for r in r_range)
    r = np.exp(rng.uniform(lo, hi, size=n))
    phi = rng.uniform(0.0, math.pi / 4.0, size=n)
    return r * np.cos(phi), r * np.sin(phi)


def verify_kernel_inequality(kernel: RadialKernel, seed: int, n_samples: int,
                             r_range=(1e-2, 1e2)) -> InequalityReport:
    """Draw random outer-orbit pairs and count gaps below -tol (relative).

    The gap per pair is J(s,t,sigma,tau) - J(s,t,tau,sigma), exact at m=1
    and where `_j_is_closed`; otherwise the order of J's rule, from
    _RULE_ORDER, is doubled on the unconverged subset until
    _INEQUALITY_REL_TOL relative agreement or _INEQUALITY_MAX_ORDER.  J reads
    K at distances from the pair's nearer
    image min(|(s - sigma, t - tau)|, |(s - tau, t - sigma)|) to |x| + |y|,
    so over the kernel's `radii` [r_first, r_last] (a tabulated kernel is
    read only over its table) it draws radii from [r_first, r_last / 2]
    within r_range and re-draws pairs whose nearer image is below r_first.
    """
    if not n_samples >= 1:
        raise DomainError("n_samples must be >= 1")
    r_near, r_far = kernel.radii
    r_range = (max(r_range[0], r_near), min(r_range[1], 0.5 * r_far))
    if not r_range[0] < r_range[1]:
        raise DomainError(f"r_range and the kernel's radii {kernel.radii} leave no radius "
                          "in [r_first, r_last / 2]: need r_last > 2 r_first")
    rng = default_rng(seed)
    xs, xt = sample_outer_orbits(rng, n_samples, r_range)
    ys, yt = sample_outer_orbits(rng, n_samples, r_range)
    # re-draw near-coincident pairs (J is refused there) and those nearer than a table
    for _ in range(16):
        redraw = ((np.abs(xs - ys) + np.abs(xt - yt)) <= 1e-12 * (xs + ys)) | (
            np.minimum(np.hypot(xs - ys, xt - yt), np.hypot(xs - yt, xt - ys)) < r_near)
        if not redraw.any():
            break
        k = int(redraw.sum())
        ys[redraw], yt[redraw] = sample_outer_orbits(rng, k, r_range)

    rule = gauss_jacobi_rule(_RULE_ORDER, kernel.m)
    direct = j_values(kernel, xs, xt, ys, yt, rule)
    swapped = j_values(kernel, xs, xt, yt, ys, rule)
    gap = direct - swapped
    n_unconverged = 0
    if kernel.m >= 2 and not _j_is_closed(kernel):
        # escalate the quadrature order only on the unconverged subset
        unsettled = np.ones(n_samples, dtype=bool)
        cur = rule
        while cur.order < _INEQUALITY_MAX_ORDER and unsettled.any():
            cur = gauss_jacobi_rule(2 * cur.order, kernel.m)
            idx = np.where(unsettled)[0]
            direct[idx] = d2 = j_values(kernel, xs[idx], xt[idx], ys[idx], yt[idx], cur)
            swapped[idx] = s2 = j_values(kernel, xs[idx], xt[idx], yt[idx], ys[idx], cur)
            scale = np.abs(d2) + np.abs(s2)
            unsettled[idx] = ~(np.abs(d2 - s2 - gap[idx]) <= _INEQUALITY_REL_TOL * scale)
            gap[idx] = d2 - s2
        n_unconverged = int(unsettled.sum())

    tol = _INEQUALITY_REL_TOL * (np.abs(direct) + np.abs(swapped))
    bad = gap < -tol
    order = np.argsort(gap)[:8]
    worst = [{"x": [float(xs[i]), float(xt[i])], "y": [float(ys[i]), float(yt[i])],
              "gap": float(gap[i])} for i in order]
    return InequalityReport(
        kernel=kernel.family, m=kernel.m, gamma=kernel.gamma,
        n_samples=n_samples, violations=int(bad.sum()),
        min_gap=float(gap.min()), seed=seed, rel_tolerance=_INEQUALITY_REL_TOL,
        n_unconverged=n_unconverged, worst_samples=worst)


# ---------------------------------------------------------------------------
# Closed hypergeometric form of J for the pure power kernel, m >= 2
# ---------------------------------------------------------------------------

def appell_prefactor(gamma: float, m: int, c_norm: float = 1.0) -> float:
    """Constant in front of the double hypergeometric series.

    Obtained from the substitution theta = 2 w - 1 in the Gauss-Jacobi form
    of J: 2^(2m-2) c_m^2 Gamma(m/2)^4 / Gamma(m)^2, with both substitution
    Jacobians kept.  By the duplication formula this equals
    4 pi^m Gamma(m/2)^2 / (Gamma((m-1)/2)^2 Gamma((m+1)/2)^2).
    """
    lg = ((2 * m - 2) * math.log(2.0) + 2.0 * math.log(omega_sphere(m - 1))
          + 4.0 * math.lgamma(m / 2.0) - 2.0 * math.lgamma(float(m)))
    return c_norm * math.exp(lg)


def appell_f2(a: float, b1: float, b2: float, c1: float, c2: float,
              x: float, y: float, series_tol: float = 1e-12,
              max_terms: int = 4000) -> float:
    """The two-variable series F2 at (x, y) with x, y >= 0 and x + y < 1.

    Summed as a single series of Gauss 2F1 factors,
        F2 = sum_k (a)_k (b2)_k / ((c2)_k k!) y^k 2F1(a+k, b1; c1; x),
    stopping when the observed geometric tail falls below series_tol.
    Symmetric in the (b1,c1,x)/(b2,c2,y) slots, so callers may put the
    smaller argument in y for the fastest decay.
    """
    from scipy.special import hyp2f1
    if not (x >= 0.0 and y >= 0.0):
        raise DomainError("series arguments must be nonnegative")
    if not x + y < 1.0:
        raise DomainError("series requires x + y < 1")
    if y > x:
        x, y, b1, b2, c1, c2 = y, x, b2, b1, c2, c1
    total = 0.0
    coef = 1.0
    prev = np.inf
    for k in range(max_terms):
        term = coef * hyp2f1(a + k, b1, c1, x)
        total += term
        if k >= 4 and term <= series_tol * abs(total):
            ratio = term / prev if prev > 0 else 0.0
            if ratio < 1.0 and term * ratio / (1.0 - ratio) <= series_tol * abs(total):
                return total
        prev = term
        coef *= (a + k) * (b2 + k) / ((c2 + k) * (k + 1.0)) * y
    raise ConvergenceError(
        f"F2 series did not converge within {max_terms} terms (x={x}, y={y})")


def f2_arguments(p, q) -> tuple[float, float]:
    s, t = _coords(p)
    sig, tau = _coords(q)
    den = (s + sig) ** 2 + (t + tau) ** 2
    return 4.0 * s * sig / den, 4.0 * t * tau / den


def j_kernel_appell(gamma: float, m: int, p, q, series_tol: float = 1e-10,
                    c_norm: float = 1.0, max_terms: int = 4000) -> float:
    """Closed-form J for the kernel c_norm r^(-2m-2 gamma), m >= 2.

    Evaluates the double hypergeometric series in the two argument ratios
    4 s sigma / D and 4 t tau / D with D = (s+sigma)^2 + (t+tau)^2; both
    ratios sum to < 1 strictly off the diagonal.  Raises ConvergenceError
    at the iteration cap (callers fall back to quadrature).
    """
    if m < 2:
        raise DomainError("the closed form is stated for m >= 2 only")
    s, t, sig, tau = _check_pair(p, q)
    x, y = f2_arguments((s, t), (sig, tau))
    den = (s + sig) ** 2 + (t + tau) ** 2
    a = m + gamma
    f2 = appell_f2(a, m / 2.0, m / 2.0, float(m), float(m), x, y,
                   series_tol=series_tol, max_terms=max_terms)
    return appell_prefactor(gamma, m, c_norm) * f2 / den ** a


# ---------------------------------------------------------------------------
# Zero-order coefficient of the odd-sector operator
# ---------------------------------------------------------------------------

def exterior_tail_coefficient(kernel: RadialKernel, s, t, R_out: float) -> np.ndarray:
    """int_{|y| > R_out} K_env(|x - y|) dy for the power envelope K_env =
    c_norm r^(-2m-2 gamma) of every family, vectorized over orbit coordinates.

    At m=1 `_tail_rays` integrates along exact rays from x: within 1.4e-13
    of the closed form c_norm |S^(2m-1)| R_out^(-2 gamma) / (2 gamma)
    2F1(m + gamma, gamma; m; |x|^2 / R_out^2) for |x| / R_out <= 0.999,
    gamma from 0.1 to 0.9, m = 1..4.  At m >= 2 the fixed sphere-slice rule
    `_tail_sphere_slices` stays: at gamma = 1/2 it is off the closed form by
    2.4e-2 relative at |x|/R_out = 0.95 and by 0.55 at 0.99 (m=2), since its
    fixed nodes do not resolve the slices near the rim, but the zero-order
    oracles of perfbench/oracles.json were frozen from it: the exact form
    moves m=2 `zero_order_rel_err` from 1e-5 to 1.7e-4, so the switch waits
    for their regeneration.
    """
    s = np.asarray(s, float)
    t = np.asarray(t, float)
    a = np.hypot(s, t)
    if not (np.all((s >= 0.0) & (t >= 0.0)) and np.all(a < R_out)):
        raise DomainError("tail coefficient requires s, t >= 0 and |x| < R_out")
    tail = _tail_rays if kernel.m == 1 else _tail_sphere_slices
    out = tail(kernel, a.reshape(-1), R_out).reshape(a.shape)
    return out if a.ndim else float(out)


def _tail_rays(kernel: RadialKernel, a: np.ndarray, R_out: float) -> np.ndarray:
    """The exterior tail at |x| = a, a flat array, along exact rays.

    The ray from x at the angle phi to x leaves B_R_out at rho_rim, and its
    radial integral of r^(-2m-2 gamma) r^(2m-1) is rho_rim^(-2 gamma) /
    (2 gamma).  With e2 = R_out^2 - a^2 and, for phi in [0, pi/2],
    D = a cos phi + sqrt(e2 + a^2 cos^2 phi), the ray at phi has
    rho_rim = e2 / D and the ray at pi - phi has rho_rim = D, so
        tail = c_norm |S^(2m-2)| / (2 gamma)
               int_0^(pi/2) ((D / e2)^(2 gamma) + D^(-2 gamma)) sin^(2m-2) phi dphi,
    with no cancellation.  The integrand varies on the scale
    eps = sqrt(e2) / R_out around pi/2, so phi = pi/2 - eps sinh u carries
    _TAIL_ORDER_BASE + 4m Gauss-Legendre nodes in u (Johnston & Elliott,
    IJNME 62, 2005): 16 nodes leave 1.3e-12 at m=1, gamma = 0.9,
    |x| / R_out = 0.999 and 1.6e-7 at m=4, 16 + 4m at most 1.4e-13.
    """
    m, two_g = kernel.m, 2.0 * kernel.gamma
    x, w = _panels([0.0, 1.0], _TAIL_ORDER_BASE + 4 * m)
    out = np.empty(a.size)
    for lo, hi in _blocks(a.size, 5 * x.size):
        A = a[lo:hi, None]
        e2 = (R_out - A) * (R_out + A)
        eps = np.sqrt(e2) / R_out
        umax = np.arcsinh(0.5 * math.pi / eps)
        u = umax * x
        psi = eps * np.sinh(u)  # pi/2 - phi
        c = A * np.sin(psi)  # a cos phi
        D = (c + np.sqrt(e2 + c * c)) ** two_g
        f = (D / e2 ** two_g + 1.0 / D) * np.cosh(u) * w
        if m > 1:
            f *= np.cos(psi) ** (2 * m - 2)
        out[lo:hi] = f.sum(axis=1) * (umax * eps)[:, 0]
    return out * (kernel.c_norm * omega_sphere(2 * m - 1) / two_g)


def _tail_sphere_slices(kernel: RadialKernel, a: np.ndarray, R_out: float) -> np.ndarray:
    """The exterior tail c_norm |S^(2m-1)| int_R_out^inf <|x - y|^(-2m-2 gamma)>
    r^(2m-1) dr at |x| = a, a flat array, <.> the mean over the sphere |y| = r
    by slices: _TAIL_N_THETA Gauss nodes of (1 - x^2)^((2m-3)/2) against the
    first coordinate times _TAIL_N_RAD Gauss-Legendre nodes in r, substituted
    so that the integrand is analytic up to r = infinity."""
    n = 2 * kernel.m
    p = kernel.power
    gam = kernel.gamma
    # angular slice of S^(n-1) against the first coordinate
    th, wth = _gauss(_TAIL_N_THETA, (n - 3) / 2.0)
    # radial nodes: v = u^(1/(2 gamma)), r = R_out / v
    u, wu = _panels([0.0, 1.0], _TAIL_N_RAD)
    v = u ** (1.0 / (2.0 * gam))
    r = R_out / v
    dv = (1.0 / (2.0 * gam)) * u ** (1.0 / (2.0 * gam) - 1.0)
    drdu = R_out / v ** 2 * dv

    wr = r ** (n - 1) * drdu * wu
    Rr = r[:, None]
    rad = np.empty(a.size)
    for lo, hi in _blocks(a.size, _TAIL_N_RAD * _TAIL_N_THETA):
        A = a[lo:hi, None, None]
        dist2 = Rr ** 2 + A ** 2 - 2.0 * A * Rr * th
        avg = (dist2 ** (-p / 2.0) * wth).sum(axis=-1)
        rad[lo:hi] = (avg * wr).sum(axis=-1)
    return kernel.c_norm * omega_sphere(n - 1) * rad


def zero_order_integral(kernel: RadialKernel, s, t, R_out: float,
                        rule: QuadratureRule | None = None,
                        n_phi: int = 160, n_rho: int = 24) -> np.ndarray:
    """int_{O, |y| <= R_out} kbar(x, y*) dy per orbit (s, t), vectorized.

    For the fractional kernel at m=1, J is the exact 4-term sum, so the
    integral is int K(|x - z|) dz over {|z_1| < |z_2|, |z| < R_out} in R^2,
    x = (s, t); `_zero_order_rays` integrates it along exact rays from x with
    n_phi // 5 angular nodes per panel, makes no J call, and ignores `rule`
    and n_rho.  At m >= 2 a ray form would integrate over the true sphere
    measure, which the Gauss-Jacobi weight of `j_values` does not carry yet,
    so the column stays on the polar J form below, J on `rule`.  So do the
    counterexample and tabulated kernels, whose radial integral is not
    closed.  K's `kink` is the circle rho = kink around c in J's nearest
    image at m=1, where each ray's log(rho) rule splits; the other images'
    are not split at (the m=1 counterexample's column is 3.3e-5 off exact
    rays at its corner node, 1e-5 next to the cone; 2.9e-3 unsplit).  At
    m >= 2 J averages K over both spheres, so no circle around c carries
    the kink, and the rule is not split.

    The polar form integrates J(s,t,b,a) a^(m-1) b^(m-1) over the truncated
    outer octant O_R = {0 <= b <= a, a^2 + b^2 <= R_out^2} in polar
    coordinates (rho, phi) around the reflected orbit c = (t, s), the only
    singularity of the integrand, at the distance delta = (s - t) / sqrt(2)
    across the cone.  O_R is convex and c lies inside the disk, so a ray
    from c meets O_R only through the cone segment from O to
    P_2 = (R_out, R_out) / sqrt(2): the live directions run from the
    direction to O to that to P_2.  A ray enters at rho = delta / cos psi, psi = phi + pi/4,
    and leaves through b = 0 up to the direction to P_1 = (R_out, 0), the
    kink that splits the two panels, and through the rim after it.  Each
    panel takes n_phi // 5 Gauss-Legendre nodes in u = asinh(tan psi)
    (phi = -pi/4 + atan(sinh u), dphi = sech u du), graded toward the foot
    of the normal from c, where the ray integrals of nodes next to the cone
    peak (Johnston & Elliott, IJNME 62, 2005); log(rho) takes n_rho nodes,
    in two panels split at K's kink if it has one and m=1.
    For the fractional kernel at m=2 `j_values` is exact and reads no rule
    node, so the column's error is that of the phi and rho rules alone
    (5e-15 against four times the nodes at R=4, h=1/2, gamma = 1/2; 5e-12
    at R=8, h=1/4); other kernels and m add the error of J's rule.
    Nodes go in blocks of _BLOCK_VALUES (node, phi, rho) points.
    """
    s, t = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
    if not np.all((s > t) & (t >= 0.0)):
        raise DomainError("the zero-order integral requires orbits strictly outside the cone")
    if not np.all(np.hypot(s, t) < R_out):
        raise PreconditionError("need |p| < R_out")
    m, order = kernel.m, max(1, n_phi // 5)
    if kernel.family == "fractional" and m == 1:
        return _zero_order_rays(kernel, s.reshape(-1), t.reshape(-1), R_out,
                                order).reshape(s.shape)
    rule = _default_rule(m, rule)
    flat_s, flat_t = s.reshape(-1), t.reshape(-1)
    out = np.empty(flat_s.size)
    for lo, hi in _blocks(flat_s.size, 2 * order * n_rho):
        S, T = flat_s[lo:hi, None], flat_t[lo:hi, None]
        # u = asinh(tan psi) at the directions to O, P_1 and P_2
        ends = np.concatenate([np.arcsinh(-(S + T) / (S - T)),
                               np.arcsinh((R_out - T - S) / (R_out - T + S)),
                               np.arcsinh((math.sqrt(2.0) * R_out - T - S) / (S - T))], axis=1)
        u, wphi = _panels(ends, order)
        ch, sh = np.cosh(u), np.sinh(u)
        wphi /= ch
        cosp, sinp = (1.0 + sh) / (math.sqrt(2.0) * ch), (sh - 1.0) / (math.sqrt(2.0) * ch)
        rho_in = (S - T) / math.sqrt(2.0) * ch
        pe = T * cosp + S * sinp
        rho_out = np.sqrt(pe ** 2 + (R_out ** 2 - S ** 2 - T ** 2)) - pe
        rho_out[:, :order] = S / -sinp[:, :order]
        span = 0.5 * np.log(rho_out / rho_in)  # half of each ray's log(rho) interval
        # log(rho) = log(rho_in) + span y, y in [0, 2]: one panel, or at m=1
        # two of n_rho // 2 nodes split at the kink (at y = 1 on rays that miss it)
        if m > 1 or kernel.kink is None:
            y, wy = _panels([0.0, 2.0], n_rho)
        else:
            at = np.log(kernel.kink / rho_in) / span
            at[~((at > 0.0) & (at < 2.0))] = 1.0
            edges = np.stack([np.zeros_like(at), at, np.full_like(at, 2.0)], axis=-1)
            y, wy = _panels(edges, n_rho // 2)
        rho = rho_in[:, :, None] * np.exp(span[:, :, None] * y)
        aa = T[:, :, None] + rho * cosp[:, :, None]
        bb = S[:, :, None] + rho * sinp[:, :, None]
        # rho becomes each point's weight: the measure rho drho dphi, with
        # drho = rho dxi, times a^(m-1) b^(m-1)
        rho *= rho * wy
        if m > 1:
            rho *= (aa * bb) ** (m - 1)
        ray = (j_values(kernel, S[:, :, None], T[:, :, None], bb, aa, rule) * rho).sum(axis=2)
        out[lo:hi] = (ray * span * wphi).sum(axis=1)
    return out.reshape(s.shape)


def _zero_order_rays(kernel: RadialKernel, s, t, R_out: float, order: int) -> np.ndarray:
    """int K(|x - z|) dz over W = {|z_1| < |z_2|, |z| < R_out} in R^2 for the
    m=1 power kernel K = c_norm r^(-2-2 gamma), x = (s, t), over flat arrays.

    Along the ray z = x + rho (cos th, sin th) the sign of z_2^2 - z_1^2 is
    that of ((t-s) + rho (sin th - cos th)) ((t+s) + rho (sin th + cos th)),
    negative at rho = 0, so the ray is inside W between the two roots and
    leaves at the rim root rho_disk if that comes first; the radial integral
    c_norm int rho^(-1-2 gamma) drho = c_norm (lo^(-2 gamma) - hi^(-2 gamma))
    / (2 gamma) is exact.  Only some directions see W.  V = {z_1 > |z_2|,
    |z| < R_out} is convex and holds x, so a ray leaves it exactly once:
    through a cone edge into W, or through V's arc out of the disk for good,
    adding 0.  The rays of the second kind are the directions between those
    to the arc's ends, the rim points (R_out, -+R_out)/sqrt(2), so th runs
    counter-clockwise from the direction to the (+, +) one, which lies in
    (pi/4, 3 pi/4), to that to the (+, -) one, in (5 pi/4, 7 pi/4).  It goes
    through Gauss-Legendre panels of `order` nodes, split per node where the
    interval's ends change formula: at the directions to the origin and to
    the rim points (-R_out, +-R_out)/sqrt(2), and along the cone lines,
    3 pi/4 and 5 pi/4, all of which lie in [3 pi/4, 5 pi/4].  A block holds
    five scratch arrays, the weights and four updated in place, freed at its end.
    """
    two_g = 2.0 * kernel.gamma
    rim_z1 = R_out / math.sqrt(2.0) * np.array([1.0, -1.0, 1.0, -1.0])
    rim_z2 = R_out / math.sqrt(2.0) * np.array([1.0, 1.0, -1.0, -1.0])
    cone = math.pi / 4.0 * np.array([3.0, 5.0])
    out = np.empty(s.size)
    for lo, hi in _blocks(s.size, 6 * order):
        S, T = s[lo:hi, None], t[lo:hi, None]
        brk = np.concatenate([np.arctan2(-T, -S),
                              np.arctan2(rim_z2 - T, rim_z1 - S),
                              np.broadcast_to(cone, (S.shape[0], 2))], axis=1)
        sn, w = _panels(np.sort(np.mod(brk, 2.0 * math.pi), axis=1), order)  # then sines
        c = np.cos(sn)
        np.sin(sn, out=sn)
        # rho_a = (S - T) / (sn - c) where sn > c and rho_b = (S + T) / -(sn + c)
        # where sn < -c: the roots of z_2^2 - z_1^2, infinite where there is none
        rho_a = np.subtract(sn, c)
        rho_b = np.add(sn, c)
        np.negative(rho_b, out=rho_b)
        for rho, num in ((rho_a, S - T), (rho_b, S + T)):
            root = rho > 0.0
            np.divide(num, rho, out=rho, where=root)
            np.copyto(rho, np.inf, where=~root)
        # pe = S c + T sn, then rho_disk = sqrt(pe^2 + R_out^2 - |x|^2) - pe in sn
        c *= S
        sn *= T
        c += sn
        np.multiply(c, c, out=sn)
        sn += R_out ** 2 - S ** 2 - T ** 2
        np.sqrt(sn, out=sn)
        sn -= c
        # rho_lo in c, rho_hi in rho_a
        np.minimum(rho_a, rho_b, out=c)
        np.maximum(rho_a, rho_b, out=rho_a)
        np.minimum(rho_a, sn, out=rho_a)
        # rays that miss W have rho_lo >= rho_hi and a nonpositive difference
        c **= -two_g
        rho_a **= -two_g
        c -= rho_a
        np.maximum(c, 0.0, out=c)
        c *= w
        out[lo:hi] = c.sum(axis=1)
        del sn, w  # else the next block's panels are allocated beside them
    return out * (kernel.c_norm / two_g)


def zero_order_coefficient(kernel: RadialKernel, p, R_out: float,
                           rule: QuadratureRule | None = None,
                           n_phi: int = 160, n_rho: int = 24):
    """The coefficient int_O kbar(x, y*) dy of the odd-sector operator at
    p = (s, t), floats or arrays (a float for scalar input).

    `zero_order_integral` over the octant truncated at R_out (exact rays
    for the fractional kernel at m=1, where rule and n_rho are unused;
    otherwise the polar J form, J on `rule`, on two graded angular panels
    of n_phi // 5 nodes and n_rho nodes in log rho, split at K's kink at
    m=1), plus half the analytic exterior tail.  Comparable to
    |s - t|^(-2 gamma).
    """
    s, t = p
    z = (zero_order_integral(kernel, s, t, R_out, rule, n_phi, n_rho)
         + 0.5 * exterior_tail_coefficient(kernel, s, t, R_out))
    return z if np.ndim(z) else float(z)
