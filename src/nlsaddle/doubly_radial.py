"""Geometry of the cone {|x'|=|x''|} and the averaged kernels on orbits.

Everything in R^(2m) that is invariant under O(m)xO(m) reduces to the two
orbit radii (s, t) = (|x'|, |x''|).  This module provides the (s,t)-variable
kernel J obtained by integrating K over the two spheres (`j_values`, the one
evaluator of J), the odd-sector kernel difference kbar(x,y) - kbar(x,y*) of
the rotation average kbar = J / |S^(m-1)|^2, its closed hypergeometric form
for the pure power kernel (m >= 2), the zero-order coefficient of the
odd-sector operator, and a randomized verifier for the kernel inequality.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammaln, hyp2f1, roots_jacobi

from .errors import ConvergenceError, DomainError, PreconditionError, SingularityError
from .kernels import RadialKernel, eval_kernel

# orbits per block of the vectorized zero-order integral
_ZERO_ORDER_CHUNK = 16
# Gauss-Legendre nodes per phi panel of the zero-order integral
_ZERO_ORDER_PHI_ORDER = 4
# kernel evaluations per block of j_values
_J_CHUNK = 2 ** 22
# angular and radial nodes of the exterior tail's sphere-slice rule
_TAIL_N_THETA = 48
_TAIL_N_RAD = 32
# relative gap tolerance and order cap of the sampled inequality check
_INEQUALITY_REL_TOL = 1e-8
_INEQUALITY_MAX_ORDER = 256


def _coords(p) -> tuple[float, float]:
    s, t = p
    if s < 0.0 or t < 0.0:
        raise DomainError("orbit radii must be nonnegative")
    return float(s), float(t)


def omega_sphere(m: int) -> float:
    """Surface measure of the unit sphere S^(m-1); counting measure 2 for m=1."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for the spherical weight (1-theta^2)^((m-2)/2) on [-1,1].

    For m = 1 the sphere S^0 is two points and the rule is exact by
    construction.  For m >= 2 these are Gauss-Jacobi nodes; `prefactor`
    carries the constant c_m^2 = |S^(m-2)|^2 of the double spherical integral.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    prefactor: float


def gauss_jacobi_rule(order: int, m: int) -> QuadratureRule:
    if m == 1:
        nodes = np.array([1.0, -1.0])
        weights = np.array([1.0, 1.0])
        return QuadratureRule(2, nodes, weights, 1.0)
    if order < 2:
        raise DomainError("quadrature order must be >= 2")
    a = (m - 2) / 2.0
    nodes, weights = roots_jacobi(order, a, a)
    return QuadratureRule(order, nodes, weights, omega_sphere(m - 1) ** 2)


def weight_integral(m: int) -> float:
    """Exact value of int_{-1}^{1} (1-theta^2)^((m-2)/2) dtheta (m >= 2)."""
    return math.sqrt(math.pi) * math.gamma(m / 2.0) / math.gamma((m + 1) / 2.0)


def j_values(kernel: RadialKernel, s, t, sig, tau, rule: QuadratureRule) -> np.ndarray:
    """Vectorized J(s,t,sigma,tau) over broadcastable arrays.

    J is the double spherical integral of K; for m=1 it is the exact 4-term
    sum over the sign choices, for m>=2 the tensor Gauss-Jacobi sum
    c_m^2 * sum_ij w_i w_j K(r_ij) with the squared distance evaluated as
    r_ij^2 = (s-sig)^2 + (t-tau)^2 + 2 s sig (1-th_i) + 2 t tau (1-th_j).
    Every term is nonnegative, so nothing cancels near the diagonal, the
    form is exact at th = +-1, and it is bit-for-bit symmetric under
    (s,t) <-> (sig,tau).  The 1e-60 floor only keeps exact zeros finite: the
    diagonal entries that `build_kernel_table` computes and then overwrites.
    """
    s, t, sig, tau = np.broadcast_arrays(*(np.asarray(a, float) for a in (s, t, sig, tau)))
    flat = [a.reshape(-1) for a in (s, t, sig, tau)]
    n = flat[0].size
    out = np.empty(n)
    th = rule.nodes
    w = rule.weights
    ww = np.outer(w, w).reshape(-1)
    one_minus = 1.0 - th
    c_i = 2.0 * np.repeat(one_minus, th.size)
    c_j = 2.0 * np.tile(one_minus, th.size)
    step = max(1, _J_CHUNK // max(1, th.size ** 2))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        S, T, SIG, TAU = (f[lo:hi][:, None] for f in flat)
        base = (S - SIG) ** 2 + (T - TAU) ** 2
        r2 = base + (S * SIG) * c_i[None, :] + (T * TAU) * c_j[None, :]
        np.maximum(r2, 1e-60, out=r2)
        vals = eval_kernel(kernel, np.sqrt(r2))
        out[lo:hi] = vals @ ww
    out *= rule.prefactor
    return out.reshape(s.shape)


def _check_pair(p, q):
    ps, pt = _coords(p)
    qs, qt = _coords(q)
    scale = max(ps, pt, qs, qt, 1e-300)
    if abs(ps - qs) <= 1e-14 * scale and abs(pt - qt) <= 1e-14 * scale:
        raise SingularityError("J is singular on the diagonal (s,t) = (sigma,tau)")
    return ps, pt, qs, qt


def kernel_difference(kernel: RadialKernel, p, q,
                      rule: QuadratureRule | None = None) -> float:
    """kbar(x, y) - kbar(x, y*) for orbits strictly on the outer side.

    kbar = J / |S^(m-1)|^2 is the mean of K(|Rx - y|) over O(m)^2, since the
    orbit of x covers the product of spheres uniformly.  Positive whenever
    K(sqrt(.)) is strictly convex.
    """
    s, t, sig, tau = _check_pair(p, q)
    if not (s > t and sig >= tau):
        raise DomainError("kernel_difference requires orbits on the outer side of the cone")
    if sig == tau:
        return 0.0  # J is symmetric under swapping (sigma, tau) there
    if rule is None:
        rule = gauss_jacobi_rule(32, kernel.m)
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
                             rule: QuadratureRule | None = None,
                             r_range=(1e-2, 1e2)) -> InequalityReport:
    """Draw random outer-orbit pairs and count gaps below -tol (relative).

    The gap per pair is J(s,t,sigma,tau) - J(s,t,tau,sigma); for m=1 the
    sums are exact, for m>=2 the quadrature order is doubled on the
    unconverged subset until _INEQUALITY_REL_TOL relative agreement or
    _INEQUALITY_MAX_ORDER.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    xs, xt = sample_outer_orbits(rng, n_samples, r_range)
    ys, yt = sample_outer_orbits(rng, n_samples, r_range)
    # re-draw near-coincident pairs; J is refused on the diagonal
    for _ in range(16):
        coincident = (np.abs(xs - ys) + np.abs(xt - yt)) <= 1e-12 * (xs + ys)
        if not coincident.any():
            break
        k = int(coincident.sum())
        ys[coincident], yt[coincident] = sample_outer_orbits(rng, k, r_range)

    if rule is None:
        rule = gauss_jacobi_rule(32, kernel.m)
    direct = j_values(kernel, xs, xt, ys, yt, rule)
    swapped = j_values(kernel, xs, xt, yt, ys, rule)
    n_unconverged = 0
    if kernel.m >= 2:
        # escalate the quadrature order only on the unconverged subset
        gap = direct - swapped
        unsettled = np.ones(n_samples, dtype=bool)
        cur = rule
        while cur.order < _INEQUALITY_MAX_ORDER and unsettled.any():
            cur = gauss_jacobi_rule(2 * cur.order, kernel.m)
            idx = np.where(unsettled)[0]
            d2 = j_values(kernel, xs[idx], xt[idx], ys[idx], yt[idx], cur)
            s2 = j_values(kernel, xs[idx], xt[idx], yt[idx], ys[idx], cur)
            g2 = d2 - s2
            scale = np.abs(d2) + np.abs(s2)
            settled_now = np.abs(g2 - gap[idx]) <= _INEQUALITY_REL_TOL * scale
            direct[idx] = d2
            swapped[idx] = s2
            gap[idx] = g2
            unsettled[idx] = ~settled_now
        n_unconverged = int(unsettled.sum())

    gap = direct - swapped
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
          + 4.0 * gammaln(m / 2.0) - 2.0 * gammaln(float(m)))
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
    if x < 0.0 or y < 0.0:
        raise DomainError("series arguments must be nonnegative")
    if x + y >= 1.0:
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
    """int_{|y| > R_out} K_env(|x - y|) dy for the power envelope
    K_env = Lam c_norm r^(-2m-2 gamma), vectorized over orbit coordinates.

    Computed by the sphere-slice decomposition, with the radial variable
    substituted so that the integrand is analytic up to r = infinity; the
    result is exact for the power law up to quadrature error.
    """
    s = np.asarray(s, float)
    t = np.asarray(t, float)
    a = np.hypot(s, t)
    if np.any(a >= R_out):
        raise DomainError("tail coefficient requires |x| < R_out")
    m = kernel.m
    n = 2 * m
    p = kernel.power
    gam = kernel.gamma
    # angular slice of S^(n-1) against the first coordinate
    alpha = (n - 3) / 2.0
    th, wth = roots_jacobi(_TAIL_N_THETA, alpha, alpha)
    # radial nodes: v = u^(1/(2 gamma)), r = R_out / v
    ugl, wugl = np.polynomial.legendre.leggauss(_TAIL_N_RAD)
    u = 0.5 * (ugl + 1.0)
    wu = 0.5 * wugl
    v = u ** (1.0 / (2.0 * gam))
    r = R_out / v
    dv = (1.0 / (2.0 * gam)) * u ** (1.0 / (2.0 * gam) - 1.0)
    drdu = R_out / v ** 2 * dv

    A = a.reshape(a.shape + (1, 1))
    Rr = r.reshape((1,) * a.ndim + (_TAIL_N_RAD, 1))
    TH = th.reshape((1,) * a.ndim + (1, _TAIL_N_THETA))
    dist2 = Rr ** 2 + A ** 2 - 2.0 * A * Rr * TH
    avg = (dist2 ** (-p / 2.0) * wth).sum(axis=-1)
    rad = (avg * (r ** (n - 1) * drdu * wu)).sum(axis=-1)
    out = kernel.Lam * kernel.c_norm * omega_sphere(n - 1) * rad
    return out if a.ndim else float(out)


def zero_order_integral(kernel: RadialKernel, s, t, R_out: float,
                        rule: QuadratureRule | None = None,
                        n_phi: int = 160, n_rho: int = 24) -> np.ndarray:
    """int_{O, |y| <= R_out} kbar(x, y*) dy per orbit (s, t), vectorized.

    Integrates J(s,t,b,a) a^(m-1) b^(m-1) over the truncated outer octant
    {0 <= b < a, a^2 + b^2 <= R_out^2} in polar coordinates (rho, phi)
    centered at the reflected orbit (t, s), the only singularity of the
    integrand, which lies outside the region at distance sqrt(2) times the
    cone distance of x.  phi runs over the half-plane arc that can see the
    region in n_phi Gauss-Legendre panels of _ZERO_ORDER_PHI_ORDER nodes;
    along each ray the region is entered at the cone and left at b = 0 or
    at the rim, and log(rho) is integrated with n_rho Gauss-Legendre nodes.
    Nodes are processed _ZERO_ORDER_CHUNK at a time, and only the
    (node, phi) rays that cross the region are evaluated.
    """
    s, t = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
    if not np.all((s > t) & (t >= 0.0)):
        raise DomainError("the zero-order integral requires orbits strictly outside the cone")
    if np.any(np.hypot(s, t) >= R_out):
        raise PreconditionError("need |p| < R_out")
    m = kernel.m
    if rule is None:
        rule = gauss_jacobi_rule(32, m)

    edges = np.linspace(-3.0 * math.pi / 4.0, math.pi / 4.0, n_phi + 1)
    gl, wgl = np.polynomial.legendre.leggauss(_ZERO_ORDER_PHI_ORDER)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    phi = (mid[:, None] + half[:, None] * gl[None, :]).reshape(-1)
    wphi = (half[:, None] * wgl[None, :]).reshape(-1)
    cosp, sinp = np.cos(phi), np.sin(phi)
    cosd = np.cos(phi + math.pi / 4.0)
    xgl, xw = np.polynomial.legendre.leggauss(n_rho)

    flat_s, flat_t = s.reshape(-1), t.reshape(-1)
    out = np.zeros(flat_s.size)
    for lo in range(0, flat_s.size, _ZERO_ORDER_CHUNK):
        hi = min(flat_s.size, lo + _ZERO_ORDER_CHUNK)
        S, T = flat_s[lo:hi, None], flat_t[lo:hi, None]
        delta = (S - T) / math.sqrt(2.0)
        with np.errstate(divide="ignore"):
            # enter through the cone, exit through b = 0 or the disk
            # a^2 + b^2 = R_out^2 (center offset p* = (t, s))
            rho_in = np.where(cosd > 0.0, delta / np.maximum(cosd, 1e-300), np.inf)
            rho_b = np.where(sinp < 0.0, S / np.maximum(-sinp, 1e-300), np.inf)
        pe = T * cosp + S * sinp
        rho_disk = -pe + np.sqrt(pe ** 2 + R_out ** 2 - np.hypot(S, T) ** 2)
        rho_out = np.minimum(rho_b, rho_disk)
        live = rho_in < rho_out * (1.0 - 1e-14)
        node, k = np.nonzero(live)
        xi_lo = np.log(rho_in[live])[:, None]
        xi_hi = np.log(rho_out[live])[:, None]
        xi = 0.5 * (xi_hi + xi_lo) + 0.5 * (xi_hi - xi_lo) * xgl[None, :]
        wxi = 0.5 * (xi_hi - xi_lo) * xw[None, :]
        rho = np.exp(xi)
        aa = T[node] + rho * cosp[k][:, None]
        bb = S[node] + rho * sinp[k][:, None]
        vals = j_values(kernel, S[node], T[node], bb, aa, rule)
        if m > 1:
            vals = vals * aa ** (m - 1) * bb ** (m - 1)
        # measure rho drho dphi, with drho = rho dxi
        ray = (vals * rho ** 2 * wxi).sum(axis=1) * wphi[k]
        out[lo:hi] = np.bincount(node, weights=ray, minlength=hi - lo)
    return out.reshape(s.shape)


def zero_order_coefficient(kernel: RadialKernel, p, R_out: float,
                           rule: QuadratureRule | None = None,
                           n_phi: int = 160, n_rho: int = 24):
    """The coefficient int_O kbar(x, y*) dy of the odd-sector operator at
    p = (s, t), floats or arrays (a float for scalar input).

    `zero_order_integral` over the octant truncated at R_out, plus half the
    analytic exterior tail.  Comparable to |s - t|^(-2 gamma) from both
    sides.
    """
    s, t = p
    z = (zero_order_integral(kernel, s, t, R_out, rule, n_phi, n_rho)
         + 0.5 * exterior_tail_coefficient(kernel, s, t, R_out))
    return z if np.ndim(z) else float(z)
