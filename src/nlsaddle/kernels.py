"""Radial kernels, the sqrt-convexity criterion, and the quadruple oracles.

A kernel here is a 1-D radial profile r -> K(r) in even dimension n = 2m,
assumed comparable to the standard power law r^(-2m-2*gamma).  The central
question the rest of the package builds on is whether tau -> K(sqrt(tau)) is
strictly convex: that is exactly the condition under which the averaged
kernel of the odd-sector operator is positive.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, PreconditionError

FAMILIES = ("fractional", "piecewise-counterexample", "tabulated")

VERDICT_STRICT = "strictly-convex"
VERDICT_NONSTRICT = "convex-nonstrict"
VERDICT_FAILS = "fails"

# relative midpoint-gap tolerance of the convexity check, and the most
# witnesses it reports
_CONVEXITY_TOL = 1e-10
_MAX_WITNESSES = 32


@dataclass(frozen=True)
class RadialKernel:
    """Radial kernel profile with its ellipticity parameters.

    family    one of FAMILIES
    gamma     fractional order, in (0, 1)
    m         half-dimension; the ambient space is R^(2m)
    lam, Lam  ellipticity constants, 0 < lam <= Lam
    c_norm    dimensionless normalizing multiplier (default 1; the standard
              fractional-Laplacian constant may be supplied instead)
    table     (r, K) samples for family="tabulated"; interpolated
              log-log linearly, never extrapolated
    """

    family: str
    gamma: float
    m: int
    lam: float = 1.0
    Lam: float = 1.0
    c_norm: float = 1.0
    table: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if not (0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma must lie in (0,1), got {self.gamma}")
        if int(self.m) != self.m or self.m < 1:
            raise DomainError(f"m must be an integer >= 1, got {self.m}")
        if not (0.0 < self.lam <= self.Lam):
            raise DomainError(f"need 0 < lambda <= Lambda, got {self.lam}, {self.Lam}")
        if self.c_norm <= 0.0:
            raise DomainError(f"c_norm must be positive, got {self.c_norm}")
        if self.family == "tabulated":
            if self.table is None:
                raise DomainError("tabulated kernel requires a table")
            r, k = (np.asarray(a, dtype=float) for a in self.table)
            if r.ndim != 1 or r.shape != k.shape or r.size < 2:
                raise DomainError("kernel table needs matching 1-D r,K columns (>= 2 rows)")
            if np.any(r <= 0) or np.any(k <= 0):
                raise DomainError("kernel table entries must be positive")
            if np.any(np.diff(r) <= 0):
                raise DomainError("kernel table radii must be strictly increasing")
            object.__setattr__(self, "table", (r, k))

    @property
    def power(self) -> float:
        """Decay exponent 2m + 2*gamma of the comparison power law."""
        return 2.0 * self.m + 2.0 * self.gamma


def standard_c_norm(gamma: float, m: int) -> float:
    """Normalizing constant of the fractional Laplacian in dimension n = 2m,
    c = 4^gamma gamma Gamma(n/2 + gamma) / (pi^(n/2) Gamma(1 - gamma))."""
    n = 2 * m
    return float(4.0 ** gamma * gamma
                 * np.exp(gammaln(n / 2.0 + gamma) - gammaln(1.0 - gamma))
                 / np.pi ** (n / 2.0))


def fractional_kernel(gamma: float, m: int, c_norm: float = 1.0) -> RadialKernel:
    return RadialKernel("fractional", gamma, m, 1.0, 1.0, c_norm)


def counterexample_kernel(gamma: float, m: int) -> RadialKernel:
    # On [1, inf) the profile 1/(10 r^p - 9) sits between r^-p/10 and r^-p.
    return RadialKernel("piecewise-counterexample", gamma, m, lam=0.1, Lam=1.0)


def tabulated_kernel(r: Sequence[float], k: Sequence[float], gamma: float, m: int,
                     lam: float = 1.0, Lam: float = 1.0, c_norm: float = 1.0) -> RadialKernel:
    return RadialKernel("tabulated", gamma, m, lam, Lam, c_norm,
                        table=(np.asarray(r, float), np.asarray(k, float)))


def eval_kernel(kernel: RadialKernel, r):
    """Evaluate K(r) for r > 0 (scalar or array).

    fractional                c_norm * r^(-2m-2*gamma)
    piecewise-counterexample  r^(-2m-2*gamma) on (0,1), 1/(10 r^(2m+2*gamma) - 9) on [1,inf)
    tabulated                 log-log linear interpolation; outside the table -> DomainError
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("kernel argument must be positive and finite")
    p = kernel.power
    if kernel.family == "fractional":
        out = kernel.c_norm * arr ** (-p)
    elif kernel.family == "piecewise-counterexample":
        rp = arr ** p
        out = kernel.c_norm * np.where(arr < 1.0, 1.0 / rp, 1.0 / (10.0 * rp - 9.0))
    else:
        rt, kt = kernel.table
        if np.any(arr < rt[0]) or np.any(arr > rt[-1]):
            raise DomainError(
                f"tabulated kernel queried at r outside [{rt[0]}, {rt[-1]}]; "
                "extrapolation is refused")
        out = kernel.c_norm * np.exp(np.interp(np.log(arr), np.log(rt), np.log(kt)))
    return out if arr.ndim else float(out)


def sqrt_profile(kernel: RadialKernel, tau):
    """h(tau) = K(sqrt(tau)), the profile whose convexity is being certified."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0):
        raise DomainError("tau must be positive")
    return eval_kernel(kernel, np.sqrt(tau))


def ellipticity_margins(kernel: RadialKernel, r_samples) -> tuple[float, float]:
    """Min and max of K(r) / (c_norm r^(-2m-2gamma)) over the samples.

    The kernel class requires the pair to sit inside [lam, Lam].
    """
    r = np.asarray(r_samples, dtype=float)
    ratio = eval_kernel(kernel, r) / (kernel.c_norm * r ** (-kernel.power))
    return float(ratio.min()), float(ratio.max())


def default_tau_grid(n: int = 512, lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    """Geometric grid; n even so that tau = 1 is never a grid point (kernels of
    interest have their breakpoint there)."""
    return np.geomspace(lo, hi, n)


@dataclass
class ConvexityReport:
    """Outcome of the sampled midpoint-convexity check.

    verdict    "strictly-convex" | "convex-nonstrict" | "fails"
    witnesses  (tau1, tau2, relative midpoint gap) triples where the
               inequality fails (gap < -tol) or is tight (|gap| <= tol)
    """

    verdict: str
    witnesses: list = field(default_factory=list)
    n_pairs: int = 0
    n_fail: int = 0
    n_tight: int = 0
    min_rel_gap: float = np.inf
    concavity_interval: bool = False
    concave_triples: int = 0

    def __post_init__(self):
        if self.verdict == VERDICT_FAILS and not self.witnesses:
            raise ValueError("a failing report must carry at least one witness")


def _midpoint_gaps(h: Callable, tau: np.ndarray):
    """Relative midpoint gaps over all grid pairs, vectorized.

    gap(i,j) = h(t_i) + h(t_j) - 2 h((t_i+t_j)/2), normalized by |h(mid)|.
    """
    ht = h(tau)
    t1 = tau[:, None]
    t2 = tau[None, :]
    mid = 0.5 * (t1 + t2)
    iu = np.triu_indices(tau.size, k=1)
    mids = mid[iu]
    gaps = ht[iu[0]] + ht[iu[1]] - 2.0 * h(mids)
    rel = gaps / np.abs(h(mids))
    return iu, rel


def _second_divided_differences(h: Callable, tau: np.ndarray) -> np.ndarray:
    """Signed curvature proxy of consecutive grid triples, relative scale."""
    ht = h(tau)
    t0, t1, t2 = tau[:-2], tau[1:-1], tau[2:]
    h0, h1, h2 = ht[:-2], ht[1:-1], ht[2:]
    num = h0 * (t2 - t1) - h1 * (t2 - t0) + h2 * (t1 - t0)
    return num / (np.abs(h0) + np.abs(h1) + np.abs(h2))


def check_sqrt_convexity(kernel: RadialKernel, tau_grid=None) -> ConvexityReport:
    """Sampled verification that h(tau) = K(sqrt(tau)) is strictly convex.

    Evaluates the midpoint inequality h(t1) + h(t2) > 2 h((t1+t2)/2) on all
    grid pairs.  With tol = _CONVEXITY_TOL, gaps above tol*|h(mid)| count as
    strict; gaps inside [-tol, tol]*|h(mid)| as tight (verdict
    "convex-nonstrict" at best); any gap below -tol*|h(mid)| is a failure
    witness, and at most _MAX_WITNESSES witnesses are reported.  Near-tight
    pairs trigger one refinement pass of 64 extra points around the
    offending bracket.

    Independently, consecutive-triple second divided differences are scanned
    for an interval of concavity: a run of >= 3 consecutive negative triples
    certifies one (a single kink can pollute at most two overlapping
    triples, so the piecewise counterexample never certifies an interval).
    """
    if tau_grid is None:
        tau_grid = default_tau_grid()
    tau = np.asarray(tau_grid, dtype=float)
    if tau.size < 3:
        raise DomainError("tau_grid needs at least 3 points")
    if np.any(tau <= 0.0):
        raise DomainError("tau_grid entries must be positive")
    if np.any(np.diff(tau) <= 0.0):
        raise DomainError("tau_grid must be strictly increasing")

    h = lambda x: sqrt_profile(kernel, x)
    tol = _CONVEXITY_TOL

    iu, rel = _midpoint_gaps(h, tau)

    # Refinement pass: 64 points bracketing any near-tight or failing pair.
    near = np.abs(rel) <= 100.0 * tol
    bad = rel < -tol
    refine = near | bad
    if np.any(refine) and tau.size >= 8:
        sel = np.where(refine)[0]
        lo = tau[iu[0][sel]].min()
        hi = tau[iu[1][sel]].max()
        extra = np.geomspace(max(lo * 0.8, tau[0]), min(hi * 1.25, tau[-1]), 64)
        tau = np.unique(np.concatenate([tau, extra]))
        iu, rel = _midpoint_gaps(h, tau)

    fail_idx = np.where(rel < -tol)[0]
    tight_idx = np.where(np.abs(rel) <= tol)[0]

    def triples(idx):
        order = idx[np.argsort(rel[idx])]
        return [(float(tau[iu[0][k]]), float(tau[iu[1][k]]), float(rel[k]))
                for k in order[:_MAX_WITNESSES]]

    dd = _second_divided_differences(h, tau)
    neg = dd < -tol
    runs = 0
    best = 0
    for flag in neg:
        runs = runs + 1 if flag else 0
        best = max(best, runs)

    if fail_idx.size:
        verdict = VERDICT_FAILS
        witnesses = triples(fail_idx)
    elif tight_idx.size:
        verdict = VERDICT_NONSTRICT
        witnesses = triples(tight_idx)
    else:
        verdict = VERDICT_STRICT
        witnesses = []

    return ConvexityReport(
        verdict=verdict,
        witnesses=witnesses,
        n_pairs=int(rel.size),
        n_fail=int(fail_idx.size),
        n_tight=int(tight_idx.size),
        min_rel_gap=float(rel.min()),
        concavity_interval=bool(best >= 3),
        concave_triples=int(neg.sum()),
    )


def abcd_coefficients(alpha: float, beta: float,
                      sx: float, tx: float, sy: float, ty: float):
    """The four bilinear combinations of two orbit points and a rotation pair.

    A = sx*sy*alpha + tx*ty*beta      B = sx*ty*alpha + tx*sy*beta
    C = tx*sy*alpha + sx*ty*beta      D = tx*ty*alpha + sx*sy*beta

    Preconditions: alpha >= |beta|, and both points strictly on the outer
    side of the cone (sx > tx >= 0, sy > ty >= 0).
    """
    if alpha < abs(beta):
        raise PreconditionError(f"need alpha >= |beta|, got {alpha}, {beta}")
    if not (sx > tx >= 0.0 and sy > ty >= 0.0):
        raise PreconditionError("points must satisfy s > t >= 0")
    A = sx * sy * alpha + tx * ty * beta
    B = sx * ty * alpha + tx * sy * beta
    C = tx * sy * alpha + sx * ty * beta
    D = tx * ty * alpha + sx * sy * beta
    return A, B, C, D


@dataclass(frozen=True)
class AbcdReport:
    dominance: bool
    sum_inequality: bool


def abcd_inequalities(A: float, B: float, C: float, D: float) -> AbcdReport:
    """Check |A| >= |B|,|C|,|D| and |A|+|D| >= |B|+|C| (pure arithmetic)."""
    a, b, c, d = abs(A), abs(B), abs(C), abs(D)
    return AbcdReport(dominance=bool(a >= b and a >= c and a >= d),
                      sum_inequality=bool(a + d >= b + c))


def convex_quad_oracle(h: Callable, A: float, B: float, C: float, D: float,
                       rel_slack: float = 1e-12) -> bool:
    """Truth of h(A) + h(D) >= h(B) + h(C) under the quadruple hypotheses.

    Preconditions (part of the contract): A = max{A,B,C,D} and A+D >= B+C;
    h nondecreasing on the sampled range.  Ties are resolved with a small
    relative slack so that exact equality cases (affine h with A+D = B+C)
    do not flip on rounding.
    """
    if not (A >= B and A >= C and A >= D):
        raise PreconditionError("A must be the maximum of the quadruple")
    if A + D < B + C:
        raise PreconditionError("need A + D >= B + C")
    lhs = h(A) + h(D)
    rhs = h(B) + h(C)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return bool(lhs >= rhs - rel_slack * scale)


def load_kernel_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV kernel table: header r,K, then one (r, K) number pair per row."""
    rs, ks = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if [c.strip() for c in next(reader, [])[:2]] != ["r", "K"]:
            raise DomainError(f"kernel table {path} must have header r,K")
        for row in reader:
            try:
                rs.append(float(row[0]))
                ks.append(float(row[1]))
            except (IndexError, ValueError):
                raise DomainError(f"kernel table {path} line {reader.line_num}: "
                                  f"need two numbers r,K, got {row}") from None
    return np.asarray(rs), np.asarray(ks)


def kernel_from_config(section: dict) -> RadialKernel:
    """Build a kernel from a plain-text config section (strings allowed); the
    [kernel] defaults live here, and `c_norm = standard` is `standard_c_norm`.
    A key it does not read is refused."""
    unknown = set(section) - {"family", "gamma", "m", "lambda", "Lambda", "c_norm", "table"}
    if unknown:
        raise DomainError(f"unknown key {', '.join(map(repr, sorted(unknown)))}")

    def read(key, default, cast=float):
        try:
            return cast(section.get(key, default))
        except (TypeError, ValueError):
            raise DomainError(f"{key}: invalid value {section[key]!r}") from None

    family = str(section.get("family", "fractional")).strip()
    gamma, m = read("gamma", 0.5), read("m", 1, int)
    lam = read("lambda", 0.1 if family == "piecewise-counterexample" else 1.0)
    Lam = read("Lambda", 1.0)
    standard = str(section.get("c_norm", "")).strip() == "standard"
    c_norm = standard_c_norm(gamma, m) if standard else read("c_norm", 1.0)
    table = None
    if family == "tabulated":
        path = section.get("table")
        if not path:
            raise DomainError("tabulated kernel requires a 'table' path")
        table = load_kernel_table(path)
    return RadialKernel(family, gamma, m, lam, Lam, c_norm, table=table)
