"""Radial kernels and the sqrt-convexity criterion.

A kernel here is a 1-D radial profile r -> K(r) in even dimension n = 2m,
assumed comparable to the standard power law r^(-2m-2*gamma).  The central
question the rest of the package builds on is whether tau -> K(sqrt(tau)) is
strictly convex: that is exactly the condition under which the averaged
kernel of the odd-sector operator is positive.  Every kernel value comes
from the one evaluator `_h` of h(tau) = K(sqrt(tau)): `eval_kernel` calls it
on r^2, `sqrt_profile` on tau, and J on the squared distances it forms.  A
tabulated kernel is sampled only over its table: `RadialKernel.window` cuts
every sampling window to the kernel's `radii`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

FAMILIES = ("fractional", "piecewise-counterexample", "tabulated")

VERDICT_STRICT = "strictly-convex"
VERDICT_NONSTRICT = "convex-nonstrict"
VERDICT_FAILS = "fails"

# relative midpoint-gap tolerance of the convexity check, and the most
# witnesses it reports (all of which kernel-check writes)
_CONVEXITY_TOL = 1e-10
_MAX_WITNESSES = 16


@dataclass(frozen=True)
class RadialKernel:
    """Radial kernel profile: its fields are exactly what determines K.

    family    one of FAMILIES
    gamma     fractional order, in (0, 1)
    m         half-dimension; the ambient space is R^(2m)
    c_norm    dimensionless normalizing multiplier (default 1; the standard
              fractional-Laplacian constant may be supplied instead)
    table     (r, K) samples for family="tabulated" (and no other), stored
              as two tuples of floats so that kernels compare and hash by
              value; interpolated log-log linearly, never extrapolated
    """

    family: str
    gamma: float
    m: int
    c_norm: float = 1.0
    table: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if not (0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma must lie in (0,1), got {self.gamma}")
        if int(self.m) != self.m or self.m < 1:
            raise DomainError(f"m must be an integer >= 1, got {self.m}")
        if not (0.0 < self.c_norm < math.inf):
            raise DomainError(f"need 0 < c_norm < inf, got {self.c_norm}")
        if (self.family == "tabulated") != (self.table is not None):
            raise DomainError("a tabulated kernel requires a table, and no other kernel "
                              f"takes one (family {self.family!r})")
        if self.family == "tabulated":
            r, k = (np.asarray(a, dtype=float) for a in self.table)
            if r.ndim != 1 or r.shape != k.shape or r.size < 2:
                raise DomainError("kernel table needs matching 1-D r,K columns (>= 2 rows)")
            if not (np.all((r > 0) & (k > 0)) and np.all(np.isfinite(r) & np.isfinite(k))):
                raise DomainError("kernel table entries must be positive and finite")
            if np.any(np.diff(r) <= 0):
                raise DomainError("kernel table radii must be strictly increasing")
            object.__setattr__(self, "table", (tuple(r.tolist()), tuple(k.tolist())))

    @property
    def power(self) -> float:
        """Decay exponent 2m + 2*gamma of the comparison power law."""
        return 2.0 * self.m + 2.0 * self.gamma

    @property
    def radii(self) -> tuple[float, float]:
        """Where K may be read: a tabulated kernel's table radii, every r > 0 otherwise."""
        return (self.table[0][0], self.table[0][-1]) if self.table else (0.0, math.inf)

    @property
    def kink(self) -> float | None:
        """Where K has a corner: r = 1 for the counterexample (`_h`), else None."""
        return 1.0 if self.family == "piecewise-counterexample" else None

    def window(self, lo: float, hi: float, squared: bool = False) -> tuple[float, float]:
        """[lo, hi] cut to `radii`, or to their squares for a window in tau = r^2."""
        ends = tuple(r * r for r in self.radii) if squared else self.radii
        cut = (max(lo, ends[0]), min(hi, ends[1]))
        if not cut[0] < cut[1]:
            raise DomainError(f"the kernel is read only over {ends}, which misses [{lo}, {hi}]")
        return cut


def standard_c_norm(gamma: float, m: int) -> float:
    """Normalizing constant of the fractional Laplacian in dimension n = 2m,
    c = 4^gamma gamma Gamma(n/2 + gamma) / (pi^(n/2) Gamma(1 - gamma))."""
    try:
        return (4.0 ** gamma * gamma * math.exp(math.lgamma(m + gamma) - math.lgamma(1.0 - gamma))
                / math.pi ** m)
    except (ValueError, OverflowError):  # a pole of Gamma(1 - gamma) at gamma = 1, 2, ...; huge m
        raise DomainError(f"no standard c_norm at gamma={gamma}, m={m}") from None


def fractional_kernel(gamma: float, m: int, c_norm: float = 1.0) -> RadialKernel:
    return RadialKernel("fractional", gamma, m, c_norm)


def counterexample_kernel(gamma: float, m: int) -> RadialKernel:
    # K r^p is 1 below r = 1, r^p / (10 r^p - 9) above: kernel-check measures 0.1 to 1
    return RadialKernel("piecewise-counterexample", gamma, m)


def tabulated_kernel(r: Sequence[float], k: Sequence[float], gamma: float, m: int,
                     c_norm: float = 1.0) -> RadialKernel:
    return RadialKernel("tabulated", gamma, m, c_norm, table=(r, k))


def _h(kernel: RadialKernel, tau: np.ndarray) -> np.ndarray:
    """h(tau) = K(sqrt(tau)) over an array of checked tau > 0 (q = m + gamma).

    fractional                c_norm * tau^(-q)
    piecewise-counterexample  tau^(-q) on (0,1), 1/(10 tau^q - 9) on [1,inf)
    tabulated                 log-log linear interpolation; outside the table -> DomainError
    """
    q = kernel.power / 2.0
    if kernel.family == "fractional":
        return kernel.c_norm * tau ** -q
    if kernel.family == "piecewise-counterexample":
        tq = tau ** q
        return kernel.c_norm * np.where(tau < 1.0, 1.0 / tq, 1.0 / (10.0 * tq - 9.0))
    r = np.sqrt(tau)
    rt, kt = kernel.table
    if np.any(r < rt[0]) or np.any(r > rt[-1]):
        raise DomainError(f"tabulated kernel queried at r in [{r.min()}, {r.max()}], outside "
                          f"its table [{rt[0]}, {rt[-1]}]; extrapolation is refused")
    return kernel.c_norm * np.exp(np.interp(np.log(r), np.log(rt), np.log(kt)))


def eval_kernel(kernel: RadialKernel, r):
    """Evaluate K(r) = h(r^2) for r > 0 (scalar or array); see `_h`."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("kernel argument must be positive and finite")
    out = _h(kernel, arr * arr)
    return out if arr.ndim else float(out)


def sqrt_profile(kernel: RadialKernel, tau):
    """h(tau) = K(sqrt(tau)), the profile whose convexity is being certified."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0) or not np.all(np.isfinite(tau)):
        raise DomainError("tau must be positive and finite")
    out = _h(kernel, tau)
    return out if tau.ndim else float(out)


def ellipticity_margins(kernel: RadialKernel, r_samples) -> tuple[float, float]:
    """Min and max of K(r) / (c_norm r^(-2m-2gamma)) over the samples.

    This measured pair is the ellipticity the kernel class bounds; no kernel
    declares one.  A tabulated kernel refuses samples past its table.
    """
    r = np.asarray(r_samples, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing kernel gives NaN
        ratio = eval_kernel(kernel, r) / (kernel.c_norm * r ** (-kernel.power))
    return float(ratio.min()), float(ratio.max())


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


# an overflowing kernel gives NaN gaps, which check_sqrt_convexity fails
@np.errstate(over="ignore", invalid="ignore")
def _midpoint_gaps(h: Callable, tau: np.ndarray):
    """Relative midpoint gaps over all grid pairs, vectorized.

    gap(i,j) = h(t_i) + h(t_j) - 2 h((t_i+t_j)/2), normalized by |h(mid)|.
    """
    ht = h(tau)
    iu = np.triu_indices(tau.size, k=1)
    hm = h(0.5 * (tau[iu[0]] + tau[iu[1]]))
    return iu, (ht[iu[0]] + ht[iu[1]] - 2.0 * hm) / np.abs(hm)


@np.errstate(over="ignore", invalid="ignore")
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
    pairs of tau_grid (default: 512 points over [1e-3, 1e3] cut to the
    kernel's `window`, so a tabulated kernel is sampled only over its table).
    With tol = _CONVEXITY_TOL, gaps above tol*|h(mid)| count as strict; gaps
    inside [-tol, tol]*|h(mid)| as tight (verdict "convex-nonstrict" at
    best); any gap below -tol*|h(mid)| fails.  At most _MAX_WITNESSES = 16
    witnesses, the smallest gaps first, are reported.  Near-tight pairs
    trigger one refinement pass of 64 extra points around the offending bracket.

    Independently, consecutive-triple second divided differences are scanned
    for an interval of concavity: a run of >= 3 consecutive negative triples
    certifies one (a single kink can pollute at most two overlapping
    triples, so the piecewise counterexample never certifies an interval).
    """
    if tau_grid is None:
        # an even count keeps the counterexample's breakpoint tau = 1 off the grid
        tau_grid = np.geomspace(*kernel.window(1e-3, 1e3, squared=True), 512)
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
        # sorted, repeats dropped (np.unique would import numpy.ma mid-run)
        tau = np.sort(np.concatenate([tau, extra]))
        tau = tau[np.concatenate([[True], tau[1:] > tau[:-1]])]
        iu, rel = _midpoint_gaps(h, tau)

    fail_idx = np.where(~(rel >= -tol))[0]  # a NaN gap fails too
    tight_idx = np.where(np.abs(rel) <= tol)[0]

    def triples(idx):
        order = idx[np.argsort(rel[idx])]
        return [(float(tau[iu[0][k]]), float(tau[iu[1][k]]), float(rel[k]))
                for k in order[:_MAX_WITNESSES]]

    neg = _second_divided_differences(h, tau) < -tol

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
        concavity_interval=bool(np.any(neg[:-2] & neg[1:-1] & neg[2:])),
    )


def read_columns(path, names: tuple, what: str) -> np.ndarray:
    """The CSV file `path` under the header `names` as a (rows, len(names))
    array; DomainError naming the file unless each row is len(names) numbers."""
    with open(path) as fh:
        header, rows = fh.readline(), [line for line in fh if line.strip()]
    if [c.strip() for c in header.split(",")] != list(names) or not rows:
        raise DomainError(f"{what} {path} needs the header {','.join(names)} and a row")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise DomainError(f"{what} {path}: {exc}") from None
    if table.shape[1] != len(names):
        raise DomainError(f"{what} {path}: need {len(names)} numbers per row")
    return table


def load_kernel_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV kernel table: header r,K, then one (r, K) number pair per row."""
    return tuple(read_columns(path, ("r", "K"), "kernel table").T)
