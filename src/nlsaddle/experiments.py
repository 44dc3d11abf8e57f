"""Desk-scale reproductions: energy-growth exponents and the cutoff
competitor with its hypothesis checks.

The competitor caps the minimizer by a cone-adapted two-level ramp: outside
radius S+2 it keeps u, inside B_S away from the cone it sits at the pure
phase -1, and the transition happens on the annulus and on the strip
{mu dist <= 1} around the cone.  Its energy bounds the minimizer's and its
support of non-pure-phase values has volume ~ S^(2m-1).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError
from .energy import KernelTable, OddProfile, total_energy

# lower bound of the measured Lipschitz constant
_LIPSCHITZ_FLOOR = 0.1
# smallest evaluation radii that energy_scan leaves out of its fit
_FIT_SKIP = 2


def check_scan_radii(S_list, R: float) -> None:
    """energy_scan's radii: _FIT_SKIP + 2 or more distinct radii (the fit
    leaves out the _FIT_SKIP smallest and needs two more), all in [2, R - 4]."""
    rule = (f"need {_FIT_SKIP + 2} or more distinct radii in [2, R - 4] at R={R}, "
            f"got {list(S_list)}")
    if not all(2.0 <= S <= R - 4.0 for S in S_list):
        raise PreconditionError(rule)
    if len(set(S_list)) < _FIT_SKIP + 2:
        raise DomainError(rule)


def check_competitor_s(S: float, R: float) -> None:
    """build_competitor's S: the ramp needs S >= 2, the shell S + 2 < R - 2."""
    if not 2.0 <= S < R - 4.0:
        raise PreconditionError(f"need 2 <= S < R - 4 at R={R}, got {S}")


def radial_ramp(radius, S: float):
    """Two-level radial profile: -1 inside B_(S+1), linear on [S+1, S+2],
    +1 outside."""
    if not S >= 2.0:
        raise DomainError("the ramp is defined for S >= 2")
    r = np.asarray(radius, dtype=float)
    out = np.clip(-1.0 + 2.0 * (r - S - 1.0), -1.0, 1.0)
    return out if r.ndim else float(out)


def cone_ramp(s, t, S: float, mu: float):
    """The cone-adapted ramp: radial_ramp scaled by min(1, mu dist(x, cone))."""
    if not mu > 0.0:
        raise DomainError("mu must be positive")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    d = np.abs(s - t) / math.sqrt(2.0)
    r = np.hypot(s, t)
    return radial_ramp(r, S) * np.minimum(1.0, mu * d)


def measured_lipschitz(profile: OddProfile, radius: float) -> float:
    """Discrete Lipschitz estimate of the profile on B_radius.

    Maximum one-sided difference quotient over axis and diagonal lattice
    edges, together with the direct cone quotient u/dist (which makes
    u <= mu dist hold by construction); floored at 0.1.  An edge across the
    diagonal, where the odd extension vanishes, starts only at a cone-row
    node (j = i - 1), and its quotient |u|/h is below the cone quotient
    |u|/dist = sqrt(2) |u|/h of that node, so it is not taken separately.
    """
    if not radius > 0.0:
        raise DomainError("the Lipschitz radius must be positive")
    grid = profile.grid
    h = grid.h
    vals = profile.values
    k = np.flatnonzero(grid.radius <= radius)
    quotients = [np.abs(vals[k]) / grid.cone_dist[k]]
    for di, dj, dist in ((1, 0, h), (0, 1, h), (1, 1, h * math.sqrt(2.0)),
                         (1, -1, h * math.sqrt(2.0))):
        other = grid.locate(grid.ii[k] + di, grid.jj[k] + dj)
        found = other >= 0
        quotients.append(np.abs(vals[other[found]] - vals[k[found]]) / dist)
    return max(_LIPSCHITZ_FLOOR, max(float(q.max(initial=0.0)) for q in quotients))


@dataclass
class CompetitorReport:
    """build_competitor's checks H1-H5 and their figures, named by the report's JSON keys."""

    S: float
    mu: float
    H1_bounds: bool
    H2_vanishes_on_cone: bool
    H3_matches_on_shell: bool
    H4_pure_phase_core: bool
    H5_lipschitz: bool
    H5_constant: float
    H5_allowed: float
    lipschitz_measured: float
    max_abs_near_cone: float
    shell_mismatch: float

    def all_pass(self) -> bool:
        return (self.H1_bounds and self.H2_vanishes_on_cone and self.H3_matches_on_shell
                and self.H4_pure_phase_core and self.H5_lipschitz)

    def as_dict(self) -> dict:
        return {**asdict(self), "all_pass": self.all_pass()}


def build_competitor(u: OddProfile, S: float, mu: float | None = None
                     ) -> tuple[OddProfile, CompetitorReport]:
    """Cap the profile by the cone-adapted ramp inside B_(S+2) and verify
    the construction's hypotheses on the result.

    H1: -1 <= w <= 1.       H2: w -> 0 at the cone (|w| <= C d near it).
    H3: w = u on the shell at |x| = S+2.   H4: w = -1 on B_S cap {mu d > 1}.
    H5: Lipschitz with the 1/dist-weighted bound across the strip boundary.
    """
    grid = u.grid
    check_competitor_s(S, grid.R)
    lip_u = measured_lipschitz(u, S + 3.0)
    if mu is None:
        mu = lip_u
    if not mu > 0.0:
        raise PreconditionError("mu must be positive")
    h = grid.h
    d = grid.cone_dist
    r = grid.radius
    # nodes of the band |r - (S+2)| <= h/2 stand for the shell, where the
    # radial ramp is 1 but its cell-centre value inside the sphere drops to
    # 1 - h; there the cap uses the continuum value min(1, mu d), so H3 still
    # asks u <= mu d on the shell
    shell = np.abs(r - (S + 2.0)) <= 0.5 * h
    psi = np.where(shell, np.minimum(1.0, mu * d), cone_ramp(grid.s, grid.t, S, mu))
    capped = r <= S + 2.0
    w_vals = np.where(capped, np.minimum(u.values, psi), u.values)
    w = OddProfile(grid, w_vals)

    h1 = bool((w_vals >= -1.0 - 1e-12).all() and (w_vals <= 1.0 + 1e-12).all())

    near = d <= 2.0 * h
    max_near = float(np.abs(w_vals[near]).max(initial=0.0))
    h2 = bool(max_near <= max(mu, lip_u) * (2.0 * h + 0.5 * h) + 1e-12)

    mismatch = float(np.abs(w_vals[shell] - u.values[shell]).max(initial=0.0))
    h3 = bool(mismatch == 0.0)

    core = (r <= S) & (mu * d > 1.0)
    h4 = bool(np.allclose(w_vals[core], -1.0))

    # weighted Lipschitz bound across the strip boundary, sampled over pairs
    h5_allowed = max(4.0, 2.0 * (2.0 + mu) / mu) * 1.1
    rng = np.random.default_rng(7)
    in_ball = np.where(r <= S + 1.0)[0]
    hi_side = in_ball[mu * d[in_ball] >= 1.0]
    lo_side = in_ball[mu * d[in_ball] <= 1.0]
    c_meas = 0.0
    if hi_side.size and lo_side.size:
        xs = rng.choice(hi_side, size=min(4000, hi_side.size * lo_side.size))
        ys = rng.choice(lo_side, size=xs.size)
        dv = np.abs(w_vals[xs] - w_vals[ys])
        sep = np.hypot(grid.s[xs] - grid.s[ys], grid.t[xs] - grid.t[ys])
        ok = sep > 0
        c_meas = float(np.max(dv[ok] * d[xs][ok] / sep[ok])) if ok.any() else 0.0
    h5 = bool(c_meas <= h5_allowed)

    report = CompetitorReport(S=S, mu=float(mu), H1_bounds=h1,
                              H2_vanishes_on_cone=h2, H3_matches_on_shell=h3,
                              H4_pure_phase_core=h4, H5_lipschitz=h5,
                              H5_constant=c_meas, H5_allowed=h5_allowed,
                              lipschitz_measured=lip_u,
                              max_abs_near_cone=max_near, shell_mismatch=mismatch)
    return w, report


@dataclass
class ScalingReport:
    S_values: list
    energies: list
    kinetic: list
    potential: list
    slope: float
    intercept: float
    theoretical_exponent: float
    regime: str
    fit_residual: float
    log_flatness: float | None = None
    flatness_ratios: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def theoretical_growth(gamma: float, m: int) -> tuple[float, str]:
    if gamma < 0.5:
        return 2.0 * m - 2.0 * gamma, "subcritical"
    if gamma == 0.5:
        return 2.0 * m - 1.0, "critical-log"
    return 2.0 * m - 1.0, "supercritical"


def energy_scan(profile: OddProfile, S_list, table: KernelTable) -> ScalingReport:
    """Allen-Cahn energies over B_S and the log-log growth fit (the
    _FIT_SKIP smallest S are left out of the fit to suppress near-core
    transients); the radii must pass `check_scan_radii`."""
    S_list = sorted(float(S) for S in S_list)
    check_scan_radii(S_list, profile.grid.R)
    breakdowns = [total_energy(profile, S, table) for S in S_list]
    totals = [b.total for b in breakdowns]
    kin = [b.kinetic_in_in + b.kinetic_in_out for b in breakdowns]
    pot = [b.potential for b in breakdowns]
    fit_S = np.log(S_list[_FIT_SKIP:])
    fit_E = np.log(totals[_FIT_SKIP:])
    slope, intercept = np.polyfit(fit_S, fit_E, 1)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], fit_S) - fit_E) ** 2)))
    gamma = table.kernel.gamma
    m = table.kernel.m
    theo, regime = theoretical_growth(gamma, m)
    flat = None
    ratios = []
    if regime == "critical-log":
        arr = np.array(totals) / (np.array(S_list) ** (2 * m - 1) * np.log(S_list))
        ratios = [float(x) for x in arr]
        flat = float((arr.max() - arr.min()) / arr.mean())
    return ScalingReport(S_values=S_list, energies=totals, kinetic=kin,
                         potential=pot, slope=float(slope), intercept=float(intercept),
                         theoretical_exponent=theo, regime=regime,
                         fit_residual=resid, log_flatness=flat,
                         flatness_ratios=ratios)
