"""Projected descent on the discrete odd-sector energy.

`continuation` is the only solve driver: a SolverConfig names a schedule
(R alone, or an increasing R_schedule ending at R), and each stage is one
`minimize` on the ball of that radius, warm-started from the stage before.
`minimize` is the one place that turns a config into a grid and a table.
It works over node values constrained to [0, 1] (the sign-rearranged
representative is energetically optimal, so the outer-octant values are
kept nonnegative).  Monotone spectral projected gradient: Barzilai-Borwein
trial steps with Armijo backtracking along the projection arc, so the
energy trace is non-increasing by construction.  The gradient is
g = 2 mu (L u - f(u)), with the orbit weight mu ~ s^(m-1) t^(m-1), so the
descent steps along the residual g / (2 mu), the gradient in the metric
2 mu, which the stopping rule also reads, and takes the Barzilai-Borwein
ratio s . (2 mu s) / s . y in that metric (Birgin, Martinez & Raydan, SIAM
J. Optim. 10, 2000).  A step along g itself would be scaled node by node
by mu, which spans a factor 39 over B_R at m=2, R=4, h=1/2 (96 steps
against 14 in the metric).  At m=1, mu is one constant and the iterates
are those of a step along g.  clip is monotone and 2 mu > 0, so every
g_i d_i of a projected step d is <= 0, and g . d >= 0 only when d is 0
wherever g is not: the projected step vanishes, and it does so for every
step length.  The energy is the quadratic form of L plus the potential,
and L is linear, so the descent carries L u and makes one operator product
per step, L d for its direction d: every backtracking trial reads
L(u + lam d) = L u + lam L d.  A solve of n_iters steps makes n_iters + 2
products: the first L u, one per step, and a fresh L u for the final
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .kernels import RadialKernel
from .energy import (EnergyBreakdown, EnergyModel, Grid, KernelTable, OddProfile,
                     Potential, allen_cahn, build_grid, build_kernel_table,
                     total_energy)

# Armijo sufficient-decrease constant and the bounds on the spectral step
_ARMIJO = 1e-4
_STEP_MIN = 1e-10
_STEP_MAX = 1e10


@dataclass
class SolverConfig:
    R: float
    h: float
    gamma: float
    m: int
    R_out: float | None = None
    max_iters: int = 5000
    grad_tol: float = 1e-6
    R_schedule: tuple = ()
    mu0: float = 1.0
    assume_positive: bool = False

    def __post_init__(self):
        if not (self.R > 0 and self.h > 0 and self.max_iters >= 1):
            raise DomainError("solver config requires positive numeric fields")
        if not (0.0 < self.grad_tol < 1.0):  # relative: 1 or more accepts the initial guess
            raise DomainError(f"grad_tol must lie in (0, 1), got {self.grad_tol}")
        if not (0.0 < self.gamma < 1.0):
            raise DomainError("gamma must lie in (0,1)")
        if not (0.0 < self.mu0 < math.inf):
            raise DomainError("mu0 must be positive and finite")
        sched = tuple(self.R_schedule)
        if sched and not (sched[-1] == self.R and all(b > a for a, b in zip(sched, sched[1:]))):
            raise DomainError("R_schedule must be strictly increasing and end at R")


@dataclass
class SolveTrace:
    energies: list = field(default_factory=list)
    pg_norms: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    converged: bool = False
    n_iters: int = 0


@dataclass
class SolveResult:
    profile: OddProfile
    breakdown: EnergyBreakdown
    trace: SolveTrace
    table: KernelTable


def initial_guess(grid: Grid, mu0: float) -> OddProfile:
    """Clamped-distance ansatz min(1, mu0 d(x)) tapered to zero at |x| = R."""
    if mu0 <= 0.0:
        raise DomainError("mu0 must be positive")
    r = grid.radius
    cutoff = np.clip((grid.R - r) / 2.0, 0.0, 1.0)
    vals = np.minimum(1.0, mu0 * grid.cone_dist) * cutoff
    return OddProfile(grid, vals)


def _project(u: np.ndarray) -> np.ndarray:
    return np.clip(u, 0.0, 1.0)


def _residual(u: np.ndarray, g: np.ndarray, model: EnergyModel) -> float:
    """Projected sup |L u - f(u)|: the equation's residual, g / (2 mu)."""
    return float(np.abs(u - _project(u - g / (2.0 * model.mu))).max())


def minimize(config: SolverConfig, kernel: RadialKernel, potential: Potential | None = None,
             init: OddProfile | None = None, table: KernelTable | None = None) -> SolveResult:
    """Run the projected descent; the energy trace is strictly non-increasing.

    Converges when the projected residual sup |u - proj(u - (L u - f(u)))|
    (trace.pg_norms; the gradient over 2 mu, so the orbit weight does not
    scale it) falls to grad_tol times its initial value; trace.converged
    says whether the final residual meets that, also when the descent stops
    early on a flat step or where the projected step vanishes.
    Aborts with ConvergenceError on NaN or if backtracking cannot produce a
    non-increasing step.  A table built for another kernel, or on another
    grid than the config's (R, h, m, and R_out when set), is refused; an
    init on another grid with the same h and m is carried over by lattice
    cell (`_transfer`), any other refused.
    """
    if (config.m, config.gamma) != (kernel.m, kernel.gamma):
        raise DomainError(f"solver config has m={config.m}, gamma={config.gamma} but the "
                          f"kernel m={kernel.m}, gamma={kernel.gamma}")
    if potential is None:
        potential = allen_cahn()
    if table is None:
        grid = build_grid(config.R, config.h, config.m, config.R_out)
        table = build_kernel_table(grid, kernel, assume_positive=config.assume_positive)
    elif table.kernel != kernel:
        raise DomainError(f"the table was built for another kernel ({table.kernel.family}) "
                          f"than the solve's ({kernel.family})")
    grid = table.grid
    have = (grid.R, grid.h, grid.m, grid.R_out)
    want = (config.R, config.h, config.m, grid.R_out if config.R_out is None else config.R_out)
    if have != want:
        raise DomainError(f"the table's grid has (R, h, m, R_out) = {have}; "
                          f"the config asks for {want}")
    model = EnergyModel(table, potential)
    if init is None:
        init = initial_guess(grid, config.mu0)
    elif (init.grid.h, init.grid.m) != (grid.h, grid.m):
        raise DomainError(f"init lies on a grid with h={init.grid.h}, m={init.grid.m}; "
                          f"the solve's has h={grid.h}, m={grid.m}")
    u = _project(model.restrict(_transfer(init, grid)))

    trace = SolveTrace()
    lu = model.apply_L(u)
    E, g = model.value_and_grad_from(u, lu)
    tol = max(config.grad_tol * _residual(u, g, model), 1e-300)
    trace.energies.append(E)
    metric = 2.0 * model.mu
    alpha = 1.0 / max(1e-12, float(np.abs(g / metric).max()))

    for it in range(config.max_iters):
        pg = _residual(u, g, model)
        trace.pg_norms.append(pg)
        if pg <= tol:
            break
        d = _project(u - alpha * g / metric) - u
        gd = float((g * d).sum())  # no 1-D `@`, see value_and_grad_from
        if gd >= 0.0:  # the projected step vanishes
            break
        ld = model.apply_L(d)
        lam = 1.0
        accepted = False
        for _ in range(60):
            u_new, lu_new = u + lam * d, lu + lam * ld
            E_new, g_new = model.value_and_grad_from(u_new, lu_new)
            if not math.isfinite(E_new):
                raise ConvergenceError(f"energy became non-finite at iteration {it}")
            if E_new <= E + _ARMIJO * lam * gd:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if E_new <= E + 1e-14 * abs(E):
                u, lu, E, g = u_new, lu_new, E_new, g_new
                trace.energies.append(E)
                break
            raise ConvergenceError(
                f"backtracking exhausted with increasing energy at iteration {it}")
        s = u_new - u
        y = g_new - g
        u, lu, E, g = u_new, lu_new, E_new, g_new
        trace.energies.append(E)
        trace.steps.append(lam)
        sy = float((s * y).sum())
        if sy > 0.0:
            alpha = float((s * (metric * s)).sum()) / sy
        else:
            alpha *= 2.0
        alpha = min(max(alpha, _STEP_MIN), _STEP_MAX)
    # the final residual from a fresh product, free of the rounding that
    # L u + lam L d carries from step to step: that of the returned profile
    g = model.value_and_grad(u)[1]
    if len(trace.pg_norms) == len(trace.energies):
        trace.pg_norms.pop()
    trace.pg_norms.append(_residual(u, g, model))
    trace.converged = trace.pg_norms[-1] <= tol
    trace.n_iters = len(trace.energies) - 1

    profile = model.embed(u)
    breakdown = total_energy(profile, grid.R, table, potential)
    return SolveResult(profile=profile, breakdown=breakdown, trace=trace, table=table)


@dataclass
class Stage:
    """One stage of a continuation: its solve, and its movement from the stage
    before on the comparison ball (None on the first stage)."""
    result: SolveResult
    sup_diff_common: float | None
    flagged: bool


def continuation(config: SolverConfig, kernel: RadialKernel,
                 potential: Potential | None = None) -> list[Stage]:
    """Solve over the schedule (config.R_schedule, or R alone), warm-starting
    each stage from the previous profile extended by zero; returns one Stage
    per radius.  Stages whose profiles move by more than 10% sup-norm on the
    comparison ball B_(min(R_prev, R)/2) are flagged.

    The existence argument takes u_R -> u on compact sets, so the ball's
    distance from the smaller stage's boundary grows with R.  A fixed margin
    (say B_(R_prev - 2)) would instead measure the Dirichlet boundary layer
    of the smaller stage, whose depth does not shrink as R grows.  Any fixed
    fraction of R below 1 has that property; 1/2 keeps the ball as far from
    the boundary as its own radius.  At m=1, gamma=1/2, h=1/2 the movement
    over R = 9, 12, 15 decays geometrically for every fraction from 0.4 to
    0.8.
    """
    stages = []
    for R in config.R_schedule or (config.R,):
        prev = stages[-1].result.profile if stages else None
        result = minimize(replace(config, R=R, R_schedule=()), kernel, potential, init=prev)
        sup_diff, flagged = None, False
        if prev is not None:
            sup_diff = _sup_diff(prev, result.profile, 0.5 * min(prev.grid.R, R))
            flagged = sup_diff > 0.1 * max(float(np.abs(result.profile.values).max()), 1e-30)
        stages.append(Stage(result, sup_diff, flagged))
    return stages


def _transfer(profile: OddProfile, grid: Grid) -> OddProfile:
    """Copy values onto a new grid by lattice cell; new nodes start at 0."""
    k = profile.grid.locate(grid.ii, grid.jj)
    return OddProfile(grid, np.where(k >= 0, profile.values[k], 0.0))


def _sup_diff(p1: OddProfile, p2: OddProfile, radius: float) -> float:
    """sup |p1 - p2| over p1's nodes in B_radius (radius <= p1's R), p2 read as 0 off its grid."""
    inside = p1.grid.radius <= radius
    return float(np.abs(p1.values - _transfer(p2, p1.grid).values)[inside].max(initial=0.0))
