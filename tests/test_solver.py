from dataclasses import replace

import numpy as np
import pytest

from nlsaddle.errors import ConvergenceError, DomainError
from nlsaddle.kernels import (counterexample_kernel, fractional_kernel, standard_c_norm,
                              tabulated_kernel)
from nlsaddle.energy import (EnergyModel, LatticeConvolution, OddProfile, Potential,
                             allen_cahn, build_grid, build_kernel_table, total_energy,
                             zero_potential, zero_profile)
from nlsaddle.solver import (SolverConfig, _sup_diff, _transfer, continuation,
                             initial_guess, minimize)

KSTD = fractional_kernel(0.5, 1, c_norm=standard_c_norm(0.5, 1))
K1 = fractional_kernel(0.5, 1)  # the kernel of the small_table fixture


def test_initial_guess_values(medium_grid):
    p = initial_guess(medium_grid, mu0=1.0)
    g = medium_grid
    assert p.values.min() >= 0.0 and p.values.max() <= 1.0
    # clamped distance profile away from the boundary
    core = (g.radius <= g.R - 2.0) & (g.cone_dist >= 2.0)
    assert np.allclose(p.values[core], np.minimum(1.0, g.cone_dist[core]))
    near = (g.radius <= g.R - 2.0) & (g.cone_dist <= 0.9)
    assert np.allclose(p.values[near], g.cone_dist[near])


def test_initial_guess_requires_positive_slope(medium_grid):
    with pytest.raises(DomainError):
        initial_guess(medium_grid, mu0=0.0)


def test_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(R=-1, h=0.5, gamma=0.5, m=1)
    with pytest.raises(DomainError):
        SolverConfig(R=8, h=0.5, gamma=1.5, m=1)
    for grad_tol in (float("nan"), 0.0, 1.0, float("inf")):
        with pytest.raises(DomainError, match="grad_tol"):
            SolverConfig(R=8, h=0.5, gamma=0.5, m=1, grad_tol=grad_tol)
    for mu0 in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="mu0"):
            SolverConfig(R=8, h=0.5, gamma=0.5, m=1, mu0=mu0)


def test_zero_potential_zero_init_is_stationary(small_table):
    cfg = SolverConfig(R=small_table.grid.R, h=small_table.grid.h, gamma=0.5, m=1,
                       max_iters=50)
    res = minimize(cfg, fractional_kernel(0.5, 1), zero_potential(),
                   init=zero_profile(small_table.grid), table=small_table)
    assert res.trace.converged
    assert res.trace.n_iters == 0
    assert res.breakdown.total == 0.0
    assert np.all(res.profile.values == 0.0)


def test_solver_stops_on_equation_residual_m2():
    # at m = 2 the orbit weight mu spans a decade on this grid; the stopping
    # rule is on grad / (2 mu) = L u - f(u), not on the mu-weighted gradient
    grid = build_grid(R=1.5, h=0.5, m=2, R_out=2.25)
    kernel = fractional_kernel(0.5, 2, c_norm=standard_c_norm(0.5, 2))
    table = build_kernel_table(grid, kernel)
    cfg = SolverConfig(R=grid.R, h=grid.h, gamma=0.5, m=2, R_out=grid.R_out)
    res = minimize(cfg, kernel, allen_cahn(), table=table)
    assert res.trace.converged
    model = EnergyModel(table, allen_cahn())
    u = model.restrict(res.profile)
    _, grad = model.value_and_grad(u)
    pg = np.abs(u - np.clip(u - grad / (2.0 * model.mu), 0.0, 1.0)).max()
    assert res.trace.pg_norms[-1] == pytest.approx(pg, rel=1e-12)
    assert pg <= cfg.grad_tol * res.trace.pg_norms[0]
    # a solve cut by max_iters reports the residual of the profile it returns
    capped = minimize(replace(cfg, max_iters=3), kernel, allen_cahn(), table=table)
    assert not capped.trace.converged
    u = model.restrict(capped.profile)
    _, grad = model.value_and_grad(u)
    pg = np.abs(u - np.clip(u - grad / (2.0 * model.mu), 0.0, 1.0)).max()
    assert capped.trace.pg_norms[-1] == pytest.approx(pg, rel=1e-12)


@pytest.fixture(scope="module")
def medium_solve(medium_table):
    cfg = SolverConfig(R=8.0, h=0.5, gamma=0.5, m=1, max_iters=3000, grad_tol=1e-7)
    return minimize(cfg, KSTD, allen_cahn(), table=medium_table)


def test_solve_energy_trace_monotone(medium_solve):
    E = np.array(medium_solve.trace.energies)
    assert np.all(np.diff(E) <= 1e-12 * np.abs(E[:-1]) + 1e-12)
    assert medium_solve.trace.converged


def test_solve_bounds_and_nontriviality(medium_solve, medium_table):
    u = medium_solve.profile.values
    assert u.min() >= 0.0 and u.max() <= 1.0
    g = medium_solve.profile.grid
    far = (g.cone_dist >= 2.5) & (g.radius <= 5.0)
    assert u[far].min() > 0.1
    e0 = total_energy(zero_profile(g), g.R, medium_table).total
    assert medium_solve.breakdown.total < e0


def test_solve_interior_strictly_below_one(medium_solve):
    g = medium_solve.profile.grid
    probe = (g.radius <= g.R - 2 * g.h) & (g.cone_dist > 2 * g.h)
    assert medium_solve.profile.values[probe].max() < 1.0


def test_continuation_single_stage_matches_minimize(small_table):
    k = fractional_kernel(0.5, 1, c_norm=standard_c_norm(0.5, 1))
    cfg = SolverConfig(R=small_table.grid.R, h=small_table.grid.h, gamma=0.5, m=1,
                       max_iters=500, grad_tol=1e-7, R_schedule=(small_table.grid.R,))
    stages = continuation(cfg, k)
    cfg2 = SolverConfig(R=small_table.grid.R, h=small_table.grid.h, gamma=0.5, m=1,
                        max_iters=500, grad_tol=1e-7)
    plain = minimize(cfg2, k)
    assert np.allclose(stages[-1].result.profile.values, plain.profile.values, atol=1e-8)


def test_continuation_profiles_stabilize():
    cfg = SolverConfig(R=12.0, h=0.5, gamma=0.5, m=1, max_iters=2000,
                       grad_tol=1e-7, R_schedule=(6.0, 9.0, 12.0))
    stages = continuation(cfg, KSTD)
    diffs = [st.sup_diff_common for st in stages[1:]]
    assert len(diffs) == 2
    assert diffs[1] <= diffs[0]
    # warm-started stages stay close on the common region
    assert not stages[-1].flagged


def test_continuation_comparison_ball_tracks_convergence():
    # the stage movement on B_(R_prev/2) is the same for cold-started solves,
    # so it measures u_R -> u and not the continuation, and it decays in R
    cfg = SolverConfig(R=15.0, h=0.5, gamma=0.5, m=1, max_iters=2000,
                       grad_tol=1e-7, R_schedule=(6.0, 9.0, 12.0, 15.0))
    stages = continuation(cfg, KSTD)
    diffs = [st.sup_diff_common for st in stages[1:]]
    assert diffs[0] > 2.0 * diffs[1] > 4.0 * diffs[2]
    cold9, cold12 = (minimize(replace(cfg, R=R, R_schedule=()), KSTD).profile
                     for R in (9.0, 12.0))
    assert _sup_diff(cold9, cold12, 4.5) == pytest.approx(diffs[1], abs=1e-6)
    # a fixed margin of 2 sees the Dirichlet layer of the R = 9 solve and
    # flags even the two cold-started minimizers
    assert _sup_diff(cold9, cold12, 7.0) > 0.1 * np.abs(cold12.values).max()


def test_transfer_copies_common_cells_and_zeroes_new_ones():
    # the cells of b with 4.2 < |x| <= 6 lie in B_R of b but off the grid of
    # a, and the last node of a lies in B_R of a, so that a miss read as
    # index -1 would show
    a, b = build_grid(4.15, 0.5, 1, R_out=4.2), build_grid(6.0, 0.5, 1)
    assert a.inside(a.R)[-1]
    rng = np.random.default_rng(2)
    for src, dst in ((a, b), (b, a)):
        p = OddProfile(src, rng.uniform(0.1, 1.0, src.n_nodes))
        index = src.node_index()
        cells = list(zip(dst.ii.tolist(), dst.jj.tolist()))
        common = np.array([c in index for c in cells])
        got = _transfer(p, dst).values
        want = np.array([p.values[index[c]] if c in index else 0.0 for c in cells])
        keep = dst.inside(dst.R)
        assert np.array_equal(got, np.where(keep, want, 0.0))
        assert (got[common & keep] > 0.0).any()
        assert (~common & keep).any() == (dst is b)


def test_continuation_requires_increasing_schedule():
    # R = 7 with the schedule 5, 8 solved at R = 8 and wrote a profile that
    # the R = 7 grid of energy-scan could not read
    for R, schedule in ((8.0, (8.0, 6.0)), (7.0, (5.0, 8.0)), (7.0, (5.0, 6.0)),
                        (7.0, (7.0, 7.0)), (7.0, (5.0, float("nan"), 7.0))):
        with pytest.raises(DomainError, match="R_schedule"):
            SolverConfig(R=R, h=0.5, gamma=0.5, m=1, R_schedule=schedule)
    assert SolverConfig(R=7.0, h=0.5, gamma=0.5, m=1, R_schedule=(5.0, 7.0)).R == 7.0


def test_minimize_carries_an_init_from_a_smaller_grid():
    cfg = SolverConfig(R=6.0, h=0.5, gamma=0.5, m=1, max_iters=20)
    small = build_grid(4.0, 0.5, 1)
    init = OddProfile(small, np.random.default_rng(5).uniform(0.0, 1.0, small.n_nodes))
    carried = minimize(cfg, KSTD, init=init)
    want = minimize(cfg, KSTD, init=_transfer(init, carried.table.grid),
                    table=carried.table)
    assert carried.trace.energies == want.trace.energies
    assert np.array_equal(carried.profile.values, want.profile.values)


def test_minimize_refuses_an_init_with_another_h_or_m(small_table):
    R, h = small_table.grid.R, small_table.grid.h
    cfg = SolverConfig(R=R, h=h, gamma=0.5, m=1)
    for grid in (build_grid(R, 0.25, 1), build_grid(R, h, 2)):
        with pytest.raises(DomainError, match="init"):
            minimize(cfg, K1, init=zero_profile(grid), table=small_table)


def test_minimize_refuses_a_config_for_another_kernel():
    cfg = SolverConfig(R=4.0, h=0.5, gamma=0.5, m=1)
    for kernel in (fractional_kernel(0.25, 2), fractional_kernel(0.25, 1),
                   fractional_kernel(0.5, 2)):
        with pytest.raises(DomainError, match="kernel"):
            minimize(cfg, kernel)


def test_minimize_refuses_a_table_for_another_grid(small_table):
    # the table's grid used to be solved on silently
    g = small_table.grid
    k2 = fractional_kernel(0.5, 2)
    for cfg, kernel in ((SolverConfig(R=3.0, h=g.h, gamma=0.5, m=1), K1),
                        (SolverConfig(R=g.R, h=0.25, gamma=0.5, m=1), K1),
                        (SolverConfig(R=g.R, h=g.h, gamma=0.5, m=2), k2),
                        (SolverConfig(R=g.R, h=g.h, gamma=0.5, m=1, R_out=5.0), K1)):
        with pytest.raises(DomainError, match="table"):
            minimize(cfg, kernel, table=small_table)
    # R_out is compared only when the config sets it
    for R_out in (None, g.R_out):
        cfg = SolverConfig(R=g.R, h=g.h, gamma=0.5, m=1, R_out=R_out, max_iters=1)
        assert minimize(cfg, K1, table=small_table).table is small_table


def test_minimize_refuses_a_table_for_another_kernel(small_table):
    # the table's kernel used to be solved on silently: the config's m and
    # gamma were the only kernel fields compared
    cfg = _small_config(small_table, max_iters=1)
    for kernel in (KSTD, counterexample_kernel(0.5, 1)):
        with pytest.raises(DomainError, match="another kernel"):
            minimize(cfg, kernel, table=small_table)
    # two tabulated kernels compare their columns
    r = np.geomspace(1e-32, 1e4, 65)
    tab = tabulated_kernel(r, r ** -3.0, gamma=0.5, m=1)
    table = build_kernel_table(small_table.grid, tab)
    same = tabulated_kernel(r.copy(), r ** -3.0, gamma=0.5, m=1)
    assert minimize(cfg, same, table=table).table is table
    for kernel in (tabulated_kernel(r, 2.0 * r ** -3.0, gamma=0.5, m=1),
                   tabulated_kernel(r[:-1], r[:-1] ** -3.0, gamma=0.5, m=1), K1):
        with pytest.raises(DomainError, match="another kernel"):
            minimize(cfg, kernel, table=table)
    with pytest.raises(DomainError, match="another kernel"):
        minimize(cfg, tab, table=small_table)


# --- solver exits ------------------------------------------------------------------

def _small_config(table, **kw):
    return SolverConfig(R=table.grid.R, h=table.grid.h, gamma=0.5, m=1, **kw)


def test_minimize_raises_on_a_non_finite_energy(small_table):
    nan_G = Potential(G=lambda u: np.full(np.shape(u), np.nan), f=allen_cahn().f)
    with pytest.raises(ConvergenceError, match="non-finite at iteration 0"):
        minimize(_small_config(small_table), K1, nan_G, table=small_table)


def _uphill(c):
    """G = c u, with f = +c where -G' = -c: every step the model takes raises E."""
    return Potential(G=lambda u: c * np.asarray(u), f=lambda u: np.full(np.shape(u), c))


def test_minimize_accepts_a_flat_step_when_backtracking_is_exhausted(small_table):
    # from u = 5e-4 the slope along the step is about 2000 |E|, so the last
    # trial step 2^-59 raises E by about 4e-15 |E|: above rounding, below the
    # 1e-14 |E| that the solver accepts as flat
    model = EnergyModel(small_table, _uphill(100.0))
    init = model.embed(np.full(model.mu.size, 5e-4))
    res = minimize(_small_config(small_table), K1, _uphill(100.0), init=init,
                   table=small_table)
    E0, E1 = res.trace.energies
    # the step is taken, but the residual stays at 0.9995, far above the tolerance
    assert not res.trace.converged and res.trace.n_iters == 1 and res.trace.steps == []
    assert E0 < E1 <= E0 + 1e-14 * abs(E0)
    assert len(res.trace.pg_norms) == 2


def test_minimize_raises_when_backtracking_cannot_lower_the_energy(small_table):
    # from u = 0, E = 0, so even the last step of 2^-59 raises E above the flat slack
    with pytest.raises(ConvergenceError, match="backtracking exhausted .* iteration 0"):
        minimize(_small_config(small_table), K1, _uphill(100.0),
                 init=zero_profile(small_table.grid), table=small_table)


def test_minimize_stops_when_the_projected_step_rounds_away(small_table):
    # f cancels L u at the init to within rounding, leaving a residual of 1e-9
    # at every free node but one, which sits at 1 and is pushed up by 1e8:
    # the spectral step 1 / max|g| moves no free node, nor does a tenth of it
    zero = EnergyModel(small_table, zero_potential())
    u0 = np.full(zero.mu.size, 0.5)
    u0[0] = 1.0
    lu0 = zero.value_and_grad(u0)[1] / (2.0 * zero.mu)
    t = np.full(u0.size, 1e-9)
    t[0] = -1e8
    skew = Potential(G=zero_potential().G, f=lambda u: lu0 - t)
    res = minimize(_small_config(small_table), K1, skew, init=zero.embed(u0),
                   table=small_table)
    # the residual stays above the tolerance, so the solve is not converged
    assert not res.trace.converged and res.trace.n_iters == 0
    assert res.trace.pg_norms[0] == pytest.approx(1e-9, rel=1e-6)
    assert np.array_equal(res.profile.values, zero.embed(u0).values)


def test_minimize_doubles_the_step_on_negative_curvature(small_table):
    # G = -c u^2 / 2 makes the energy concave, so s . y < 0 after each step;
    # the descent still ends at the corner u = 1 with a non-increasing trace
    c = 1e3
    concave = Potential(G=lambda u: -0.5 * c * np.asarray(u) ** 2, f=lambda u: c * np.asarray(u))
    res = minimize(_small_config(small_table), K1, concave, table=small_table)
    assert res.trace.converged
    assert np.all(np.diff(res.trace.energies) <= 0.0)
    model = EnergyModel(small_table, concave)
    assert np.all(model.restrict(res.profile) == 1.0)


def _descent_reference(config, kernel, table):
    """The descent of `minimize` with a full energy and gradient evaluation,
    value_and_grad, at every trial point: (n_iters, energies).  It steps
    along the residual g / (2 mu), with the Barzilai-Borwein ratio in the
    metric 2 mu."""
    model = EnergyModel(table, allen_cahn())
    u = np.clip(model.restrict(initial_guess(table.grid, config.mu0)), 0.0, 1.0)
    E, g = model.value_and_grad(u)

    def residual(u, g):
        return np.abs(u - np.clip(u - g / (2.0 * model.mu), 0.0, 1.0)).max()

    energies, tol = [E], config.grad_tol * residual(u, g)
    alpha = 1.0 / np.abs(g / (2.0 * model.mu)).max()
    for _ in range(config.max_iters):
        if residual(u, g) <= tol:
            break
        d = np.clip(u - alpha * g / (2.0 * model.mu), 0.0, 1.0) - u
        gd = g @ d
        assert gd < 0.0
        lam = 1.0
        while True:
            E_new, g_new = model.value_and_grad(u + lam * d)
            if E_new <= E + 1e-4 * lam * gd:
                break
            lam *= 0.5
        s, y = lam * d, g_new - g
        u, E, g = u + lam * d, E_new, g_new
        energies.append(E)
        alpha = min(max(s @ (2.0 * model.mu * s) / (s @ y) if s @ y > 0.0 else 2.0 * alpha,
                        1e-10), 1e10)
    return len(energies) - 1, energies


def test_descent_makes_one_operator_product_per_step(monkeypatch):
    # m=1, R=12, h=0.5: the first L u, one L d per step and a fresh L u for
    # the final residual on the free nodes' lattice, and the model's diagonal
    # D mu and the breakdown's four products (three with D, one with P) on the
    # table's: n_iters + 7 convolutions; backtracking trials cost none
    grid = build_grid(12.0, 0.5, 1)
    table = build_kernel_table(grid, KSTD)
    cfg = SolverConfig(R=12.0, h=0.5, gamma=0.5, m=1)
    n_iters, energies = _descent_reference(cfg, KSTD, table)
    calls = []
    convolve = LatticeConvolution.convolve
    monkeypatch.setattr(LatticeConvolution, "convolve",
                        lambda self, *placed: calls.append(1) or convolve(self, *placed))
    res = minimize(cfg, KSTD, table=table)
    assert res.trace.converged
    assert sum(lam < 1.0 for lam in res.trace.steps) > 0  # the line search backtracked
    assert len(calls) == res.trace.n_iters + 7
    # the same descent as with a full evaluation at every trial
    assert res.trace.n_iters == n_iters
    assert np.allclose(res.trace.energies, energies, rtol=1e-12, atol=0.0)


def test_descent_matches_full_evaluation_at_m2(m2_grid):
    kernel = fractional_kernel(0.5, 2, c_norm=standard_c_norm(0.5, 2))
    table = build_kernel_table(m2_grid, kernel)
    cfg = SolverConfig(R=m2_grid.R, h=m2_grid.h, gamma=0.5, m=2, R_out=m2_grid.R_out)
    n_iters, energies = _descent_reference(cfg, kernel, table)
    res = minimize(cfg, kernel, table=table)
    assert sum(lam < 1.0 for lam in res.trace.steps) > 0
    assert res.trace.n_iters == n_iters
    assert np.allclose(res.trace.energies, energies, rtol=1e-12, atol=0.0)
