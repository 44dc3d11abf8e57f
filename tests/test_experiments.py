import math

import numpy as np
import pytest

from nlsaddle.errors import DomainError, PreconditionError
from nlsaddle.kernels import fractional_kernel, standard_c_norm
from nlsaddle.doubly_radial import appell_f2, omega_sphere, verify_kernel_inequality
from nlsaddle.energy import (Grid, OddProfile, allen_cahn, build_grid, total_energy,
                             zero_profile)
from nlsaddle.solver import SolverConfig, minimize
from nlsaddle.experiments import (build_competitor, cone_ramp, energy_scan,
                                  measured_lipschitz, radial_ramp, theoretical_growth)


# --- ramps -------------------------------------------------------------------

def test_radial_ramp_branches():
    S = 6.0
    assert radial_ramp(S + 1.5, S) == 0.0
    assert radial_ramp(S, S) == -1.0
    assert radial_ramp(S + 3.0, S) == 1.0
    assert radial_ramp(S + 1.25, S) == pytest.approx(-0.5)


def test_radial_ramp_requires_s_at_least_two():
    with pytest.raises(DomainError):
        radial_ramp(1.0, 1.0)


def test_cone_ramp_branches():
    S, mu = 6.0, 2.0
    d = 0.3  # mu d = 0.6 <= 1: scaled branch
    s = 10.0
    t = s - d * math.sqrt(2.0)
    r = math.hypot(s, t)
    expected = radial_ramp(r, S) * mu * d
    assert cone_ramp(s, t, S, mu) == pytest.approx(expected, rel=1e-12)
    # far from the cone the ramp is unscaled
    assert cone_ramp(9.0, 1.0, S, mu) == pytest.approx(radial_ramp(math.hypot(9, 1), S))


def cutoff_distance(p, S: float, mu: float) -> float:
    """min of the distance to the sphere |x| = S+1 and mu times the cone
    distance, for |p| < S: the competitor's cutoff in the paper's proof."""
    s, t = p
    r = math.hypot(s, t)
    if r >= S:
        raise DomainError("cutoff_distance is defined inside B_S")
    return min(S + 1.0 - r, mu * abs(s - t) / math.sqrt(2.0))


def test_cutoff_distance_example():
    assert cutoff_distance((3, 1), S=10.0, mu=1.0) == pytest.approx(math.sqrt(2.0))
    # near the cone the scaled branch dominates
    assert cutoff_distance((3.0, 2.9), S=10.0, mu=1.0) == pytest.approx(0.1 / math.sqrt(2))
    # large mu hands it to the boundary branch
    assert cutoff_distance((3, 1), S=10.0, mu=1e6) == pytest.approx(11 - math.hypot(3, 1))
    with pytest.raises(DomainError):
        cutoff_distance((11, 1), S=10.0, mu=1.0)


# --- region volume --------------------------------------------------------------

def transition_region_volume(S: float, mu: float, grid: Grid) -> float:
    """Volume of the annulus B_(S+2) minus B_S union the strip
    {mu dist <= 1} inside B_(S+2) (both sides of the cone), where the
    competitor leaves the pure phases.

    Sums the measure of the node cells and of the diagonal half-cells
    {q h <= t < s <= (q+1) h} that the node cells leave uncovered along the
    cone, each counted whole when its centre (centroid for a half-cell) is
    in the region.  The remaining error is that O(h) cell-centre membership
    at |x| = S and |x| = S+2.
    """
    if S < 2.0:
        raise DomainError("S must be >= 2")
    if mu <= 0.0:
        raise DomainError("mu must be positive")

    def measure(s, t, weights):
        r = np.hypot(s, t)
        d = (s - t) / math.sqrt(2.0)
        member = (r <= S + 2.0) & ((r >= S) | (mu * d <= 1.0))
        return weights[member].sum()

    h, m = grid.h, grid.m
    q = np.arange(math.ceil((S + 2.0) / h), dtype=float)
    # orbit volume of half-cell q: half of omega^2 (int s^(m-1) ds)^2 over its square
    half_w = (omega_sphere(m) ** 2 * ((q + 1.0) ** m - q ** m) ** 2
              * h ** (2 * m) / (2.0 * m * m))
    return float(2.0 * (measure(grid.s, grid.t, grid.weights)
                        + measure((q + 2.0 / 3.0) * h, (q + 1.0 / 3.0) * h, half_w)))


@pytest.fixture(scope="module")
def volume_grid():
    return build_grid(R=20.0, h=0.25, m=1, R_out=22.0)


def test_transition_volume_annulus_part(volume_grid):
    # with a huge mu the strip vanishes and only the annulus remains
    for S in (4.0, 8.0):
        vol = transition_region_volume(S, 1e9, volume_grid)
        exact = math.pi * ((S + 2.0) ** 2 - S ** 2)
        assert vol == pytest.approx(exact, rel=0.02)


def test_transition_volume_decreases_in_mu(volume_grid):
    vols = [transition_region_volume(8.0, mu, volume_grid) for mu in (0.5, 1.0, 4.0, 1e9)]
    assert all(a >= b for a, b in zip(vols, vols[1:]))


def test_transition_volume_growth_exponent(volume_grid):
    S_vals = np.array([4.0, 8.0, 16.0])
    vols = [transition_region_volume(S, 1.0, volume_grid) for S in S_vals]
    slope = np.polyfit(np.log(S_vals), np.log(vols), 1)[0]
    assert abs(slope - 1.0) <= 0.15


# --- competitor ------------------------------------------------------------------

@pytest.fixture(scope="module")
def saddle_run(medium_table):
    k = fractional_kernel(0.5, 1, c_norm=standard_c_norm(0.5, 1))
    cfg = SolverConfig(R=8.0, h=0.5, gamma=0.5, m=1, max_iters=3000, grad_tol=1e-7)
    return minimize(cfg, k, allen_cahn(), table=medium_table)


def test_competitor_hypotheses(saddle_run, medium_table):
    w, rep = build_competitor(saddle_run.profile, S=3.5)
    assert rep.all_pass(), rep.as_dict()
    g = saddle_run.profile.grid
    # H4 mechanism: a node deep inside with mu d > 1 sits at the pure phase
    core = (g.radius <= rep.S) & (rep.mu * g.cone_dist > 1.0)
    if core.any():
        assert np.allclose(w.values[core], -1.0)
    # H3 mechanism: on the matching shell the competitor equals the profile
    shell = np.abs(g.radius - (rep.S + 2.0)) <= 0.5 * g.h
    assert np.array_equal(w.values[shell], saddle_run.profile.values[shell])


def test_competitor_h3_fails_for_small_mu(saddle_run):
    # on the shell the cap is min(1, mu d): a mu below u/d there breaks w = u
    u = saddle_run.profile
    g = u.grid
    S, mu = 3.5, 0.2
    w, rep = build_competitor(u, S=S, mu=mu)
    assert not rep.H3_matches_on_shell
    inner_shell = (np.abs(g.radius - (S + 2.0)) <= 0.5 * g.h) & (g.radius <= S + 2.0)
    excess = np.maximum(u.values - np.minimum(1.0, mu * g.cone_dist), 0.0)[inner_shell]
    assert rep.shell_mismatch == pytest.approx(excess.max(), rel=1e-12)
    assert rep.shell_mismatch > 0.0


def test_competitor_energy_not_below_minimizer(saddle_run, medium_table):
    w, rep = build_competitor(saddle_run.profile, S=3.5)
    g = saddle_run.profile.grid
    e_u = total_energy(saddle_run.profile, g.R, medium_table).total
    e_w = total_energy(w, g.R, medium_table).total
    assert e_w >= e_u - 1e-9 * abs(e_u)


def test_competitor_radius_precondition(saddle_run):
    with pytest.raises(PreconditionError):
        build_competitor(saddle_run.profile, S=4.5)  # S + 4 >= R = 8
    with pytest.raises(PreconditionError):
        build_competitor(saddle_run.profile, S=1.5)  # the ramp needs S >= 2


@pytest.mark.parametrize("call, error", [
    (lambda u: cone_ramp(3.0, 1.0, 2.0, 0.0), DomainError),
    (lambda u: build_competitor(u, S=2.0, mu=-1.0), PreconditionError),
], ids=["ramp-mu", "competitor-mu"])
def test_experiment_input_checks(call, error, medium_grid):
    with pytest.raises(error, match="mu must be positive"):
        call(zero_profile(medium_grid))


@pytest.mark.parametrize("call, error", [
    (lambda u: radial_ramp(3.0, math.nan), DomainError),
    (lambda u: cone_ramp(3.0, 1.0, 2.0, math.nan), DomainError),
    (lambda u: build_competitor(u, S=2.0, mu=math.nan), PreconditionError),
    (lambda u: omega_sphere(math.nan), DomainError),
    (lambda u: verify_kernel_inequality(fractional_kernel(0.5, 2), seed=0, n_samples=math.nan),
     DomainError),
    (lambda u: appell_f2(2.5, 1.0, 1.0, 2.0, 2.0, math.nan, 0.1), DomainError),
    (lambda u: appell_f2(2.5, 1.0, 1.0, 2.0, 2.0, 0.1, math.nan), DomainError),
    (lambda u: measured_lipschitz(u, math.nan), DomainError),
], ids=["ramp-s", "ramp-mu", "competitor-mu", "omega-sphere", "inequality-samples",
        "f2-x", "f2-y", "lipschitz-radius"])
def test_nan_inputs_are_refused(call, error, medium_grid):
    # each ran on with NaN while its guard read the failing condition
    # (`S < 2`, `mu <= 0`, `n_samples < 1`, `x < 0.0`) or there was none:
    # omega_sphere returned nan, verify_kernel_inequality raised numpy's
    # TypeError, appell_f2 a ConvergenceError after 4000 terms, and
    # measured_lipschitz its 0.1 floor
    with pytest.raises(error):
        call(zero_profile(medium_grid))


def test_measured_lipschitz_floor(small_grid):
    p = zero_profile(small_grid)
    assert measured_lipschitz(p, 2.0) == 0.1


def test_measured_lipschitz_single_node_values(medium_grid):
    g = medium_grid
    inner = (g.radius <= 5.0) & (g.ii - g.jj >= 3)
    for k, expected in ((np.flatnonzero(inner)[0], 0.8 / g.h),
                        (np.flatnonzero((g.radius <= 5.0) & (g.ii - g.jj == 1))[2],
                         math.sqrt(2.0) * 0.8 / g.h)):
        vals = np.zeros(g.n_nodes)
        vals[k] = 0.8
        # away from the cone the steepest edge is an axis edge; on the cone
        # row the cone quotient sqrt(2)|u|/h beats |u|/h across the diagonal
        assert measured_lipschitz(OddProfile(g, vals), 6.0) == pytest.approx(expected,
                                                                             rel=1e-14)


def test_measured_lipschitz_dominates_cone_quotient(saddle_run):
    g = saddle_run.profile.grid
    mu = measured_lipschitz(saddle_run.profile, 6.0)
    inside = g.radius <= 6.0
    ratio = saddle_run.profile.values[inside] / np.maximum(g.cone_dist[inside], 1e-12)
    assert mu + 1e-12 >= ratio.max()


# --- scaling scan ------------------------------------------------------------------

def test_theoretical_growth_regimes():
    assert theoretical_growth(0.25, 1) == (1.5, "subcritical")
    assert theoretical_growth(0.5, 1) == (1.0, "critical-log")
    assert theoretical_growth(0.75, 1) == (1.0, "supercritical")
    assert theoretical_growth(0.25, 2) == (3.5, "subcritical")


def test_zero_profile_scan_slope_is_area_law(volume_grid):
    from nlsaddle.energy import build_kernel_table
    tab = build_kernel_table(volume_grid, fractional_kernel(0.5, 1))
    rep = energy_scan(zero_profile(volume_grid), [4, 6, 8, 10, 12], tab)
    assert rep.slope == pytest.approx(2.0, abs=0.05)
    assert rep.regime == "critical-log"


def test_scan_validation(saddle_run, medium_table):
    with pytest.raises(DomainError):
        energy_scan(saddle_run.profile, [2.0, 3.0], medium_table)
    with pytest.raises(PreconditionError):
        energy_scan(saddle_run.profile, [2.0, 3.0, 6.0], medium_table)


def test_scan_needs_two_fitted_radii(saddle_run, medium_table):
    # three radii leave one for the fit once the two smallest are excluded;
    # with four, the fit is the line through the last two
    with pytest.raises(DomainError):
        energy_scan(saddle_run.profile, [2.0, 3.0, 4.0], medium_table)
    rep = energy_scan(saddle_run.profile, [2.0, 3.0, 3.5, 4.0], medium_table)
    E = rep.energies
    assert rep.slope == pytest.approx(math.log(E[3] / E[2]) / math.log(4.0 / 3.5), rel=1e-12)
    assert rep.fit_residual == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("S_list", [[2.0, 2.0, 2.0, 2.0], [2.0, 3.0, 4.0, 4.0],
                                    [2.0, 2.0, 3.0, 4.0]])
def test_scan_counts_distinct_radii(saddle_run, medium_table, S_list):
    # repeated radii give no more fitted points: four entries with fewer than
    # four distinct radii are refused, not fitted with a rank-deficient line
    with pytest.raises(DomainError, match="distinct"):
        energy_scan(saddle_run.profile, S_list, medium_table)
