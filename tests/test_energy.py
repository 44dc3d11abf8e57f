import math

import numpy as np
import pytest

from nlsaddle.errors import DomainError, PreconditionError, TableError
from nlsaddle.kernels import counterexample_kernel, fractional_kernel
from nlsaddle.doubly_radial import (gauss_jacobi_rule, j_values, kernel_difference,
                                    omega_sphere, zero_order_coefficient)
from nlsaddle.energy import (EnergyModel, Grid, OddProfile, allen_cahn, build_grid,
                             build_kernel_table, interaction, load_profile,
                             save_profile, total_energy, truncate_profile,
                             zero_potential, zero_profile)

K1 = fractional_kernel(0.5, 1)


# --- grid --------------------------------------------------------------------

def test_build_grid_example():
    g = build_grid(R=4, h=1.0, m=1, R_out=6.0)
    assert np.all(g.weights == 4.0)          # omega_0^2 = 4, s^0 t^0 = 1
    assert np.all(g.t < g.s)
    assert g.t.min() == 0.5 and g.s.min() == 1.5
    assert np.all(g.s ** 2 + g.t ** 2 <= 36.0 + 1e-12)


def test_weight_formula_m2():
    g = build_grid(R=4, h=1.0, m=2, R_out=6.0)
    k = np.argmin(np.abs(g.s - 2.5) + np.abs(g.t - 0.5))
    assert g.weights[k] == pytest.approx((2 * math.pi) ** 2 * 2.5 * 0.5, rel=1e-12)


def test_build_grid_validation():
    with pytest.raises(DomainError):
        build_grid(R=4, h=4.0, m=1, R_out=6.0)
    with pytest.raises(DomainError):
        build_grid(R=4, h=0.5, m=1, R_out=3.0)


def test_grid_default_extent():
    g = build_grid(R=4, h=0.5, m=1)
    assert g.R_out == 6.0


@pytest.mark.parametrize("name", ["small_grid", "medium_grid", "m2_grid"])
def test_locate_agrees_with_node_index(name, request):
    g = request.getfixturevalue(name)
    assert np.array_equal(g.locate(g.ii, g.jj), np.arange(g.n_nodes))
    index = g.node_index()
    box = np.arange(-2, int(g.ii[-1]) + 3)
    want = np.array([[index.get((a, b), -1) for b in box.tolist()] for a in box.tolist()])
    assert np.array_equal(g.locate(box[:, None], box[None, :]), want)
    # the cells the grid lacks: cone, superdiagonal, negative, beyond R_out
    assert np.all(g.locate(box, box) == -1) and np.all(g.locate(box, box + 1) == -1)
    assert np.all(g.locate(-1, box) == -1) and np.all(g.locate(box, -1) == -1)
    ii, jj = np.meshgrid(box, box, indexing="ij")
    beyond = (jj < ii) & (jj >= 0) & (np.hypot(ii + 0.5, jj + 0.5) * g.h > g.R_out)
    assert beyond.any() and np.all(g.locate(ii[beyond], jj[beyond]) == -1)
    k = g.n_nodes // 2
    assert g.locate(int(g.ii[k]), int(g.jj[k])) == k
    assert g.locate(3, 3) == -1 and g.locate(0, -1) == -1


# --- profiles ------------------------------------------------------------------

def test_profile_zeroed_outside_support(small_grid):
    vals = np.ones(small_grid.n_nodes)
    p = OddProfile(small_grid, vals)
    outside = small_grid.radius > small_grid.R
    assert np.all(p.values[outside] == 0.0)
    assert np.all(p.values[~outside] == 1.0)


def test_truncation_values(small_grid):
    vals = np.zeros(small_grid.n_nodes)
    vals[:3] = (-0.3, 1.5, 0.7)
    p = truncate_profile(OddProfile(small_grid, vals))
    assert tuple(p.values[:3]) == (0.3, 1.0, 0.7)
    assert p.values.min() >= 0.0 and p.values.max() <= 1.0


def test_profile_csv_roundtrip(tmp_path, small_grid):
    rng = np.random.default_rng(0)
    p = OddProfile(small_grid, rng.uniform(0, 1, small_grid.n_nodes))
    path = tmp_path / "p.csv"
    save_profile(p, path)
    q = load_profile(path, small_grid)
    assert np.array_equal(p.values, q.values)
    save_profile(p, tmp_path / "p2.csv")
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()


def test_profile_csv_rows_load_in_any_order_once_each(tmp_path, small_grid):
    rng = np.random.default_rng(1)
    p = OddProfile(small_grid, rng.uniform(0, 1, small_grid.n_nodes))
    save_profile(p, tmp_path / "p.csv")
    header, *rows = (tmp_path / "p.csv").read_text().splitlines()

    def load(lines):
        path = tmp_path / "q.csv"
        path.write_text("\n".join([header, *lines]) + "\n")
        return load_profile(path, small_grid)

    shuffled = [rows[k] for k in rng.permutation(len(rows))]
    assert np.array_equal(load(shuffled).values, p.values)
    s, t, u = rows[3].split(",")
    bad_rows = [rows[4],                                       # duplicate of row 4
                f"{float(s) + 0.25 * small_grid.h!r},{t},{u}",  # between cells
                f"{t},{s},{u}",                                 # across the cone
                f"nan,{t},{u}",
                f"{s},{t},abc",                                 # not a number
                f"{s},{t}"]                                     # short row
    for bad in bad_rows:
        with pytest.raises(DomainError):
            load(rows[:3] + [bad] + rows[4:])
    with pytest.raises(DomainError):
        load([row.rsplit(",", 1)[0] for row in rows])           # no u column


def test_potential_properties():
    pot = allen_cahn()
    assert pot.G(1.0) == 0.0 and pot.G(-1.0) == 0.0
    assert pot.G(0.0) == 0.25
    for u in np.linspace(-1.2, 1.2, 13):
        fd = (pot.G(u + 1e-6) - pot.G(u - 1e-6)) / 2e-6
        assert fd == pytest.approx(-pot.f(u), abs=1e-6)
        assert pot.G(u) == pytest.approx(pot.G(-u), rel=1e-12)


# --- kernel table ----------------------------------------------------------------

def test_table_symmetry(small_table):
    assert np.abs(small_table.D - small_table.D.T).max() < 1e-12
    assert np.abs(small_table.P - small_table.P.T).max() < 1e-12


def test_table_differences_positive_10x10():
    g = build_grid(R=10 / 3, h=1 / 3, m=1, R_out=10 * (1 / 3) * math.sqrt(2.01))
    tab = build_kernel_table(g, K1)
    off = ~np.eye(g.n_nodes, dtype=bool)
    assert tab.D[off].min() > 0.0


def test_table_diagonal_entries_refused(small_table, m2_table):
    # the singular kbar(x, x) is not stored: D is 0 on the diagonal, while
    # kbar-star there is finite and stored
    for table in (small_table, m2_table):
        assert np.all(np.diag(table.D) == 0.0)
        assert np.all(np.isfinite(np.diag(table.P))) and np.all(np.diag(table.P) > 0.0)


def test_table_entry_accessors(small_table, m2_table):
    # D[a, b] = kernel_difference and P[a, b] = J(x_a, x_b*) / |S^(m-1)|^2
    for table in (small_table, m2_table):
        g, kernel, rule = table.grid, table.kernel, table.rule
        om2 = omega_sphere(g.m) ** 2
        for a, b in ((0, 5), (5, 0), (3, g.n_nodes - 1), (g.n_nodes - 2, 1)):
            p, q = (g.s[a], g.t[a]), (g.s[b], g.t[b])
            assert table.D[a, b] == pytest.approx(kernel_difference(kernel, p, q, rule),
                                                  rel=1e-12)
            star = float(j_values(kernel, g.s[a], g.t[a], g.t[b], g.s[b], rule)) / om2
            assert table.P[a, b] == pytest.approx(star, rel=1e-12)


def test_table_memory_cap():
    g = build_grid(R=8, h=0.1, m=1, R_out=12.0)
    with pytest.raises(TableError, match="increase h"):
        build_kernel_table(g, K1, mem_cap_gb=0.05)


def test_table_positivity_gate(small_grid):
    bad = counterexample_kernel(0.5, 1)
    with pytest.raises(PreconditionError):
        build_kernel_table(small_grid, bad)
    tab = build_kernel_table(small_grid, bad, assume_positive=True)
    assert tab.zcol.min() > 0.0


def test_zero_order_positive(small_table):
    assert small_table.zero_order.min() > 0.0


def test_table_zero_order_is_zero_order_coefficient(small_grid, small_table):
    zoc = np.array([zero_order_coefficient(K1, (s, t), small_grid.R_out)
                    for s, t in zip(small_grid.s, small_grid.t)])
    assert np.allclose(small_table.zcol + small_table.ztail, zoc, rtol=1e-12, atol=0.0)


def _refined_zero_order(table, idx):
    # n_phi and n_rho doubled, and the J order for m >= 2
    g = table.grid
    rule = gauss_jacobi_rule(64, g.m)
    return np.array([zero_order_coefficient(table.kernel, (g.s[i], g.t[i]), g.R_out,
                                            rule=rule, n_phi=320, n_rho=48) for i in idx])


def test_table_zero_order_matches_refined_integral_m1(medium_table):
    ref = _refined_zero_order(medium_table, range(medium_table.grid.n_nodes))
    assert np.max(np.abs(medium_table.zero_order - ref) / ref) <= 2e-5


def test_table_zero_order_matches_refined_integral_m2():
    grid = build_grid(R=1.5, h=0.5, m=2, R_out=2.25)
    table = build_kernel_table(grid, fractional_kernel(0.5, 2))
    idx = [0, grid.n_nodes - 1]  # (0.75, 0.25) by the origin, (1.75, 1.25) by the cone
    ref = _refined_zero_order(table, idx)
    assert np.max(np.abs(table.zero_order[idx] - ref) / ref) <= 2e-5


# --- interaction -------------------------------------------------------------------

def test_interaction_zero_profile(small_table, small_grid):
    p = zero_profile(small_grid)
    A = np.arange(0, small_grid.n_nodes, 2)
    B = np.arange(1, small_grid.n_nodes, 2)
    assert interaction(p, A, B, small_table) == 0.0


def test_interaction_symmetric(small_table, small_grid):
    rng = np.random.default_rng(1)
    p = OddProfile(small_grid, rng.uniform(0, 1, small_grid.n_nodes))
    A = np.arange(0, small_grid.n_nodes, 2)
    B = np.arange(1, small_grid.n_nodes, 2)
    a = interaction(p, A, B, small_table)
    b = interaction(p, B, A, small_table)
    assert a == pytest.approx(b, rel=1e-12)


def test_interaction_single_pair_example():
    # A = {(2,1)}, B = {(3,1)}, w = 1 on A and 0 on B:
    # I = 2 * diff * mu^2 + 4 * kbar_star * mu^2 with the tabulated entries
    g = build_grid(R=4.2, h=1.0, m=1, R_out=6.0)
    tab = build_kernel_table(g, K1)
    ia = int(np.argmin(np.abs(g.s - 2.5) + np.abs(g.t - 0.5)))
    ib = int(np.argmin(np.abs(g.s - 3.5) + np.abs(g.t - 0.5)))
    w = np.zeros(g.n_nodes)
    w[ia] = 1.0
    p = OddProfile(g, w)
    got = interaction(p, np.array([ia]), np.array([ib]), tab)
    mu2 = g.weights[ia] * g.weights[ib]
    expected = 2.0 * tab.D[ia, ib] * mu2 + 4.0 * tab.P[ia, ib] * mu2
    assert got == pytest.approx(expected, rel=1e-14)
    # and the tabulated entries are the pointwise kernels, kbar = J / 4 at m = 1
    sa, ta = g.s[ia], g.t[ia]
    sb, tb = g.s[ib], g.t[ib]
    assert tab.D[ia, ib] == pytest.approx(
        kernel_difference(K1, (sa, ta), (sb, tb)), rel=1e-12)
    kbar_star = float(j_values(K1, sa, ta, tb, sb, tab.rule)) / 4.0
    assert tab.P[ia, ib] == pytest.approx(kbar_star, rel=1e-12)


def test_interaction_index_validation(small_table, small_grid):
    p = zero_profile(small_grid)
    with pytest.raises(TableError):
        interaction(p, np.array([0, small_grid.n_nodes]), np.array([1]), small_table)


# --- total energy --------------------------------------------------------------------

def test_zero_profile_potential_matches_disk_area(small_grid, small_table):
    bd = total_energy(zero_profile(small_grid), 2.0, small_table)
    # E(0, B_S) = G(0) |B_S| = pi S^2 / 4 up to the cell staircase, O(h)
    assert bd.kinetic_in_in == 0.0 and bd.kinetic_in_out == 0.0
    assert abs(bd.potential - math.pi) <= 1.6 * small_grid.h * math.pi
    assert bd.total == bd.potential


def test_zero_profile_potential_converges_first_order():
    errs = []
    for h in (0.5, 0.25):
        g = build_grid(R=4.0, h=h, m=1, R_out=6.0)
        tab = build_kernel_table(g, K1)
        bd = total_energy(zero_profile(g), 2.0, tab)
        errs.append(abs(bd.potential - math.pi))
    assert errs[1] < errs[0]


def test_energy_monotone_in_radius(small_grid, small_table):
    rng = np.random.default_rng(3)
    p = OddProfile(small_grid, rng.uniform(0, 1, small_grid.n_nodes))
    energies = [total_energy(p, S, small_table).total for S in (1.0, 2.0, 8 / 3, 3.5)]
    assert all(a <= b + 1e-12 for a, b in zip(energies, energies[1:]))


def test_energy_radius_validation(small_grid, small_table):
    with pytest.raises(DomainError):
        total_energy(zero_profile(small_grid), 5.0, small_table)


def test_constant_profile_has_positive_kinetic(small_grid, small_table):
    p = OddProfile(small_grid, np.full(small_grid.n_nodes, 0.7))
    bd = total_energy(p, small_grid.R, small_table, zero_potential())
    assert bd.total > 0.0


def test_truncation_never_increases_energy(small_grid, small_table):
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = OddProfile(small_grid, rng.uniform(-1.6, 1.9, small_grid.n_nodes))
        e0 = total_energy(p, small_grid.R, small_table).total
        e1 = total_energy(truncate_profile(p), small_grid.R, small_table).total
        assert e1 <= e0 + 1e-10 * abs(e0)


def test_odd_rewriting_matches_full_plane_sum(small_grid, small_table):
    """The interaction form equals the full-plane double sum over the
    extension (outer nodes plus mirrored inner nodes with flipped sign)."""
    g = small_grid
    rng = np.random.default_rng(9)
    w = rng.uniform(0, 1, g.n_nodes)
    p = OddProfile(g, w)
    w = p.values
    idx = np.arange(g.n_nodes)
    lhs = interaction(p, idx, idx, small_table)

    # full plane: nodes (s,t) with +w and (t,s) with -w
    S = np.concatenate([g.s, g.t])
    T = np.concatenate([g.t, g.s])
    W = np.concatenate([w, -w])
    MU = np.concatenate([g.weights, g.weights])
    rule = gauss_jacobi_rule(2, 1)
    KB = j_values(K1, S[:, None], T[:, None], S[None, :], T[None, :], rule) / 4.0
    np.fill_diagonal(KB, 0.0)
    dw2 = (W[:, None] - W[None, :]) ** 2
    rhs = float((dw2 * KB * MU[:, None] * MU[None, :]).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_refinement_consistency():
    vals = []
    for h in (0.5, 0.25):
        g = build_grid(R=8.0, h=h, m=1, R_out=12.0)
        tab = build_kernel_table(g, K1)
        w = np.tanh(g.cone_dist) * np.clip((g.R - g.radius) / 2.0, 0.0, 1.0)
        p = OddProfile(g, w)
        vals.append(total_energy(p, g.R, tab).total)
    assert abs(vals[1] - vals[0]) / vals[1] < 0.05


# kinetic_in_in, kinetic_in_out and potential of a uniform(0, 1) profile
# (default_rng(11)) at S = R/3, R/2 and R, computed by the chunked sums
# that total_energy used before it was written through interaction
PINNED_BREAKDOWNS = {
    "small": [(0.8906887397010335, 2.8250033935570453, 0.34017680033013675),
              (3.938168229892497, 7.014384358704649, 0.8651474722119264),
              (29.33493137876974, 23.926682965058873, 2.945076397774623)],
    "m2": [(0.07699253555313658, 2.630317771456188, 0.8949380899465832),
           (4.335617572643012, 43.18856984629301, 3.6483720687239654),
           (77.42221399312908, 496.7422530832455, 38.53561548832912)],
}


@pytest.mark.parametrize("name", ["small", "m2"])
def test_total_energy_breakdown_pinned(name, request):
    table = request.getfixturevalue(f"{name}_table")
    g = table.grid
    p = OddProfile(g, np.random.default_rng(11).uniform(0, 1, g.n_nodes))
    for S, expected in zip((g.R / 3, g.R / 2, g.R), PINNED_BREAKDOWNS[name]):
        bd = total_energy(p, S, table)
        got = (bd.kinetic_in_in, bd.kinetic_in_out, bd.potential)
        assert got == pytest.approx(expected, rel=1e-12), S


# --- solver-facing model ----------------------------------------------------------

def test_model_matches_total_energy(small_grid, small_table):
    model = EnergyModel(small_table, allen_cahn())
    rng = np.random.default_rng(4)
    u = rng.uniform(0, 1, model.iin.size)
    prof = model.embed(u)
    assert model.value_and_grad(u)[0] == pytest.approx(
        total_energy(prof, small_grid.R, small_table).total, rel=1e-12)


def test_model_gradient_matches_finite_differences(small_grid, small_table):
    model = EnergyModel(small_table, allen_cahn())
    rng = np.random.default_rng(5)
    u = rng.uniform(0.05, 0.95, model.iin.size)
    _, g = model.value_and_grad(u)
    eps = 1e-6
    for idx in range(0, u.size, max(1, u.size // 12)):
        up, um = u.copy(), u.copy()
        up[idx] += eps
        um[idx] -= eps
        fd = (model.value_and_grad(up)[0] - model.value_and_grad(um)[0]) / (2 * eps)
        assert g[idx] == pytest.approx(fd, rel=2e-5, abs=1e-9)
