import math
import re
import tracemalloc

import numpy as np
import pytest

from nlsaddle.errors import DomainError, PreconditionError, TableError
from nlsaddle import doubly_radial, energy, kernels
from nlsaddle.kernels import (counterexample_kernel, fractional_kernel, standard_c_norm,
                              tabulated_kernel)
from nlsaddle.doubly_radial import (gauss_jacobi_rule, j_values, kernel_difference,
                                    omega_sphere, zero_order_coefficient)
from nlsaddle.energy import (EnergyModel, Grid, OddProfile, allen_cahn, build_grid,
                             build_kernel_table, load_profile, save_profile,
                             self_cell_edges, total_energy, zero_potential,
                             zero_profile)
from nlsaddle.solver import SolverConfig, minimize

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


@pytest.mark.parametrize("R, h, m, R_out", [(5.0, 0.5, 1, 7.3), (3.0, 0.4, 2, 4.55),
                                            (12.0, 0.25, 1, None)])
def test_build_grid_keeps_its_node_order(R, h, m, R_out):
    # every cell j < i of the disk once, sorted by (i, j), which locate's
    # binary search relies on
    g = build_grid(R, h, m, R_out)
    span = range(int(g.R_out / h) + 2)
    cells = [(i, j) for i in span for j in range(i)
             if ((i + 0.5) * h) ** 2 + ((j + 0.5) * h) ** 2 <= g.R_out ** 2]
    assert list(zip(g.ii.tolist(), g.jj.tolist())) == cells
    assert np.array_equal(g.locate(g.ii, g.jj), np.arange(g.n_nodes))


def _profile_with_header(grid, path):
    path.write_text("s,t,v\n" + "".join(f"{s!r},{t!r},0.0\n" for s, t in zip(grid.s, grid.t)))
    return load_profile(path, grid)


@pytest.mark.parametrize("call, match", [
    (lambda g, tmp: build_grid(3.0, 0.5, 1.5), "integer"),
    (lambda g, tmp: build_grid(3.0, 0.5, 0), "integer"),
    (lambda g, tmp: OddProfile(g, np.zeros(g.n_nodes + 1)), "shape"),
    (lambda g, tmp: OddProfile(g, np.full(g.n_nodes, np.inf)), "finite"),
    (lambda g, tmp: _profile_with_header(g, tmp / "p.csv"), "header"),
], ids=["fractional-m", "zero-m", "profile-shape", "profile-inf", "profile-header"])
def test_energy_input_checks(call, match, small_grid, tmp_path):
    with pytest.raises(DomainError, match=match):
        call(small_grid, tmp_path)


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

@pytest.mark.parametrize("S", [math.nan, -math.inf, -1.0])
def test_total_energy_needs_s_in_0_r_out(small_table, S):
    # each gave an all-zero breakdown while the guard read `S > R_out`
    u = OddProfile(small_table.grid, np.ones(small_table.grid.n_nodes))
    assert total_energy(u, 0.0, small_table).kinetic_in_in == 0.0  # S = 0 stays allowed
    with pytest.raises(DomainError, match="evaluation radius"):
        total_energy(u, S, small_table)


def test_profile_zeroed_outside_support(small_grid):
    vals = np.ones(small_grid.n_nodes)
    p = OddProfile(small_grid, vals)
    outside = small_grid.radius > small_grid.R
    assert np.all(p.values[outside] == 0.0)
    assert np.all(p.values[~outside] == 1.0)


def truncate_profile(profile: OddProfile) -> OddProfile:
    """Sign rearrangement then cap at 1: values become min(1, |w|).

    Both maps are energy-decreasing whenever the kernel table's difference
    entries are nonnegative.
    """
    return OddProfile(profile.grid, np.minimum(1.0, np.abs(profile.values)))


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
    for lines in (rows[:-1], rows + rows[:1]):                  # a row short, a row over
        with pytest.raises(DomainError, match="one s,t,u row per grid node"):
            load(lines)


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
            assert table.D[a, b] == pytest.approx(kernel_difference(kernel, p, q), rel=1e-12)
            star = float(j_values(kernel, g.s[a], g.t[a], g.t[b], g.s[b], rule)) / om2
            assert table.P[a, b] == pytest.approx(star, rel=1e-12)


LATTICE_GRIDS = {
    "R12-h0.5": (12.0, 0.5, None),
    # R_out is not a multiple of h
    "10x10": (10 / 3, 1 / 3, 10 * (1 / 3) * math.sqrt(2.01)),
}


@pytest.mark.parametrize("kernel", [K1, counterexample_kernel(0.5, 1)],
                         ids=["fractional", "counterexample"])
@pytest.mark.parametrize("grid_args", LATTICE_GRIDS.values(), ids=LATTICE_GRIDS.keys())
def test_m1_lattice_table_matches_the_four_term_sums(kernel, grid_args):
    g = build_grid(grid_args[0], grid_args[1], 1, grid_args[2])
    tab = build_kernel_table(g, kernel, assume_positive=True)
    rule = gauss_jacobi_rule(32, 1)
    S, T = g.s[:, None], g.t[:, None]
    direct = j_values(kernel, S, T, g.s, g.t, rule) / 4.0
    star = j_values(kernel, S, T, g.t, g.s, rule) / 4.0
    diff = direct - star
    np.fill_diagonal(diff, 0.0)
    assert np.max(np.abs(tab.P - star) / star) <= 1e-14
    assert np.max(np.abs(tab.D - diff) / (diff + star)) <= 1e-14
    assert np.all(np.diag(tab.D) == 0.0)
    assert np.array_equal(tab.D, tab.D.T) and np.array_equal(tab.P, tab.P.T)


@pytest.mark.parametrize("R", [4.0, 6.0])
def test_m2_pair_tables_are_bitwise_symmetric(R):
    # the closed-form J(x, y*) and J(y, x*) take the same steps with u and v
    # exchanged, each step symmetric in them (the m=1 gather: above)
    tab = build_kernel_table(build_grid(R, 0.5, 2), fractional_kernel(0.5, 2))
    assert np.array_equal(tab.D, tab.D.T) and np.array_equal(tab.P, tab.P.T)
    assert np.all(np.diag(tab.D) == 0.0)


# the FFT circle has side 216 = 3N, 108 = 3N, 45 > 3N on 10x10, and 32 = 3N - 1,
# the least side that holds the convolution without wrap-around
APPLY_GRIDS = {"R12-h0.25": (12.0, 0.25, None), **LATTICE_GRIDS, "R4-side-3N-1": (4.0, 0.5, 5.5)}
_R = np.geomspace(1e-3, 1e3, 400)
APPLY_KERNELS = {"fractional-0.25": fractional_kernel(0.25, 1),
                 "fractional-0.5": K1, "fractional-0.75": fractional_kernel(0.75, 1),
                 "counterexample": counterexample_kernel(0.5, 1),
                 "tabulated": tabulated_kernel(_R, _R ** -3.0, 0.5, 1)}


@pytest.mark.parametrize("kernel", APPLY_KERNELS.values(), ids=APPLY_KERNELS.keys())
@pytest.mark.parametrize("grid_args", APPLY_GRIDS.values(), ids=APPLY_GRIDS.keys())
def test_m1_convolutions_match_the_dense_tables(kernel, grid_args):
    # D v and P v through the FFT against the products with the dense tables
    # the same table gathers on its first read of D and P
    g = build_grid(grid_args[0], grid_args[1], 1, grid_args[2])
    tab = build_kernel_table(g, kernel, assume_positive=True)
    assert tab.pairs is None
    for seed in (0, 1):
        v = np.random.default_rng(seed).standard_normal(g.n_nodes)
        for got, want in ((tab.apply_D(v), tab.D @ v), (tab.apply_P(v), tab.P @ v)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_m1_pipeline_holds_no_pair_table():
    # build, solve and total energy at n = 2011 in far less than one n x n
    # array (32 MB): the products are convolutions on an O(n) lattice
    kernel = fractional_kernel(0.5, 1, c_norm=standard_c_norm(0.5, 1))
    g = build_grid(R=24.0, h=0.5, m=1)
    n = g.n_nodes
    assert n == 2011
    tracemalloc.start()
    try:
        table = build_kernel_table(g, kernel)
        result = minimize(SolverConfig(R=24.0, h=0.5, gamma=0.5, m=1), kernel, table=table)
        total_energy(result.profile, g.R, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.trace.converged and table.pairs is None
    assert peak <= n * n * 8 / 4, peak


def test_m1_table_makes_no_j_call(small_grid, monkeypatch):
    # pairs, self-cell and, for the power kernel, the zero-order column all
    # come from the lattice offsets and exact rays
    def no_j(*args, **kwargs):
        raise AssertionError("j_values was called")

    monkeypatch.setattr(energy, "j_values", no_j)
    monkeypatch.setattr(doubly_radial, "j_values", no_j)
    tab = build_kernel_table(small_grid, K1)
    assert np.all(tab.cs > 0.0) and np.all(tab.ct > 0.0)
    # the counterexample kernel's zero-order column keeps the polar J form,
    # and its pairs and self-cell call no J either
    monkeypatch.setattr(doubly_radial, "j_values", j_values)
    build_kernel_table(small_grid, counterexample_kernel(0.5, 1), assume_positive=True)


def _self_cell_by_j(grid, kernel):
    """The m=1 self-cell constants from the density J(x, x + z) - J(x, (x + z)*)
    at each point z of the polar cell rule: the reference for the moments per
    lattice offset that the table sums."""
    zs, zt, meas = energy._self_cell_rule(grid.h)
    S, T = grid.s[:, None, None], grid.t[:, None, None]
    rule = gauss_jacobi_rule(2, 1)
    dens = (j_values(kernel, S, T, S + zs, T + zt, rule)
            - j_values(kernel, S, T, T + zt, S + zs, rule))
    scale = 0.5 * grid.weights / grid.h ** 2
    return [np.maximum((dens * z ** 2 * meas).sum(axis=(1, 2)), 0.0) * scale for z in (zs, zt)]


@pytest.mark.parametrize("family", ["fractional", "counterexample", "tabulated"])
@pytest.mark.parametrize("grid_args", LATTICE_GRIDS.values(), ids=LATTICE_GRIDS.keys())
def test_m1_self_cell_moments_match_the_j_density(family, grid_args):
    r = np.geomspace(1e-3, 1e3, 400)
    kernel = {"fractional": K1, "counterexample": counterexample_kernel(0.5, 1),
              "tabulated": tabulated_kernel(r, r ** -3.0, 0.5, 1)}[family]
    g = build_grid(grid_args[0], grid_args[1], 1, grid_args[2])
    cs, ct = energy._self_cell_coefficients(g, kernel, gauss_jacobi_rule(32, 1))
    for got, ref in zip((cs, ct), _self_cell_by_j(g, kernel)):
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12


SELF_CELL_GRIDS = {"m1-R12-h0.25": (12.0, 0.25, 1, None), "m1-R12-h0.5": (12.0, 0.5, 1, None),
                   "m1-10x10": (10 / 3, 1 / 3, 1, LATTICE_GRIDS["10x10"][2]),
                   "m2-R4": (4.0, 0.5, 2, None), "m2-R1.5": (1.5, 0.5, 2, None)}


@pytest.mark.parametrize("grid_args", SELF_CELL_GRIDS.values(), ids=SELF_CELL_GRIDS.keys())
def test_self_cell_rule_points_lie_strictly_outside_the_cone(grid_args):
    # every point x + z of a node's cell rule has 0 < b < a, so the m >= 2
    # density needs no mask: the cell is [-h/2, h/2]^2 about x and s - t >= h
    g = build_grid(*grid_args)
    zs, zt, _ = energy._self_cell_rule(g.h)
    aa, bb = g.s[:, None, None] + zs, g.t[:, None, None] + zt
    assert bb.min() > 0.0
    assert ((aa - bb) / g.h).min() >= 0.17


def test_m1_tabulated_power_law_builds_the_fractional_table():
    # the lattice build never asks for the diagonal's zero distance, which a
    # tabulated kernel refuses
    g = build_grid(4, 0.5, 1)
    r = np.geomspace(1e-3, 1e3, 400)
    tab = build_kernel_table(g, tabulated_kernel(r, r ** -3, 0.5, 1))
    ref = build_kernel_table(g, K1)
    assert np.max(np.abs(tab.P - ref.P) / ref.P) <= 1e-12
    assert np.max(np.abs(tab.D - ref.D) / (ref.D + ref.P)) <= 1e-12
    # nor for the offsets no pair reaches, out to sqrt(2) (2 max(i) + 1) h = 16.3
    r = np.geomspace(1e-6, 2 * g.R_out + 1, 400)
    build_kernel_table(g, tabulated_kernel(r, r ** -3, 0.5, 1))


@pytest.mark.parametrize("R, r_lo, r_hi", [(7.0, 0.1, 100.0), (12.0, 1e-3, 20.0)],
                         ids=["self-cell-below-the-table", "pairs-past-the-table"])
def test_table_missing_a_read_radius_is_refused_before_any_layer(R, r_lo, r_hi, monkeypatch):
    # at h = 0.5 the self-cell rule reads K down to 0.0047 h, and the m=1
    # pairs out to 2 max|x| (35.9 at R = 12); the refusal names the table's
    # range and the build's, and a table over the build's range builds
    grid = build_grid(R, 0.5, 1)
    r = np.geomspace(r_lo, r_hi, 400)

    def layer(*args, **kwargs):
        raise AssertionError("a layer ran")

    for name in ("zero_order_integral", "exterior_tail_coefficient",
                 "_self_cell_coefficients", "_lattice_convolution"):
        monkeypatch.setattr(energy, name, layer)
    with pytest.raises(DomainError, match=re.escape(f"covers r in {[r_lo, r_hi]}")) as err:
        build_kernel_table(grid, tabulated_kernel(r, r ** -3, 0.5, 1))
    monkeypatch.undo()
    lo, hi = map(float, re.search(r"reads K over \[(\S+), (\S+)\]", str(err.value)).groups())
    assert lo < r_lo or hi > r_hi
    r = np.geomspace(lo, hi, 400)
    build_kernel_table(grid, tabulated_kernel(r, r ** -3, 0.5, 1))
    with pytest.raises(DomainError, match="reads K over"):
        build_kernel_table(grid, tabulated_kernel(r[1:], r[1:] ** -3, 0.5, 1))
    with pytest.raises(DomainError, match="reads K over"):
        build_kernel_table(grid, tabulated_kernel(r[:-1], r[:-1] ** -3, 0.5, 1))


@pytest.mark.parametrize("m, R, order", [(1, 7.0, 32), (1, 12.0, 32), (2, 3.0, 32),
                                         (2, 4.0, 32), (3, 3.0, 16)])
def test_radii_read_bound_every_kernel_read_of_a_build(m, R, order, monkeypatch):
    # every layer of the build, and the dense D, reads K only inside
    # `_radii_read`, which the refusal of a short table relies on; the table
    # here is twice as wide at both ends, so a read past the bound is recorded
    # rather than refused
    grid, rule = build_grid(R, 0.5, m), gauss_jacobi_rule(order, m)
    lo, hi = energy._radii_read(grid, rule)
    r = np.geomspace(0.5 * lo, 2.0 * hi, 400)
    kernel = tabulated_kernel(r, r ** (-2 * m - 1), 0.5, m)
    reads, h_of = [], kernels._h

    def h(kern, tau):
        reads.append((float(np.min(tau)), float(np.max(tau))))
        return h_of(kern, tau)

    for module in (kernels, doubly_radial, energy):
        monkeypatch.setattr(module, "_h", h)
    build_kernel_table(grid, kernel, rule, assume_positive=True).D
    tau = np.array(reads)
    assert lo <= math.sqrt(tau[:, 0].min()) and math.sqrt(tau[:, 1].max()) <= hi


def test_table_covering_every_read_radius_builds():
    # at m=2 the sphere angles keep every self-cell read well above the
    # rule's nearest point 0.0047 h (above 0.058 at h = 0.5 on the default
    # rule): a table from r = 0.01 builds, with every column finite
    r = np.geomspace(0.01, 100.0, 400)
    table = build_kernel_table(build_grid(3.0, 0.5, 2), tabulated_kernel(r, r ** -5, 0.5, 2),
                               rule=gauss_jacobi_rule(8, 2))
    assert np.isfinite(table.zero_order).all() and (table.cs > 0).all()


def test_table_refuses_a_kernel_of_another_m(small_grid):
    with pytest.raises(DomainError, match="m=2, the grid m=1"):
        build_kernel_table(small_grid, fractional_kernel(0.5, 2))


def test_table_memory_cap():
    # 22535 nodes: the two dense pair tables would need 7.6 GiB.  At m=1 the
    # build holds none and refuses them on their first read; at m=2 they are
    # refused before anything else is computed
    table = build_kernel_table(build_grid(R=40, h=0.25, m=1), K1)
    with pytest.raises(TableError, match="7.6 GiB .* increase h"):
        table.D
    with pytest.raises(TableError, match="7.6 GiB .* increase h"):
        build_kernel_table(build_grid(R=40, h=0.25, m=2), fractional_kernel(0.5, 2))


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


# --- pair table entries and the self-cell form -------------------------------------

def test_interaction_single_pair_example():
    # the tabulated entries of the pair (2,1), (3,1) are the pointwise
    # kernels, kbar = J / 4 at m = 1
    g = build_grid(R=4.2, h=1.0, m=1, R_out=6.0)
    tab = build_kernel_table(g, K1)
    ia = int(np.argmin(np.abs(g.s - 2.5) + np.abs(g.t - 0.5)))
    ib = int(np.argmin(np.abs(g.s - 3.5) + np.abs(g.t - 0.5)))
    sa, ta = g.s[ia], g.t[ia]
    sb, tb = g.s[ib], g.t[ib]
    assert tab.D[ia, ib] == pytest.approx(
        kernel_difference(K1, (sa, ta), (sb, tb)), rel=1e-12)
    kbar_star = float(j_values(K1, sa, ta, tb, sb, tab.rule)) / 4.0
    assert tab.P[ia, ib] == pytest.approx(kbar_star, rel=1e-12)


def test_interaction_index_validation(small_table, small_grid):
    with pytest.raises(TableError):
        self_cell_edges(small_table, np.array([0, small_grid.n_nodes]))
    with pytest.raises(TableError):
        self_cell_edges(small_table, np.ones(small_grid.n_nodes - 1, dtype=bool))


@pytest.fixture(scope="module")
def pipeline_table():
    # the grid of the m1-pipeline benchmark workload
    kernel = fractional_kernel(0.5, 1, c_norm=standard_c_norm(0.5, 1))
    return build_kernel_table(build_grid(R=12.0, h=0.5, m=1), kernel)


@pytest.mark.parametrize("name", ["pipeline_table", "m2_table"])
def test_self_cell_apply_matches_a_sparse_matrix(name, request):
    # oracle: C assembled by scipy.sparse from the same edges, summing duplicates
    import scipy.sparse as sp
    table = request.getfixturevalue(name)
    n = table.grid.n_nodes
    edges = self_cell_edges(table, table.grid.inside(table.grid.R))
    k, nb, c = edges
    C = sp.csr_matrix((np.concatenate([c, c, -c, -c]),
                       (np.concatenate([k, nb, k, nb]), np.concatenate([k, nb, nb, k]))),
                      shape=(n, n))
    w = np.random.default_rng(5).standard_normal(n)
    want = C @ w
    got = energy._self_cell_apply(edges, w)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert float(w @ got) == pytest.approx(float(w @ want), rel=1e-14, abs=0.0)


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


def test_total_energy_refuses_a_profile_on_another_grid():
    table = build_kernel_table(build_grid(12, 0.5, 1), K1)
    with pytest.raises(DomainError, match="grid"):
        total_energy(zero_profile(build_grid(7, 0.5, 1)), 4.0, table)
    # another R over the same node set is the same grid to the table
    same_nodes = build_grid(7, 0.5, 1, R_out=table.grid.R_out)
    assert total_energy(zero_profile(same_nodes), 4.0, table).kinetic_in_in == 0.0


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
    """The tabulated pair form, 2 sum (w_i - w_j)^2 D_ij mu_i mu_j +
    8 (w^2 mu).P mu, equals the full-plane double sum over the extension
    (outer nodes plus mirrored inner nodes with flipped sign)."""
    g = small_grid
    rng = np.random.default_rng(9)
    w = OddProfile(g, rng.uniform(0, 1, g.n_nodes)).values
    mu = g.weights
    D, P = small_table.D, small_table.P
    lhs = 2.0 * float(((w[:, None] - w[None, :]) ** 2 * D * mu[:, None] * mu[None, :]).sum())
    lhs += 8.0 * float((w * w * mu) @ (P @ mu))

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
# that total_energy used before it was written as the one form on L's data
PINNED_BREAKDOWNS = {
    # small: kinetic_in_out from the exact-ray zero-order column; the polar
    # column it replaced gives 2.8250034, 2.8250044, 2.8250040, 2.8250039 at
    # S = R/3 for n_phi/n_rho = 160/24, 320/48, 640/96, 1280/192
    "small": [(0.8906887397010335, 2.8250039114781, 0.34017680033013675),
              (3.938168229892497, 7.014377525870256, 0.8651474722119264),
              (29.33493137876974, 23.926693562824816, 2.945076397774623)],
    # m2: J in closed form over both angles; the order-32 outer rule of the
    # closed inner angle it replaced gave 77.50373 for kinetic_in_in at
    # S = R, refining to 77.5154, 77.5169, 77.51705, 77.51708 at orders 64,
    # 128, 256, 512.  kinetic_in_out from the two graded panels of the polar
    # zero-order column; the 160 fixed phi panels it replaced give 2.6303178,
    # 2.6303186, 2.6303181, 2.63031819 at S = R/3 for n_phi/n_rho = 160/24,
    # 320/48, 640/96, 1280/192
    "m2": [(0.07710826804869284, 2.6303181789922414, 0.8949380899465832),
           (4.337489769658354, 43.18854030036146, 3.6483720687239654),
           (77.51707891439027, 496.742637454448, 38.53561548832912)],
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

def test_model_matches_total_energy(small_table, m2_table):
    for table in (small_table, m2_table):
        model = EnergyModel(table, allen_cahn())
        rng = np.random.default_rng(4)
        u = rng.uniform(0, 1, model.iin.size)
        prof = model.embed(u)
        assert model.value_and_grad(u)[0] == pytest.approx(
            total_energy(prof, table.grid.R, table).total, rel=1e-12), table.grid.m


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


# --- block budget and scratch memory ----------------------------------------------

TABLE_ARRAYS = ("D", "P", "zcol", "ztail", "cs", "ct", "es", "et")


@pytest.mark.parametrize("m, family", [(1, "fractional"), (1, "counterexample"),
                                       (1, "tabulated"), (2, "fractional"),
                                       (2, "counterexample")])
def test_tables_do_not_depend_on_the_block_budget(m, family, monkeypatch):
    # every node and point is summed on its own, whatever block it falls in;
    # at m=2 the fractional kernel takes the closed form of j_values
    # and the counterexample the rule
    r = np.geomspace(1e-3, 1e3, 64)
    kernel = {"fractional": fractional_kernel(0.5, m),
              "counterexample": counterexample_kernel(0.5, m),
              "tabulated": tabulated_kernel(r, r ** -3.0, 0.5, 1)}[family]
    g = build_grid(R=3.0, h=0.5, m=1) if m == 1 else build_grid(R=1.5, h=0.5, m=2)
    rule = gauss_jacobi_rule(8 if family == "counterexample" else 32, m)
    ref = build_kernel_table(g, kernel, rule, assume_positive=True)
    v = np.random.default_rng(2).standard_normal(g.n_nodes)
    # the m=1 dense tables are built on their first read: read them here
    want = {name: getattr(ref, name) for name in TABLE_ARRAYS}
    want_products = (ref.apply_D(v), ref.apply_P(v))
    monkeypatch.setattr(doubly_radial, "_BLOCK_VALUES", 64)
    tiny = build_kernel_table(g, kernel, rule, assume_positive=True)
    for name in TABLE_ARRAYS:
        assert np.array_equal(getattr(tiny, name), want[name]), name
    assert all(np.array_equal(got, ref_product) for got, ref_product
               in zip((tiny.apply_D(v), tiny.apply_P(v)), want_products))


def test_table_build_scratch_is_bounded_by_the_block_budget():
    # numpy reports its buffers to tracemalloc: past the two n x n tables the
    # build and the first read of D, which gathers them at m=1, hold a few
    # blocks of scratch, for any n
    g = build_grid(R=12.0, h=0.5, m=1)
    n = g.n_nodes
    tracemalloc.start()
    try:
        build_kernel_table(g, fractional_kernel(0.5, 1)).D
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8 + 12 * doubly_radial._BLOCK_VALUES * 8


def test_m1_layer_scratch_is_bounded_when_a_column_exceeds_a_block(monkeypatch):
    # R = 24, h = 0.25: n = 8095 and lattice columns of up to 101 rows, so a
    # column times n is 12 blocks; the certificate's rows of D and the dense
    # view gather in row blocks, and the self-cell sums its offsets in blocks.
    # The dense view's (2, n, n) block is stood in for by n values (row
    # stride 0), so that only the scratch counts
    g = build_grid(R=24.0, h=0.25, m=1)
    n = g.n_nodes
    assert np.bincount(g.ii).max() * n > 12 * doubly_radial._BLOCK_VALUES
    kernel = fractional_kernel(0.5, 1)
    stand_in = np.lib.stride_tricks.as_strided(np.empty(n), (2, n, n), (0, 0, 8))
    monkeypatch.setattr(energy, "_pair_table_block", lambda n: stand_in)
    zeros = np.zeros(n)
    table = energy.KernelTable(g, kernel, gauss_jacobi_rule(32, 1), zeros, zeros, zeros, zeros,
                               *energy._one_sided_neighbors(g),
                               lattice=energy._lattice_convolution(
                                   g.ii, g.jj, energy._lattice_kernel(g, kernel)))

    def certificate_rows():
        for _ in table.d_rows():
            pass

    peaks = []
    for layer in (certificate_rows, lambda: table.D,
                  lambda: energy._self_cell_coefficients(g, kernel, gauss_jacobi_rule(32, 1))):
        tracemalloc.start()
        try:
            layer()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert table.pairs is stand_in
    assert max(peaks) <= 16 * doubly_radial._BLOCK_VALUES * 8, peaks
