import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nlsaddle import doubly_radial as dr
from nlsaddle.kernels import eval_kernel, fractional_kernel, tabulated_kernel
from nlsaddle.doubly_radial import zero_order_coefficient
from nlsaddle.energy import (EnergyModel, OddProfile, allen_cahn, build_grid,
                             build_kernel_table, self_cell_edges, zero_profile)
from nlsaddle.discrete_operator import check_max_principle_structure
from nlsaddle.errors import DomainError

K1 = fractional_kernel(0.5, 1)


def assemble(table):
    """Reference: the L of the energy docstring as a dense array over all
    nodes (band rows carry only the self-cell edges owned by the nodes in
    B_R), from D, Z and `self_cell_edges`; its diagonal from the dense D."""
    grid = table.grid
    mu = grid.weights
    D = table.D
    M = D * -mu
    np.fill_diagonal(M, D @ mu + 2.0 * table.zero_order)
    k, nb, c = self_cell_edges(table, grid.inside(grid.R))
    row, col = np.concatenate([k, nb, k, nb]), np.concatenate([k, nb, nb, k])
    np.add.at(M, (row, col), np.concatenate([c, c, -c, -c]) / (2.0 * mu[row]))
    return M


def kernel_part(table):
    """The off-diagonal entries of -D_kj mu_j, L less its self-cell edges."""
    M = table.D * -table.grid.weights
    return M[~np.eye(M.shape[0], dtype=bool)]


def with_pairs(table, D=None, zero_order_scale=1.0):
    """A copy of `table` with its own dense D (and its zero-order column
    scaled): at m=1 without the lattice, which would otherwise give D."""
    pairs = np.stack([table.D if D is None else D, table.P])
    return replace(table, pairs=pairs, lattice=None, zcol=zero_order_scale * table.zcol,
                   ztail=zero_order_scale * table.ztail)


@pytest.fixture(scope="module")
def op_small(small_table):
    return assemble(small_table)


@pytest.fixture(scope="module")
def tables_and_ops(small_table, m2_table):
    # the structure checks run at m = 1 and at m = 2
    return [(table, assemble(table)) for table in (small_table, m2_table)]


def test_row_sums_equal_zero_order(tables_and_ops):
    for table, op in tables_and_ops:
        rows = op.sum(axis=1)
        assert np.allclose(rows, 2.0 * table.zero_order, rtol=1e-12), table.grid.m
        assert rows.min() > 0.0, table.grid.m


def test_row_sums_match_independent_integral(small_grid, op_small):
    rows = op_small.sum(axis=1)
    zoc = np.array([zero_order_coefficient(K1, (s, t), small_grid.R_out)
                    for s, t in zip(small_grid.s, small_grid.t)])
    rel = np.abs(rows - 2.0 * zoc) / (2.0 * zoc)
    assert rel.max() <= 1e-3


def test_z_sign_pattern(tables_and_ops):
    for table, M in tables_and_ops:
        off = M[~np.eye(M.shape[0], dtype=bool)]
        assert off.max() <= 1e-12 * np.abs(np.diag(M)).max(), table.grid.m


def test_apply_zero_profile(op_small, small_grid):
    assert np.all(op_small @ zero_profile(small_grid).values == 0.0)


def test_apply_constant_profile(tables_and_ops):
    # constant on the whole outer octant (raw values; no support truncation):
    # the difference and local parts annihilate constants
    c = 0.83
    for table, op in tables_and_ops:
        out = op @ np.full(table.grid.n_nodes, c)
        assert np.allclose(out, 2.0 * c * table.zero_order, rtol=1e-10), table.grid.m


def test_apply_linearity(op_small, small_grid):
    rng = np.random.default_rng(0)
    u = rng.uniform(0, 1, small_grid.n_nodes)
    v = rng.uniform(0, 1, small_grid.n_nodes)
    a, b = 1.3, -0.4
    lhs = op_small @ (a * u + b * v)
    rhs = a * (op_small @ u) + b * (op_small @ v)
    scale = np.abs(rhs).max()
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * scale)


def test_strong_maximum_principle_probe(op_small, small_grid, small_table):
    # u >= 0 vanishing at one node with u not identically 0: (L u)(x0) < 0,
    # quantitatively below -(min positive difference entry) (max u) (min weight)
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.2, 1.0, small_grid.n_nodes)
    inside = np.where(small_grid.inside(small_grid.R))[0]
    x0 = int(inside[3])
    vals[x0] = 0.0
    p = OddProfile(small_grid, vals)
    out = op_small @ p.values
    off = ~np.eye(small_grid.n_nodes, dtype=bool)
    delta = small_table.D[off].min() * p.values.max() * small_grid.weights.min()
    assert delta > 0
    assert out[x0] <= -delta


def test_max_principle_structure_report(tables_and_ops):
    # the certificate read from the table against the assembled operator:
    # every off-diagonal entry strictly negative, every row sum positive;
    # the extremes are the kernel part's, whose largest entry is L's own
    for table, op in tables_and_ops:
        off = op[~np.eye(op.shape[0], dtype=bool)]
        rep = check_max_principle_structure(table)
        assert rep.z_pattern and rep.row_sums_positive and rep.monotone_probe, table.grid.m
        assert (rep.min_offdiag, rep.max_offdiag) == (kernel_part(table).min(),
                                                      off.max()), table.grid.m
        assert off.min() <= rep.min_offdiag, table.grid.m
        assert rep.max_offdiag < 0.0, table.grid.m
        assert set(rep.as_dict()) == {"z_pattern", "row_sums_positive", "monotone_probe",
                                      "min_offdiag", "max_offdiag"}


def test_m1_certificate_holds_no_n_by_n_array():
    # R = 12, h = 0.25 (n = 2011), where the dense D and P take 62 MB: the
    # certificate gathers D's rows from the diagonal rightwards, a few blocks
    # at a time, and reads the extremes the dense D gives
    table = build_kernel_table(build_grid(12.0, 0.25, 1), K1)
    tracemalloc.start()
    try:
        streamed = check_max_principle_structure(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.pairs is None
    assert peak < 16 * dr._BLOCK_VALUES * 8, peak
    # the dense view, once read, changes neither what the certificate reads
    # nor its report, field for field
    table.D
    assert table.pairs is not None
    assert all(first == lo for lo, first, _ in table.d_rows())
    assert check_max_principle_structure(table) == streamed


def test_adversarial_positive_offdiagonal_detected(tables_and_ops):
    # one negative off-diagonal D entry, at (0, 1) and (1, 0), breaks the
    # Z pattern, though the row sums stay positive, and the certificate then
    # fails (nodes 0 and 1 share a self-cell edge at m=1, which may keep L's
    # own entry negative: the certificate asks D >= 0)
    for table, _ in tables_and_ops:
        D = table.D.copy()
        D[0, 1] = D[1, 0] = -1e-3 * D.max()
        bad = with_pairs(table, D)
        rep = check_max_principle_structure(bad)
        assert rep.row_sums_positive, table.grid.m
        assert not rep.z_pattern and not rep.monotone_probe, table.grid.m
        mu = table.grid.weights
        assert rep.max_offdiag == max(D[0, 1] * -mu[1], D[1, 0] * -mu[0]), table.grid.m


def test_zero_rhs_unit_c_gives_zero_solution(op_small):
    n = op_small.shape[0]
    u = np.linalg.solve(op_small + np.eye(n), np.zeros(n))
    assert np.abs(u).max() == 0.0


def test_linear_solve_consistency(op_small, small_grid):
    rng = np.random.default_rng(5)
    g = rng.uniform(0.0, 1.0, op_small.shape[0])
    u = np.linalg.solve(op_small, g)
    # residual of the linear problem against the same operator
    lu = op_small @ u
    assert np.abs(lu - g).max() <= 1e-10 * np.abs(g).max()


def test_weak_maximum_principle_trials(tables_and_ops):
    # the independent reference for the certificate: random monotone solves
    # (M + diag(c)) u = g with c >= 0 and g >= 0 give u >= 0
    rng = np.random.default_rng(3)
    for table, op in tables_and_ops:
        assert check_max_principle_structure(table).monotone_probe, table.grid.m
        n = op.shape[0]
        scale = np.abs(np.diag(op)).max()
        for _ in range(20):
            c = rng.uniform(0.0, 0.1 * scale, n)
            u = np.linalg.solve(op + np.diag(c), rng.uniform(0.0, 1.0, n))
            assert u.min() >= -1e-10, table.grid.m


@pytest.mark.parametrize("name", ["small", "m2"])
def test_solver_gradient_is_assembled_operator(name, request):
    # grad E / (2 mu) = L u - f(u) with the same L at every free node
    table = request.getfixturevalue(f"{name}_table")
    model = EnergyModel(table, allen_cahn())
    u = np.random.default_rng(6).uniform(0, 1, model.iin.size)
    _, grad = model.value_and_grad(u)
    w = model.embed(u).values
    lf = (assemble(table) @ w - allen_cahn().f(w))[model.iin]
    assert np.abs(grad / (2.0 * model.mu) - lf).max() <= 1e-12 * np.abs(lf).max()


_R = np.geomspace(1e-3, 1e3, 400)


@pytest.mark.parametrize("kernel", [K1, tabulated_kernel(_R, _R ** -3.0, 0.5, 1)],
                         ids=["fractional", "tabulated"])
@pytest.mark.parametrize("R_out", [6.5, 9.0, 18.0], ids=["R+h", "1.5R", "3R"])
def test_model_product_on_the_free_lattice_matches_the_dense_free_block(R_out, kernel):
    # at m=1 L u takes D (mu u) on the lattice of the nodes in B_R alone,
    # narrower than the table's lattice however far R_out lies past R
    table = build_kernel_table(build_grid(6.0, 0.5, 1, R_out), kernel, assume_positive=True)
    model = EnergyModel(table, allen_cahn())
    assert model.free.N < table.lattice.N
    u = np.random.default_rng(7).uniform(0.0, 1.0, model.iin.size)
    want = assemble(table)[np.ix_(model.iin, model.iin)] @ u
    np.testing.assert_allclose(model.apply_L(u), want, rtol=1e-12, atol=0.0)


def test_zero_matrix_fails_the_certificate(small_table):
    # zero D and Z: a Z pattern with zero row sums, singular, so no
    # certificate; the report stays plain JSON.  One node has nothing to certify.
    zero = with_pairs(small_table, np.zeros_like(small_table.D), zero_order_scale=0.0)
    rep = check_max_principle_structure(zero)
    assert rep.z_pattern and not rep.row_sums_positive and not rep.monotone_probe
    assert (rep.min_offdiag, rep.max_offdiag) == (0.0, 0.0)
    assert json.loads(json.dumps(rep.as_dict(), allow_nan=False)) == rep.as_dict()
    one = build_kernel_table(build_grid(0.8, 0.5, 1, 0.9), K1)
    assert one.grid.n_nodes == 1
    with pytest.raises(DomainError, match="at least 2 nodes"):
        check_max_principle_structure(one)


@pytest.mark.parametrize("n", [2, 3, 64])
def test_offdiagonal_extremes_read_every_offdiagonal_entry(n, tables_and_ops, monkeypatch):
    # the row blocks of D against the mask, n rows a block: no block edge
    # drops an entry, and a diagonal of D that dominates every entry either
    # way (it is 0 in a table) never leaks into the extremes
    for table, _ in tables_and_ops:
        monkeypatch.setattr(dr, "_BLOCK_VALUES", n * table.grid.n_nodes)
        for sign in (1.0, -1.0):
            big = sign * (1e6 + np.abs(table.D).max())
            wide = with_pairs(table, table.D + np.diag(np.full(table.grid.n_nodes, big)))
            rep = check_max_principle_structure(wide)
            off = kernel_part(wide)
            assert (rep.min_offdiag, rep.max_offdiag) == (off.min(), off.max()), table.grid.m


def test_assemble_matches_the_sparse_self_cell_formula(tables_and_ops):
    # oracle: the self-cell part added from a scipy.sparse C, duplicates
    # summed, on the diagonal the energy's, from the product apply_D
    import scipy.sparse as sp
    for table, op in tables_and_ops:
        grid, mu = table.grid, table.grid.weights
        k, nb, c = self_cell_edges(table, grid.inside(grid.R))
        C = sp.coo_matrix((np.concatenate([c, c, -c, -c]),
                           (np.concatenate([k, nb, k, nb]), np.concatenate([k, nb, nb, k]))),
                          shape=(grid.n_nodes,) * 2).tocsr().tocoo()
        want = table.D * -mu
        np.fill_diagonal(want, table.apply_D(mu) + 2.0 * table.zero_order)
        want[C.row, C.col] += C.data / (2.0 * mu[C.row])
        np.testing.assert_allclose(op, want, rtol=1e-15, atol=0.0)


# --- a J-free oracle of L u: rays in R^(2m) (ROADMAP Direction 10) ----------

def _legendre(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _smooth_odd(s2, t2):
    """u = (s^2 - t^2) e^(-(s^2 + t^2)/2) from s^2 = |x'|^2 and t^2 = |x''|^2:
    smooth in R^(2m) and odd across the cone."""
    return (s2 - t2) * np.exp(-0.5 * (s2 + t2))


def ray_operator(kernel, s, t, n_angle=32, n_rho=16, n_panels=14, reach=9.0):
    """L_K u(x) = 1/2 int_(S^(2m-1)) int_0^inf (2 u(x) - u(x + rho w) - u(x - rho w))
    K(rho) rho^(2m-1) drho dw for `_smooth_odd` and a power kernel, at the
    points x = (s e_1, t e_1) of R^m x R^m, from K and u alone: no J, table,
    zero-order column or self-cell.

    The direction w = (cos psi a, sin psi b), with a, b in S^(m-1), has the
    measure cos^(m-1) psi sin^(m-1) psi dpsi da db.  u(x +- rho w) reads a and
    b only through a_1 = cos alpha and b_1 = cos beta, whose measure is
    |S^(m-2)| sin^(m-2) alpha dalpha on [0, pi]; at m=1 they are the signs
    +-1.  Gauss-Legendre takes n_angle nodes in psi, alpha and beta and n_rho
    on each of n_panels geometric panels of rho up to |x| + reach.  Past it
    |u(x +- rho w)| < 1e-15, and 2 u(x) K rho^(2m-1) integrates in closed form.
    At gamma = 1/2 doubling every count moves it by 5e-9 relative at m=1 and
    4e-11 at m=2.
    """
    m, two_g = kernel.m, 2.0 * kernel.gamma
    psi, w_psi = _legendre(n_angle, 0.0, 0.5 * math.pi)
    w_psi = w_psi * (np.cos(psi) * np.sin(psi)) ** (m - 1)
    if m == 1:
        cos_a, w_a = np.array([1.0, -1.0]), np.ones(2)
    else:
        alpha, w_a = _legendre(n_angle, 0.0, math.pi)
        sphere = 2.0 * math.pi ** ((m - 1) / 2.0) / math.gamma((m - 1) / 2.0)
        cos_a, w_a = np.cos(alpha), w_a * sphere * np.sin(alpha) ** (m - 2)
    P, A, B = np.meshgrid(psi, cos_a, cos_a, indexing="ij")
    c1, c2 = (np.cos(P) * A).ravel(), (np.sin(P) * B).ravel()
    q1 = np.cos(P).ravel() ** 2
    W = (w_psi[:, None, None] * w_a[None, :, None] * w_a[None, None, :]).ravel()
    out = []
    for sk, tk in zip(np.ravel(s), np.ravel(t)):
        u0 = _smooth_odd(sk * sk, tk * tk)
        rho_max = math.hypot(sk, tk) + reach
        edges = np.concatenate([[0.0], np.geomspace(rho_max * 2.0 ** (1 - n_panels), rho_max,
                                                    n_panels)])
        total = u0 * W.sum() * kernel.c_norm * rho_max ** -two_g / two_g
        for lo, hi in zip(edges[:-1], edges[1:]):
            rho, w_rho = _legendre(n_rho, lo, hi)
            r = rho[None, :]
            s2, t2 = sk * sk + r * r * q1[:, None], tk * tk + r * r * (1.0 - q1[:, None])
            d1, d2 = 2.0 * sk * r * c1[:, None], 2.0 * tk * r * c2[:, None]
            second = 2.0 * u0 - _smooth_odd(s2 + d1, t2 + d2) - _smooth_odd(s2 - d1, t2 - d2)
            total += 0.5 * W @ (second @ (w_rho * eval_kernel(kernel, rho) * rho ** (2 * m - 1)))
        out.append(total)
    return np.array(out)


def _ray_oracle_error(m, h):
    """max |L u - L_K u| / max |L_K u| of `EnergyModel.apply_L` at gamma = 1/2,
    R = 6 over the nodes with s - t >= 1, t >= 1/2 and |x| <= 3: inside, and
    off the cone layer where L is not consistent for gamma >= 1/2."""
    kernel = fractional_kernel(0.5, m)
    grid = build_grid(6.0, h, m)
    model = EnergyModel(build_kernel_table(grid, kernel), allen_cahn())
    s, t = grid.s[model.iin], grid.t[model.iin]
    lu = model.apply_L(_smooth_odd(s * s, t * t))
    sel = (s - t >= 1.0) & (t >= 0.5) & (np.hypot(s, t) <= 3.0)
    ref = ray_operator(kernel, s[sel], t[sel])
    return float(np.max(np.abs(lu[sel] - ref)) / np.max(np.abs(ref)))


def test_ray_oracle_is_converged_at_m1():
    s, t = np.array([1.75, 2.25]), np.array([0.75, 1.25])
    ref = ray_operator(K1, s, t)
    fine = ray_operator(K1, s, t, n_angle=64, n_rho=32, n_panels=20, reach=12.0)
    assert np.max(np.abs(ref - fine)) <= 1e-7 * np.max(np.abs(fine))


def test_m1_operator_converges_to_the_ray_oracle():
    # 0.064, 0.014 and 0.0053 at h = 1/2, 1/4 and 1/8
    errors = [_ray_oracle_error(1, h) for h in (0.5, 0.25, 0.125)]
    assert errors[0] > errors[1] > errors[2] and errors[2] < 0.01, errors


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP Defect 1: the m >= 2 J takes the wrong spherical "
                   "measure, and L u is 0.77 off the oracle at every h")
def test_m2_operator_matches_the_ray_oracle():
    assert _ray_oracle_error(2, 0.5) < 0.1
