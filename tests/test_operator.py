import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nlsaddle.kernels import fractional_kernel
from nlsaddle.doubly_radial import zero_order_coefficient
from nlsaddle.energy import (EnergyModel, OddProfile, allen_cahn, operator_diagonal,
                             self_cell_edges, zero_profile)
from nlsaddle.discrete_operator import assemble, check_max_principle_structure

K1 = fractional_kernel(0.5, 1)


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
    # the certificate on the assembled operators: every off-diagonal entry
    # strictly negative, every row sum positive, and nothing else reported
    for table, op in tables_and_ops:
        off = op[~np.eye(op.shape[0], dtype=bool)]
        rep = check_max_principle_structure(op)
        assert rep.z_pattern and rep.row_sums_positive and rep.monotone_probe, table.grid.m
        assert (rep.min_offdiag, rep.max_offdiag) == (off.min(), off.max()), table.grid.m
        assert rep.max_offdiag < 0.0, table.grid.m
        assert set(rep.as_dict()) == {"z_pattern", "row_sums_positive", "monotone_probe",
                                      "min_offdiag", "max_offdiag"}


def test_adversarial_positive_offdiagonal_detected(tables_and_ops):
    # one positive off-diagonal entry breaks the Z pattern, though the row
    # sums stay positive, and the certificate then fails
    for table, op in tables_and_ops:
        bad = op.copy()
        bad[0, 1] = 1e-3 * abs(bad[0, 0])
        rep = check_max_principle_structure(bad)
        assert rep.row_sums_positive, table.grid.m
        assert not rep.z_pattern and not rep.monotone_probe, table.grid.m
        assert rep.max_offdiag == bad[0, 1], table.grid.m


def test_zero_rhs_unit_c_gives_zero_solution(op_small):
    n = op_small.shape[0]
    u = np.linalg.solve(op_small + np.eye(n), np.zeros(n))
    assert np.abs(u).max() == 0.0


def test_linear_solve_consistency(op_small, small_grid):
    rng = np.random.default_rng(5)
    g = rng.uniform(0.0, 1.0, op_small.shape[0])
    u = np.linalg.solve(op_small, g)
    p = OddProfile(small_grid, np.where(small_grid.inside(small_grid.R), u, u))
    # residual of the linear problem against the same operator
    lu = op_small @ u
    assert np.abs(lu - g).max() <= 1e-10 * np.abs(g).max()


def test_weak_maximum_principle_trials(tables_and_ops):
    # the independent reference for the certificate: random monotone solves
    # (M + diag(c)) u = g with c >= 0 and g >= 0 give u >= 0
    rng = np.random.default_rng(3)
    for table, op in tables_and_ops:
        assert check_max_principle_structure(op).monotone_probe, table.grid.m
        n = op.shape[0]
        scale = np.abs(np.diag(op)).max()
        for _ in range(20):
            c = rng.uniform(0.0, 0.1 * scale, n)
            u = np.linalg.solve(op + np.diag(c), rng.uniform(0.0, 1.0, n))
            assert u.min() >= -1e-10, table.grid.m


@st.composite
def _z_matrices(draw):
    """A small Z-matrix M with M 1 >= 0.1, and c >= 0, g >= 0 for a solve."""
    n = draw(st.integers(2, 6))
    M = draw(arrays(float, (n, n), elements=st.floats(-1.0, 0.0)))
    np.fill_diagonal(M, 0.0)
    margin = draw(arrays(float, n, elements=st.floats(0.1, 2.0)))
    np.fill_diagonal(M, margin - M.sum(axis=1))
    c = draw(arrays(float, n, elements=st.floats(0.0, 10.0)))
    g = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    return M, c, g


@given(case=_z_matrices())
@settings(max_examples=150, deadline=None)
def test_certificate_holds_and_monotone_solves_agree_on_random_z_matrices(case):
    M, c, g = case
    assert check_max_principle_structure(M).monotone_probe
    assert np.linalg.solve(M + np.diag(c), g).min() >= -1e-10


@given(case=_z_matrices(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_positive_offdiagonal_entry_fails_the_certificate(case, data):
    M = case[0]
    n = M.shape[0]
    i = data.draw(st.integers(0, n - 1))
    j = (i + data.draw(st.integers(1, n - 1))) % n
    M[i, j] = data.draw(st.floats(5e-324, 1.0))
    rep = check_max_principle_structure(M)
    assert not rep.z_pattern and not rep.monotone_probe


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


def test_zero_matrix_fails_the_certificate(op_small):
    # a Z pattern with zero row sums: singular, so no certificate; the
    # report stays plain JSON
    for n in (2, op_small.shape[0]):
        rep = check_max_principle_structure(np.zeros((n, n)))
        assert rep.z_pattern and not rep.row_sums_positive and not rep.monotone_probe, n
        assert json.loads(json.dumps(rep.as_dict(), allow_nan=False)) == rep.as_dict()


@pytest.mark.parametrize("n", [2, 3, 64])
def test_offdiagonal_extremes_read_every_offdiagonal_entry(n, tables_and_ops):
    # the strided off-diagonal view against the mask, on any memory order; a
    # diagonal that dominates every entry never leaks into the extremes
    rng = np.random.default_rng(n)
    mats = [op for _, op in tables_and_ops] + [rng.standard_normal((n, n))]
    for M in mats:
        M = M + np.diag(np.full(M.shape[0], 1e6 + np.abs(M).max()))
        off = M[~np.eye(M.shape[0], dtype=bool)]
        wide = np.zeros((M.shape[0], 2 * M.shape[0]))
        wide[:, ::2] = M
        for view in (M, np.asfortranarray(M), wide[:, ::2]):
            rep = check_max_principle_structure(view)
            assert (rep.min_offdiag, rep.max_offdiag) == (off.min(), off.max())


def test_assemble_matches_the_sparse_self_cell_formula(tables_and_ops):
    # oracle: the self-cell part added from a scipy.sparse C, duplicates summed
    import scipy.sparse as sp
    for table, op in tables_and_ops:
        grid, mu = table.grid, table.grid.weights
        k, nb, c = self_cell_edges(table, grid.inside(grid.R))
        C = sp.coo_matrix((np.concatenate([c, c, -c, -c]),
                           (np.concatenate([k, nb, k, nb]), np.concatenate([k, nb, nb, k]))),
                          shape=(grid.n_nodes,) * 2).tocsr().tocoo()
        want = table.D * -mu
        np.fill_diagonal(want, operator_diagonal(table))
        want[C.row, C.col] += C.data / (2.0 * mu[C.row])
        np.testing.assert_allclose(op, want, rtol=1e-15, atol=0.0)
