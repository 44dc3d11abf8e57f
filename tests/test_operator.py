import json

import numpy as np
import pytest

from nlsaddle.kernels import fractional_kernel
from nlsaddle.doubly_radial import zero_order_coefficient
from nlsaddle.energy import EnergyModel, OddProfile, allen_cahn, zero_profile
from nlsaddle.discrete_operator import (assemble, check_max_principle_structure,
                                        probe_nodes)

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
    for table, op in tables_and_ops:
        rep = check_max_principle_structure(op, n_trials=25, seed=1)
        assert rep.z_pattern and rep.row_sums_positive and rep.monotone_probe, table.grid.m
        assert rep.max_offdiag <= 0.0 + 1e-15, table.grid.m
        assert rep.min_solution_value >= -1e-10, table.grid.m
        assert rep.solve_failures == 0, table.grid.m


def test_adversarial_positive_offdiagonal_detected(op_small):
    bad = op_small.copy()
    i, j = 0, 1
    bad[i, j] = abs(bad[i, j]) + 1e-3 * abs(bad[i, i])
    rep = check_max_principle_structure(bad, n_trials=2, seed=0)
    assert rep.z_pattern is False


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


def test_probe_nodes_exclusions(medium_grid):
    pr = probe_nodes(medium_grid)
    assert pr.size > 0
    assert (medium_grid.cone_dist[pr] > 2 * medium_grid.h).all()
    assert (medium_grid.radius[pr] < medium_grid.R - 2 * medium_grid.h).all()


def test_weak_maximum_principle_trials(op_small):
    rep = check_max_principle_structure(op_small, n_trials=100, seed=3)
    assert rep.monotone_probe
    assert rep.min_solution_value >= -1e-10


@pytest.mark.parametrize("name", ["small", "m2"])
def test_solver_gradient_is_assembled_operator(name, request):
    # grad E / (2 mu) = L u - f(u) with the same L on the probe nodes
    table = request.getfixturevalue(f"{name}_table")
    g = table.grid
    model = EnergyModel(table, allen_cahn())
    u = np.random.default_rng(6).uniform(0, 1, model.iin.size)
    _, grad = model.value_and_grad(u)
    w = model.embed(u).values
    lf = assemble(table) @ w - allen_cahn().f(w)
    probes = probe_nodes(g)
    assert probes.size
    at = np.searchsorted(model.iin, probes)
    assert np.array_equal(model.iin[at], probes)
    scale = np.abs(lf[model.iin]).max()
    assert np.abs(grad[at] / (2.0 * model.mu[at]) - lf[probes]).max() <= 1e-12 * scale


def test_no_successful_probe_gives_a_null_minimum(op_small):
    # a zero matrix makes every probe solve singular; the minimum is then
    # None (null in the report), not NaN, which JSON cannot carry
    rep = check_max_principle_structure(np.zeros_like(op_small), n_trials=3, seed=0)
    assert rep.solve_failures == 3 and not rep.monotone_probe
    assert rep.min_solution_value is None
    assert json.loads(json.dumps(rep.as_dict(), allow_nan=False))["min_solution_value"] is None
