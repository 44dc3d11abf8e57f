import json
from dataclasses import replace

import numpy as np
import pytest

from nlsaddle.errors import DomainError
from nlsaddle.kernels import fractional_kernel
from nlsaddle.doubly_radial import zero_order_coefficient
from nlsaddle.energy import (EnergyModel, OddProfile, allen_cahn, build_grid,
                             build_kernel_table, zero_profile)
from nlsaddle.discrete_operator import (apply_operator, assemble,
                                        check_max_principle_structure,
                                        probe_nodes, residual)

K1 = fractional_kernel(0.5, 1)


@pytest.fixture(scope="module")
def op_small(small_grid, small_table):
    return assemble(small_grid, small_table)


def test_row_sums_equal_zero_order(op_small):
    rows = op_small.row_sums()
    assert np.allclose(rows, 2.0 * op_small.zero_order, rtol=1e-12)
    assert rows.min() > 0.0


def test_row_sums_match_independent_integral(small_grid, op_small):
    rows = op_small.row_sums()
    zoc = np.array([zero_order_coefficient(K1, (s, t), small_grid.R_out)
                    for s, t in zip(small_grid.s, small_grid.t)])
    rel = np.abs(rows - 2.0 * zoc) / (2.0 * zoc)
    assert rel.max() <= 1e-3


def test_z_sign_pattern(op_small):
    M = op_small.matrix
    off = M[~np.eye(op_small.n, dtype=bool)]
    assert off.max() <= 1e-12 * np.abs(np.diag(M)).max()


def test_apply_zero_profile(op_small, small_grid):
    assert np.all(apply_operator(op_small, zero_profile(small_grid)) == 0.0)


def test_apply_constant_profile(op_small, small_grid):
    # constant on the whole outer octant (raw values; no support truncation):
    # the difference and local parts annihilate constants
    c = 0.83
    out = apply_operator(op_small, np.full(small_grid.n_nodes, c))
    assert np.allclose(out, 2.0 * c * op_small.zero_order, rtol=1e-10)


def test_apply_linearity(op_small, small_grid):
    rng = np.random.default_rng(0)
    u = rng.uniform(0, 1, small_grid.n_nodes)
    v = rng.uniform(0, 1, small_grid.n_nodes)
    a, b = 1.3, -0.4
    lhs = apply_operator(op_small, a * u + b * v)
    rhs = a * apply_operator(op_small, u) + b * apply_operator(op_small, v)
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
    out = apply_operator(op_small, p)
    off = ~np.eye(small_grid.n_nodes, dtype=bool)
    delta = small_table.D[off].min() * p.values.max() * small_grid.weights.min()
    assert delta > 0
    assert out[x0] <= -delta


def test_max_principle_structure_report(op_small):
    rep = check_max_principle_structure(op_small, n_trials=25, seed=1)
    assert rep.z_pattern and rep.row_sums_positive and rep.monotone_probe
    assert rep.max_offdiag <= 0.0 + 1e-15
    assert rep.min_solution_value >= -1e-10
    assert rep.solve_failures == 0


def test_adversarial_positive_offdiagonal_detected(op_small):
    import copy
    bad = copy.deepcopy(op_small)
    i, j = 0, 1
    bad.matrix[i, j] = abs(bad.matrix[i, j]) + 1e-3 * abs(bad.matrix[i, i])
    rep = check_max_principle_structure(bad, n_trials=2, seed=0)
    assert rep.z_pattern is False


def test_zero_rhs_unit_c_gives_zero_solution(op_small):
    n = op_small.n
    u = np.linalg.solve(op_small.matrix + np.eye(n), np.zeros(n))
    assert np.abs(u).max() == 0.0


def test_linear_solve_consistency(op_small, small_grid):
    rng = np.random.default_rng(5)
    g = rng.uniform(0.0, 1.0, op_small.n)
    u = np.linalg.solve(op_small.matrix, g)
    p = OddProfile(small_grid, np.where(small_grid.inside(small_grid.R), u, u))
    # residual of the linear problem against the same operator
    lu = op_small.matrix @ u
    assert np.abs(lu - g).max() <= 1e-10 * np.abs(g).max()


def test_residual_zero_profile(op_small, small_grid):
    pr = probe_nodes(small_grid)
    rep = residual(op_small, zero_profile(small_grid), allen_cahn(), pr)
    assert rep.sup == 0.0  # f(0) = 0


def test_residual_requires_probes(op_small, small_grid):
    with pytest.raises(DomainError):
        residual(op_small, zero_profile(small_grid), allen_cahn(), np.array([], dtype=int))


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
    lf = assemble(g, table).matrix @ w - allen_cahn().f(w)
    probes = probe_nodes(g)
    assert probes.size
    at = np.searchsorted(model.iin, probes)
    assert np.array_equal(model.iin[at], probes)
    scale = np.abs(lf[model.iin]).max()
    assert np.abs(grad[at] / (2.0 * model.mu[at]) - lf[probes]).max() <= 1e-12 * scale


def test_no_successful_probe_gives_a_null_minimum(op_small):
    # a zero matrix makes every probe solve singular; the minimum is then
    # None (null in the report), not NaN, which JSON cannot carry
    zero = replace(op_small, matrix=np.zeros_like(op_small.matrix))
    rep = check_max_principle_structure(zero, n_trials=3, seed=0)
    assert rep.solve_failures == 3 and not rep.monotone_probe
    assert rep.min_solution_value is None
    assert json.loads(json.dumps(rep.as_dict(), allow_nan=False))["min_solution_value"] is None
