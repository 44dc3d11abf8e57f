"""Dense assembly of the odd-sector operator and its structure checks.

The operator on grid node values is the L of `energy`'s one quadratic form,

    (L u)_k = sum_{j != k} (u_k - u_j) D_kj mu_j + 2 u_k Z_k + (C u)_k / (2 mu_k),

with D the tabulated kernel difference, Z the zero-order coefficient
(polar integral + tail) and C = `self_cell_matrix` over every node cell.
`assemble` returns L as a plain array, the one the checks take.  Row sums
equal 2 Z_k exactly (the difference and self-cell parts annihilate
constants), all off-diagonal entries are nonpositive when the kernel
difference is nonnegative, and the matrix is then a strictly diagonally
dominant Z-matrix, hence monotone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .energy import Grid, KernelTable, operator_diagonal, self_cell_matrix

_OFFDIAG_TOL = 1e-12
# cells kept between the probe nodes and both the cone and |x| = R
_PROBE_MARGIN_CELLS = 2.0


def assemble(table: KernelTable) -> np.ndarray:
    """Dense operator over all nodes of `table.grid` (band rows included).

    Its rows at the nodes inside B_R are the solver's L (grad E / (2 mu) =
    L u - f(u) from `EnergyModel`) except where a self-cell edge owned by a
    band node reaches into B_R.  Band neighbors step outward unless the
    outer node is missing: at the rim |x| ~ R_out, and on the cone row
    j = i - 1, whose t-neighbor is (i, j - 1).  With R_out - R over a cell,
    only cone-row rows within a cell of |x| = R differ (on the small test
    grid, node (6, 4) by 4 % of sup |L u - f(u)|); the nodes of
    `probe_nodes` are never such rows.
    """
    grid = table.grid
    mu = grid.weights
    M = -table.D * mu[None, :]
    np.fill_diagonal(M, operator_diagonal(table))
    C = self_cell_matrix(table, np.arange(grid.n_nodes)).tocoo()
    M[C.row, C.col] += C.data / (2.0 * mu[C.row])
    return M


@dataclass
class MaxPrincipleReport:
    z_pattern: bool
    row_sums_positive: bool
    monotone_probe: bool
    min_offdiag: float
    max_offdiag: float
    n_trials: int
    min_solution_value: float | None  # None when no probe solve succeeded
    solve_failures: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def check_max_principle_structure(M: np.ndarray, n_trials: int = 100,
                                  seed: int = 0) -> MaxPrincipleReport:
    """Z sign pattern, positive row sums, and randomized monotone solves of
    the assembled operator M.

    Each probe solves (M + diag(c)) u = g with random c >= 0, g >= 0 and
    checks u >= -1e-10; singular solves are reported, not fatal.
    """
    n = M.shape[0]
    off = M[~np.eye(n, dtype=bool)]
    scale = float(np.abs(np.diag(M)).max())
    z_pattern = bool(off.max() <= _OFFDIAG_TOL * scale)
    row_sums_positive = bool(M.sum(axis=1).min() > 0.0)

    rng = np.random.default_rng(seed)
    min_val = math.inf
    failures = 0
    ok = True
    for _ in range(n_trials):
        c = rng.uniform(0.0, 1.0, size=n) * scale * 0.1
        g = rng.uniform(0.0, 1.0, size=n)
        try:
            u = np.linalg.solve(M + np.diag(c), g)
        except np.linalg.LinAlgError:
            failures += 1
            continue
        m = float(u.min())
        min_val = min(min_val, m)
        if m < -1e-10:
            ok = False
    return MaxPrincipleReport(
        z_pattern=z_pattern, row_sums_positive=row_sums_positive,
        monotone_probe=ok and failures == 0,
        min_offdiag=float(off.min()), max_offdiag=float(off.max()),
        n_trials=n_trials,
        min_solution_value=min_val if min_val is not math.inf else None,
        solve_failures=failures)


def probe_nodes(grid: Grid) -> np.ndarray:
    """Nodes away from the cone and from the support boundary.

    Excludes nodes within _PROBE_MARGIN_CELLS * h of the cone and of the
    sphere |x| = R (where the zero-order coefficient blows up, respectively
    where the Dirichlet cut dominates).
    """
    margin = _PROBE_MARGIN_CELLS * grid.h
    keep = (grid.cone_dist > margin) & (grid.radius < grid.R - margin)
    return np.where(keep)[0]
