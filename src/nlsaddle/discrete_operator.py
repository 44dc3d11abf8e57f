"""Dense assembly of the odd-sector operator and its structure checks.

The operator on grid node values is the L of `energy`'s one quadratic form,

    (L u)_k = sum_{j != k} (u_k - u_j) D_kj mu_j + 2 u_k Z_k + (C u)_k / (2 mu_k),

with D the tabulated kernel difference, Z the zero-order coefficient
(zero-order integral + tail) and C the `self_cell_edges` owned by the nodes
in B_R, as in the energy.  `assemble` returns L as a plain array, the one
the checks take, and is the one reader of the table's dense D: at m=1 the
table gathers it on this first read (n^2 memory, under the table's cap),
where the energy and the solver take D only as products.  Its diagonal
comes from the same dense rows it negates.  Row sums equal 2 Z_k exactly
(the difference and self-cell parts annihilate constants), and all
off-diagonal entries are nonpositive when the kernel difference is
nonnegative.  `check_max_principle_structure`
certifies the discrete maximum principle from these two facts alone, with
no solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .energy import KernelTable, self_cell_edges


def assemble(table: KernelTable) -> np.ndarray:
    """Dense operator over all nodes of `table.grid` (band rows included).

    Its rows at the nodes inside B_R are the solver's L: grad E / (2 mu) =
    L u - f(u) from `EnergyModel`.  Band rows carry only the self-cell edges
    owned by those free nodes.
    """
    grid = table.grid
    mu = grid.weights
    D = table.D
    M = D * -mu
    np.fill_diagonal(M, D @ mu + 2.0 * table.zero_order)
    k, nb, c = self_cell_edges(table, grid.inside(grid.R))
    row, col = np.concatenate([k, nb, k, nb]), np.concatenate([k, nb, nb, k])
    np.add.at(M, (row, col), np.concatenate([c, c, -c, -c]) / (2.0 * mu[row]))
    return M


@dataclass
class MaxPrincipleReport:
    z_pattern: bool
    row_sums_positive: bool
    monotone_probe: bool
    min_offdiag: float
    max_offdiag: float

    def as_dict(self) -> dict:
        return asdict(self)


def check_max_principle_structure(M: np.ndarray) -> MaxPrincipleReport:
    """M-matrix certificate of the discrete maximum principle for M.

    z_pattern: every off-diagonal entry is <= 0 (M is a Z-matrix).
    row_sums_positive: M 1 > 0.  A Z-matrix with a positive vector v and
    M v > 0 is a nonsingular M-matrix, and so is M + diag(c) for every
    c >= 0 (the same v serves), so (M + diag(c))^-1 >= 0 entrywise
    (Berman & Plemmons, Nonnegative Matrices in the Mathematical Sciences,
    1994, Ch. 6): (M + diag(c)) u = g >= 0 gives u >= 0.
    monotone_probe is that conclusion, z_pattern and row_sums_positive.
    A one-node grid has no off-diagonal entry to certify: DomainError.
    The off-diagonal entries are the strided view of M in C order whose row
    k runs from M[k, k + 1] up to M[k + 1, k].
    """
    n = M.shape[0]
    if n < 2:
        raise DomainError(f"the operator certificate needs at least 2 nodes, the grid has {n}")
    off = np.ascontiguousarray(M).ravel()[1:].reshape(n - 1, n + 1)[:, :n]
    z_pattern = bool(off.max() <= 0.0)
    row_sums_positive = bool(M.sum(axis=1).min() > 0.0)
    return MaxPrincipleReport(
        z_pattern=z_pattern, row_sums_positive=row_sums_positive,
        monotone_probe=z_pattern and row_sums_positive,
        min_offdiag=float(off.min()), max_offdiag=float(off.max()))
