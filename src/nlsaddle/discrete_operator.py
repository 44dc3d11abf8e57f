"""The maximum-principle certificate of the odd-sector operator, from its table.

The operator on grid node values is the L of `energy`'s one quadratic form,

    (L u)_k = sum_{j != k} (u_k - u_j) D_kj mu_j + 2 u_k Z_k + (C u)_k / (2 mu_k),

which `EnergyModel` applies.  Off the diagonal L holds the kernel part
-D_kj mu_j plus the self-cell edges of C, which are nonpositive
(`self_cell_edges` keeps c > 0), and L 1 = 2 Z.  So D_kj >= 0 off the
diagonal and Z > 0, two facts of the table, certify the discrete maximum
principle with no solve and no assembled L.  `min_offdiag` and `max_offdiag`
are the kernel part's extremes over the rows of `KernelTable.d_rows` (at m=1,
where mu is constant, D's upper triangle); the edges only lower L's
nearest-neighbor entries below it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .energy import KernelTable


@dataclass
class MaxPrincipleReport:
    z_pattern: bool
    row_sums_positive: bool
    monotone_probe: bool
    min_offdiag: float
    max_offdiag: float

    def as_dict(self) -> dict:
        return asdict(self)


def check_max_principle_structure(table: KernelTable) -> MaxPrincipleReport:
    """M-matrix certificate of the discrete maximum principle for the L of `table`.

    z_pattern: D_kj >= 0 for every k != j, so L is a Z-matrix.
    row_sums_positive: Z > 0, so L 1 = 2 Z > 0.  A Z-matrix M with a positive
    vector v and M v > 0 is a nonsingular M-matrix, and so is M + diag(c)
    for every c >= 0 (the same v serves), so (M + diag(c))^-1 >= 0
    entrywise (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, 1994, Ch. 6): (M + diag(c)) u = g >= 0 gives u >= 0.
    monotone_probe is that conclusion, z_pattern and row_sums_positive.
    A one-node grid has no off-diagonal entry to certify: DomainError.
    """
    n, mu = table.grid.n_nodes, table.grid.weights
    if n < 2:
        raise DomainError(f"the operator certificate needs at least 2 nodes, the grid has {n}")
    lows, highs = [], []
    for lo, first, D in table.d_rows():
        block = D * -mu[first:]
        rows = np.arange(block.shape[0])
        diag = rows, rows + lo - first  # masked: the last row has no other entry right of it
        block[diag] = np.inf
        lows.append(block.min())
        block[diag] = -np.inf
        highs.append(block.max())
    max_offdiag = float(np.max(highs))
    z_pattern = bool(max_offdiag <= 0.0)
    row_sums_positive = bool(table.zero_order.min() > 0.0)
    return MaxPrincipleReport(z_pattern, row_sums_positive, z_pattern and row_sums_positive,
                              min_offdiag=float(np.min(lows)), max_offdiag=max_offdiag)
