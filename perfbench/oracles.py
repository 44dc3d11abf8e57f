"""Frozen accuracy oracles for the benchmark's kernel tables.

Every workload grid has a fixed probe set (chosen from the lattice, never
from the seed): node pairs whose tabulated P = kbar(x, y*) and
D = kbar(x, y) - kbar(x, y*) are compared with independent values, and
nodes whose tabulated zero-order coefficient is compared with a refined
`zero_order_coefficient`.

    m = 1   J is the 4-term sum over the sign choices, written here in the
            stable form (s -+ sigma)^2 + (t -+ tau)^2.
    m = 2   J is the Appell-F2 closed form, cross-checked at generation
            time against order-512 Gauss-Jacobi; near-coincident pairs,
            where the series overflows, use order 1024 checked against 512.
    Z       zero_order_coefficient with n_phi, n_rho and the J rule order
            doubled over the package defaults.

`regen_oracles.py` writes the values to `oracles.json`; the benchmark only
reads them.  Errors are floored at PAIR_FLOOR / ZERO_ORDER_FLOOR, the
resolution of the oracles, so that round-off does not register as a change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ORACLE_FILE = Path(__file__).with_name("oracles.json")

GAMMA = 0.5
# grid specs of the workloads; R_out keeps its default of 1.5 R
GRIDS = {
    "m1-R12-h0.25": {"m": 1, "R": 12.0, "h": 0.25},
    "m1-R12-h0.5": {"m": 1, "R": 12.0, "h": 0.5},
    "m2-R4-h0.5": {"m": 2, "R": 4.0, "h": 0.5},
}

# relative resolution of the oracles: the m=2 pair cross-checks agree to
# about 1e-11, and the refined zero-order values move by at most 3e-6 from
# the package defaults
PAIR_FLOOR = 1e-9
ZERO_ORDER_FLOOR = 1e-5

# probe positions as (fraction of R, polar angle in the outer octant)
_RADII = (0.15, 0.4, 0.7, 0.95, 1.3)
_ANGLES = (0.02, 0.35, 0.75)  # fraction of pi/4: near the axis ... near the cone
# refined zero-order nodes: a subset of the probe nodes
_ZERO_ORDER_PICK = (0, 2, 4, 7, 8, 10, 12, 14)


def make_kernel(m: int):
    from nlsaddle.kernels import fractional_kernel, standard_c_norm
    return fractional_kernel(GAMMA, m, standard_c_norm(GAMMA, m))


def make_grid(spec: dict):
    from nlsaddle.energy import build_grid
    return build_grid(spec["R"], spec["h"], spec["m"])


def probe_nodes(grid) -> list:
    """Lattice indices (i, j) of the fixed probe nodes of a grid."""
    index = grid.node_index()
    out = []
    for f in _RADII:
        for a in _ANGLES:
            r = f * grid.R
            phi = a * math.pi / 4.0
            i = int(r * math.cos(phi) / grid.h)
            j = min(int(r * math.sin(phi) / grid.h), i - 1)
            if j >= 0 and (i, j) in index and (i, j) not in out:
                out.append((i, j))
    return out


def probe_pairs(grid) -> list:
    """(i1, j1, i2, j2) lattice pairs: axis and diagonal neighbours, the
    reflected pair (x, x*) (stored as the node with itself), and a far
    partner, for every probe node."""
    index = grid.node_index()
    nodes = probe_nodes(grid)
    pairs = []
    for k, (i, j) in enumerate(nodes):
        partners = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1),
                    nodes[(k + 7) % len(nodes)]]
        for q in partners:
            if q in index and (i, j, *q) not in pairs:
                pairs.append((i, j, *q))
    return pairs


def j_four_term(kernel, s, t, sig, tau) -> float:
    """m = 1: J as the exact sum over the four sign choices."""
    from nlsaddle.kernels import eval_kernel
    total = 0.0
    for a in (s - sig, s + sig):
        for b in (t - tau, t + tau):
            total += eval_kernel(kernel, math.sqrt(a * a + b * b))
    return total


def j_appell(kernel, s, t, sig, tau) -> float:
    """m >= 2: the Appell-F2 closed form; NaN where its series cannot be
    summed in floating point (near-coincident pairs, x + y close to 1)."""
    from nlsaddle.doubly_radial import j_kernel_appell
    from nlsaddle.errors import ConvergenceError
    try:
        with np.errstate(all="ignore"):
            return j_kernel_appell(kernel.gamma, kernel.m, (s, t), (sig, tau),
                                   series_tol=1e-15, c_norm=kernel.c_norm)
    except ConvergenceError:
        return math.nan


def j_gauss_jacobi(kernel, s, t, sig, tau, order: int = 512) -> float:
    from nlsaddle.doubly_radial import gauss_jacobi_rule, j_values
    return float(j_values(kernel, s, t, sig, tau, gauss_jacobi_rule(order, kernel.m)))


def _j_oracle(kernel, s, t, sig, tau) -> tuple[float, str, float]:
    """(J, source, cross-check gap) for one orbit pair.

    m >= 2 uses Appell-F2 checked against order-512 Gauss-Jacobi; where the
    series cannot be summed, order-1024 Gauss-Jacobi checked against 512.
    """
    if kernel.m == 1:
        return j_four_term(kernel, s, t, sig, tau), "four-term", 0.0
    check = j_gauss_jacobi(kernel, s, t, sig, tau, 512)
    value, source = j_appell(kernel, s, t, sig, tau), "appell-f2"
    if not math.isfinite(value):
        value, source = j_gauss_jacobi(kernel, s, t, sig, tau, 1024), "gauss-jacobi-1024"
    return value, source, abs(check - value) / value


def pair_reference(kernel, grid, pair) -> dict:
    """Oracle P and D of one lattice pair, with the m >= 2 cross-check."""
    from nlsaddle.doubly_radial import omega_sphere
    i1, j1, i2, j2 = pair
    h = grid.h
    s, t, sig, tau = ((i1 + 0.5) * h, (j1 + 0.5) * h, (i2 + 0.5) * h, (j2 + 0.5) * h)
    om2 = omega_sphere(kernel.m) ** 2
    swapped, src_sw, gap_sw = _j_oracle(kernel, s, t, tau, sig)
    if (i1, j1) == (i2, j2):
        direct, src_di, gap_di = swapped, src_sw, gap_sw
    else:
        direct, src_di, gap_di = _j_oracle(kernel, s, t, sig, tau)
    return {"pair": list(pair), "P": swapped / om2, "D": (direct - swapped) / om2,
            "source": sorted({src_sw, src_di}), "cross_check": max(gap_sw, gap_di)}


def zero_order_reference(kernel, grid, node) -> dict:
    """Refined zero-order coefficient of one lattice node, and the value at
    the package defaults (their gap bounds the oracle's own error)."""
    from nlsaddle.doubly_radial import gauss_jacobi_rule, zero_order_coefficient
    i, j = node
    p = ((i + 0.5) * grid.h, (j + 0.5) * grid.h)
    refined = zero_order_coefficient(kernel, p, grid.R_out,
                                     rule=gauss_jacobi_rule(64, kernel.m),
                                     n_phi=320, n_rho=48)
    default = zero_order_coefficient(kernel, p, grid.R_out)
    return {"node": list(node), "Z": refined, "default_gap": abs(default - refined) / refined}


def zero_order_probe_nodes(grid) -> list:
    nodes = probe_nodes(grid)
    return [nodes[k] for k in _ZERO_ORDER_PICK if k < len(nodes)]


def load(path: Path = ORACLE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def pair_rel_err(table, ref: dict) -> float:
    """max over the probe pairs of |dP|/P and |dD|/(D+P), floored."""
    index = table.grid.node_index()
    worst = 0.0
    for row in ref["pairs"]:
        i1, j1, i2, j2 = row["pair"]
        a, b = index[(i1, j1)], index[(i2, j2)]
        worst = max(worst, abs(table.P[a, b] - row["P"]) / row["P"])
        if a != b:
            worst = max(worst, abs(table.D[a, b] - row["D"]) / (row["D"] + row["P"]))
    return max(worst, PAIR_FLOOR)


def zero_order_rel_err(table, ref: dict) -> float:
    """max relative error of table.zero_order at the probe nodes, floored."""
    index = table.grid.node_index()
    zo = table.zero_order
    worst = max(abs(zo[index[tuple(row["node"])]] - row["Z"]) / row["Z"]
                for row in ref["zero_order"])
    return max(float(worst), ZERO_ORDER_FLOOR)


def grid_key(grid) -> str:
    """The GRIDS key of a workload grid (KeyError for any other grid)."""
    for key, spec in GRIDS.items():
        if (spec["m"], spec["R"], spec["h"]) == (grid.m, grid.R, grid.h) \
                and np.isclose(grid.R_out, 1.5 * spec["R"]):
            return key
    raise KeyError(f"no frozen oracle for grid m={grid.m} R={grid.R} h={grid.h}")
