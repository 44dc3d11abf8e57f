"""Regenerate perfbench/oracles.json, the frozen accuracy oracles.

    PYTHONPATH=src python3 perfbench/regen_oracles.py

Takes about a minute (the m=2 refined zero-order values dominate).  The
probe sets are fixed by the lattice; see oracles.py.  Refuses to write if
an m=2 pair oracle and its Gauss-Jacobi cross-check disagree by more than
CROSS_CHECK_TOL, or if a refined zero-order value differs from the one at
the package defaults by more than ZERO_ORDER_FLOOR: that gap bounds the
refined value's own error, so the floor must cover it.
"""

from __future__ import annotations

import json
import sys

import oracles

CROSS_CHECK_TOL = 1e-10


def regenerate() -> dict:
    out = {"gamma": oracles.GAMMA, "pair_floor": oracles.PAIR_FLOOR,
           "zero_order_floor": oracles.ZERO_ORDER_FLOOR, "grids": {}}
    for key, spec in oracles.GRIDS.items():
        kernel = oracles.make_kernel(spec["m"])
        grid = oracles.make_grid(spec)
        pairs = [oracles.pair_reference(kernel, grid, p) for p in oracles.probe_pairs(grid)]
        bad = [r for r in pairs if r["cross_check"] > CROSS_CHECK_TOL]
        if bad:
            raise SystemExit(f"{key}: Appell-F2 and Gauss-Jacobi disagree: {bad[:3]}")
        zero = [oracles.zero_order_reference(kernel, grid, n)
                for n in oracles.zero_order_probe_nodes(grid)]
        coarse = [r for r in zero if r["default_gap"] > oracles.ZERO_ORDER_FLOOR]
        if coarse:
            raise SystemExit(f"{key}: zero-order oracle not resolved to its floor: {coarse}")
        out["grids"][key] = {**spec, "R_out": grid.R_out, "pairs": pairs, "zero_order": zero}
        print(f"{key}: {len(pairs)} pairs, {len(zero)} zero-order nodes, "
              f"max cross-check {max(r['cross_check'] for r in pairs):.2e}, "
              f"max default gap {max(r['default_gap'] for r in zero):.2e}", file=sys.stderr)
    return out


if __name__ == "__main__":
    data = regenerate()
    with open(oracles.ORACLE_FILE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
