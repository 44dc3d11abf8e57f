"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402

STORED = oracles.load()


@pytest.mark.parametrize("key", sorted(oracles.GRIDS))
def test_stored_probe_sets_are_the_fixed_ones(key):
    grid = oracles.make_grid(oracles.GRIDS[key])
    stored = STORED["grids"][key]
    assert [tuple(r["pair"]) for r in stored["pairs"]] == oracles.probe_pairs(grid)
    assert [tuple(r["node"]) for r in stored["zero_order"]] == oracles.zero_order_probe_nodes(grid)


@pytest.mark.parametrize("key", sorted(oracles.GRIDS))
def test_oracle_subset_regenerates(key):
    spec = oracles.GRIDS[key]
    kernel = oracles.make_kernel(spec["m"])
    grid = oracles.make_grid(spec)
    stored = STORED["grids"][key]
    # near neighbours, the reflected pair and a far pair of the first nodes,
    # plus any pair whose m=2 oracle falls back to Gauss-Jacobi
    rows = stored["pairs"][:6] + [r for r in stored["pairs"]
                                  if "gauss-jacobi-1024" in r["source"]][:2]
    for row in rows:
        fresh = oracles.pair_reference(kernel, grid, tuple(row["pair"]))
        assert fresh["P"] == pytest.approx(row["P"], rel=1e-12)
        assert fresh["D"] == pytest.approx(row["D"], rel=1e-12, abs=1e-12 * row["P"])
        assert fresh["cross_check"] <= 1e-10
    first = stored["zero_order"][0]
    fresh = oracles.zero_order_reference(kernel, grid, tuple(first["node"]))
    assert fresh["Z"] == pytest.approx(first["Z"], rel=1e-12)
    assert fresh["default_gap"] <= oracles.ZERO_ORDER_FLOOR


def test_m1_oracle_is_the_four_term_sum():
    # the stable form agrees with the package's m=1 rule far from the diagonal
    from nlsaddle.doubly_radial import gauss_jacobi_rule, j_values
    kernel = oracles.make_kernel(1)
    args = (3.25, 1.75, 0.75, 0.25)
    pkg = float(j_values(kernel, *args, gauss_jacobi_rule(2, 1)))
    assert oracles.j_four_term(kernel, *args) == pytest.approx(pkg, rel=1e-14)


def test_errors_are_floored_and_exact_tables_sit_on_the_floor():
    from nlsaddle.energy import build_kernel_table
    key = "m1-R12-h0.5"
    grid = oracles.make_grid(oracles.GRIDS[key])
    table = build_kernel_table(grid, oracles.make_kernel(1), assume_positive=True)
    ref = STORED["grids"][key]
    assert oracles.pair_rel_err(table, ref) == oracles.PAIR_FLOOR
    assert oracles.ZERO_ORDER_FLOOR < oracles.zero_order_rel_err(table, ref) < 1e-3
    row = ref["pairs"][1]
    a, b = (grid.node_index()[tuple(row["pair"][k:k + 2])] for k in (0, 2))
    table.P[a, b] *= 1.0 + 1e-6
    assert oracles.pair_rel_err(table, ref) == pytest.approx(1e-6, rel=1e-3)


def _span(name, start, end, parent=-1, caller="f", **attrs):
    return tr.Span(name, start, end, parent, caller, attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 3.0, 0),
             _span("c", 2.0, 4.0, 0),      # overlaps b: counted once
             _span("d", 2.5, 2.75, 1),     # grandchild: not a child of a
             _span("e", 6.0, 7.0, 0),
             _span("f", 9.5, 11.0, 0)]     # clipped at the parent's end
    assert tr.self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 1.75, 2.0,
                                                  0.25, 1.0, 1.5])


def test_layer_metrics_group_j_values_and_skip_recursion():
    j = "doubly_radial.j_values"
    b = "energy.build_kernel_table"
    spans = [_span(b, 0.0, 10.0, bytes=800),
             _span(j, 1.0, 2.0, 0, kernel_evals=40, group="pair"),
             _span(j, 2.0, 5.0, 0, kernel_evals=7, group="zero_order"),
             _span(j, 5.0, 6.0, 0, kernel_evals=5, group="zero_order"),
             _span(j, 6.0, 6.5, 0, kernel_evals=1, group="other"),
             _span(b, 7.0, 8.0, 0),      # nested call of the same function
             _span(b, 20.0, 21.0, bytes=1600)]
    m = tr.layer_metrics(spans, reps=1)
    assert m["doubly_radial.j_values.pair.calls"] == 1
    assert m["doubly_radial.j_values.pair.kernel_evals"] == 40
    assert m["doubly_radial.j_values.zero_order.calls"] == 2
    assert m["doubly_radial.j_values.zero_order.kernel_evals"] == 12
    assert m["doubly_radial.j_values.zero_order.s"] == pytest.approx(4.0)
    assert m["doubly_radial.j_values.other.calls"] == 1
    assert m[f"{b}.calls"] == 3
    assert m[f"{b}.s"] == pytest.approx(11.0)
    assert m[f"{b}.self_s"] == pytest.approx(10.0 - 5.5 - 1.0 + 1.0 + 1.0)
    assert m["energy.table.bytes"] == 1600
    assert m["cli.run.solve.exit"] == -1
    half = tr.layer_metrics(spans, reps=2)
    assert half[f"{b}.calls"] == 1.5 and half["energy.table.bytes"] == 1600


def _tiny_pipeline(tmp_path):
    from nlsaddle import cli, doubly_radial as dr, kernels as K
    cfg = cli.RunConfig(kernel={"family": "fractional", "gamma": 0.5, "m": 1,
                                "c_norm": "standard"},
                        grid={"R": 7.0, "h": 1.0},
                        experiment={"S_list": "2,2.5,2.75,3", "mp_trials": 3})
    for sub in ("solve", "energy-scan", "competitor", "check-operator"):
        assert cli.run(sub, cfg, tmp_path, seed=1) in (0, 2)
    k2 = K.fractional_kernel(0.5, 2, K.standard_c_norm(0.5, 2))
    K.check_sqrt_convexity(k2)
    dr.verify_kernel_inequality(k2, seed=1, n_samples=8)
    dr.kernel_difference(k2, (2.0, 1.0), (1.5, 0.5))


def test_no_call_escapes_the_wrappers(tmp_path):
    import nlsaddle.cli  # noqa: F401  (loads every layer)
    tracing = tr.Tracer()
    tracing.install()
    try:
        originals = dict(tracing.wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("nlsaddle"):
                for attr, obj in vars(mod).items():
                    assert not any(obj is fn for fn in originals.values()), \
                        f"{mod_name}.{attr} still binds an unwrapped function"
        names = {fn.__code__: name for name, fn in originals.items()}
        seen = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                seen[names[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            _tiny_pipeline(tmp_path)
        finally:
            sys.setprofile(None)
    finally:
        tracing.uninstall()
    traced = Counter(s.name for s in tracing.spans)
    assert traced == seen
    assert traced["doubly_radial.j_values"] > 0 and traced["cli.run"] == 4
    assert traced["energy.build_kernel_table"] == 4
    groups = Counter(s.attrs["group"] for s in tracing.spans
                     if s.name == "doubly_radial.j_values")
    # kernel_difference is the only caller outside the named groups
    assert set(groups) == {"pair", "zero_order", "self_cell", "oracle", "inequality", "other"}
    assert groups["other"] == 2
    # uninstall restored every binding
    from nlsaddle.energy import EnergyModel
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("nlsaddle"):
            assert not any(hasattr(obj, "__wrapped__") for obj in vars(mod).values())
    assert not hasattr(EnergyModel.value_and_grad, "__wrapped__")


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    emitted = list(tr.layer_metrics([], 1)) + list(run.TRACE_EXTRAS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in emitted}
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"])
