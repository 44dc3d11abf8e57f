"""The command line run from a plain INI file: exit statuses and reports."""

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from nlsaddle import cli, doubly_radial as dr, energy as en
from nlsaddle import kernels as K, solver as sv, svgplot
from nlsaddle.errors import ConfigError

SCHEMAS = Path(cli.__file__).with_name("schemas")

# R = 6 would be too small for two subcommands: energy-scan needs four radii
# S in [2, R - 4] (its fit leaves out the two smallest and needs two more), and
# competitor (at its default S = 2) needs S + 4 < R
INI = """\
[kernel]
family = fractional
gamma = 0.5
m = 1
c_norm = standard

[grid]
R = 7
h = 0.5
R_out = 10.5

[experiment]
S_list = 2, 2.5, 2.75, 3
"""

REPORTS = {"kernel-check": "convexity_report", "verify-inequality": "inequality_report",
           "solve": "solve_report",
           "energy-scan": "scan_report", "competitor": "competitor_report",
           "check-operator": "operator_report"}


def test_parse_config_keeps_key_case(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(INI)
    cfg = cli.parse_config(ini)
    assert cfg.grid["R"] == "7" and cfg.grid["R_out"] == "10.5"
    assert cfg.s_list() == [2.0, 2.5, 2.75, 3.0]


def _no_constant(name):
    raise ValueError(f"report carries {name}, which is not JSON")


def test_subcommands_run_from_ini(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(INI)
    out = tmp_path / "out"
    for sub, report in REPORTS.items():
        assert cli.main([sub, "--config", str(ini), "--out", str(out)]) == 0, sub
        body = json.loads((out / f"{report}.json").read_text(), parse_constant=_no_constant)
        schema = json.loads((SCHEMAS / f"{report}.schema.json").read_text())
        jsonschema.validate(body, schema)
    assert not (out / "diagnostic.json").exists()


def test_check_operator_runs_at_m2(tmp_path):
    # default settings: 200 reference nodes cap at the grid's 29, each with
    # the order-64 J of the refined zero-order reference
    ini = tmp_path / "run.ini"
    ini.write_text("[kernel]\nfamily = fractional\ngamma = 0.5\nm = 2\n\n"
                   "[grid]\nR = 3\nh = 0.5\n")
    out = tmp_path / "out"
    assert cli.main(["check-operator", "--config", str(ini), "--out", str(out)]) == 0
    body = json.loads((out / "operator_report.json").read_text(), parse_constant=_no_constant)
    jsonschema.validate(body, json.loads((SCHEMAS / "operator_report.schema.json").read_text()))
    assert (body["m"], body["n_zoc_reference_nodes"]) == (2, 29)


def test_check_operator_on_a_one_node_grid_gives_a_diagnostic(tmp_path):
    # R_out = 0.9 holds only the cell (1, 0): no off-diagonal entry to certify
    ini = tmp_path / "run.ini"
    ini.write_text("[kernel]\nfamily = fractional\ngamma = 0.5\nm = 1\n\n"
                   "[grid]\nR = 0.6\nh = 0.5\n")
    out = tmp_path / "out"
    assert cli.main(["check-operator", "--config", str(ini), "--out", str(out)]) == 1
    diag = json.loads((out / "diagnostic.json").read_text())
    jsonschema.validate(diag, json.loads((SCHEMAS / "diagnostic.schema.json").read_text()))
    assert diag["error"] == "DomainError" and "has 1" in diag["message"]
    assert not (out / "operator_report.json").exists()


def test_kernel_section_is_checked_by_the_kernel(tmp_path):
    # whatever the kernel refuses is one violation of the section, and a
    # value no key's parser reads one violation of that key
    ini = tmp_path / "run.ini"
    grid = "\n[grid]\nR = 7\nh = 0.5\n"
    (tmp_path / "kern.csv").write_text("r,K\n0.1,1000\n10,0.001\n")
    for bad, prefix in (("family = piecewise-counterexample\nc_norm = -1", "kernel: "),
                        ("gamma = 1.5\nm = 0", "kernel: "),
                        ("gamma = half", "kernel.gamma: "),
                        (f"family = tabulated\ntable = {tmp_path / 'missing.csv'}", "kernel: "),
                        (f"table = {tmp_path / 'kern.csv'}", "kernel: ")):
        ini.write_text(f"[kernel]\n{bad}\n" + grid)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(ini)
        assert len(err.value.violations) == 1, bad
        assert err.value.violations[0].startswith(prefix), bad


def test_ini_without_s_list_runs_at_small_radius(tmp_path):
    # S_list is checked against R > S + 4 only when the INI sets it
    ini = tmp_path / "run.ini"
    ini.write_text(INI.split("[experiment]")[0].replace("R = 7", "R = 12").replace(
        "R_out = 10.5", "R_out = 18"))
    out = tmp_path / "out"
    assert cli.main(["kernel-check", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "convexity_report.json").exists()


def test_energy_scan_without_s_list_takes_its_radii_from_r(tmp_path):
    # the default S_list is five radii from R/3 to R - 4, which every R > 6
    # admits: 4, 5, 6, 7, 8 at R = 12
    ini = tmp_path / "run.ini"
    ini.write_text(INI.split("[experiment]")[0].replace("R = 7", "R = 12").replace(
        "R_out = 10.5", "R_out = 18"))
    out = tmp_path / "out"
    for sub in ("solve", "energy-scan"):
        assert cli.main([sub, "--config", str(ini), "--out", str(out)]) == 0, sub
    body = json.loads((out / "scan_report.json").read_text())
    assert body["S_values"] == [4.0, 5.0, 6.0, 7.0, 8.0]
    # at R <= 6 no radius fits between R/3 and R - 4: the user is asked for S_list
    ini.write_text(INI.split("[experiment]")[0].replace("R = 7", "R = 6").replace(
        "R_out = 10.5", "R_out = 9"))
    assert cli.main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    assert cli.main(["energy-scan", "--config", str(ini), "--out", str(out)]) == 1
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["error"] == "ConfigError" and "set S_list" in diag["message"]


def _kernel_check_errors(tmp_path, capsys, ini_text, *flags):
    ini = tmp_path / "run.ini"
    ini.write_text(ini_text)
    code = cli.main(["kernel-check", "--config", str(ini), "--out", str(tmp_path / "out"),
                     *flags])
    return code, capsys.readouterr().err.splitlines()


def test_kernel_check_reads_a_table_only_over_its_range(tmp_path, capsys):
    # h(tau) = tau tabulated on r in [0.03, 32] covers the convexity grid but
    # not the ellipticity samples r in [1e-2, 1e2], which used to be refused
    # as extrapolation (exit 1); they are drawn over the table alone
    r = np.geomspace(0.03, 32.0, 200)
    (tmp_path / "kern.csv").write_text(
        "r,K\n" + "".join(f"{x!r},{x * x!r}\n" for x in r.tolist()))
    code, errors = _kernel_check_errors(
        tmp_path, capsys,
        f"[kernel]\nfamily = tabulated\ntable = {tmp_path / 'kern.csv'}\n[grid]\nR = 7\nh = 0.5\n")
    assert code == 2 and errors == []
    body = json.loads((tmp_path / "out" / "convexity_report.json").read_text())
    assert body["verdict"] == "convex-nonstrict"
    # K / r^-3 = r^5 over the table's own range
    assert body["ellipticity_min"] == pytest.approx(0.03 ** 5, rel=1e-9)
    assert body["ellipticity_max"] == pytest.approx(32.0 ** 5, rel=1e-9)


def test_kernel_check_samples_a_table_over_its_own_range(tmp_path, capsys):
    # K = r^-3 tabulated on r in [0.1, 100] misses tau < 0.01 of the default
    # convexity grid, which used to be refused as extrapolation (exit 1)
    r = np.geomspace(0.1, 100.0, 400)
    (tmp_path / "kern.csv").write_text(
        "r,K\n" + "".join(f"{x!r},{x ** -3.0!r}\n" for x in r.tolist()))
    code, errors = _kernel_check_errors(
        tmp_path, capsys,
        f"[kernel]\nfamily = tabulated\ntable = {tmp_path / 'kern.csv'}\n[grid]\nR = 7\nh = 0.5\n")
    assert code == 0 and errors == []
    body = json.loads((tmp_path / "out" / "convexity_report.json").read_text())
    assert body["verdict"] == "strictly-convex"
    assert body["ellipticity_min"] == pytest.approx(1.0, rel=1e-9)
    assert body["ellipticity_max"] == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("grid", ["R = 6\nh = 0.5\nR_out = inf", "R = 6\nh = 1e-7"],
                         ids=["R_out-inf", "lattice-past-cap"])
def test_grid_out_of_reach_is_one_grid_violation(tmp_path, capsys, grid):
    # an infinite R_out used to end in an OverflowError traceback, and h = 1e-7
    # in numpy's refusal to allocate a 57.6 PiB index lattice
    code, errors = _kernel_check_errors(tmp_path, capsys, f"[kernel]\n[grid]\n{grid}\n")
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("config error: grid: "), errors


@pytest.mark.parametrize("table", ["", "r,K\n1.0,2.0\n3.0\n"], ids=["empty", "one-column"])
def test_malformed_kernel_table_is_one_kernel_violation(tmp_path, capsys, table):
    (tmp_path / "kern.csv").write_text(table)
    code, errors = _kernel_check_errors(
        tmp_path, capsys,
        f"[kernel]\nfamily = tabulated\ntable = {tmp_path / 'kern.csv'}\n[grid]\nR = 7\nh = 0.5\n")
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("config error: kernel: "), errors


@pytest.mark.parametrize("sub", ["kernel-check", "solve"])
@pytest.mark.parametrize("kernel", ["c_norm = nan", "c_norm = inf", "table = kern.csv"])
def test_non_finite_kernel_value_is_one_kernel_violation(tmp_path, capsys, sub, kernel):
    # a NaN sample of the table, like a NaN c_norm, is refused by the kernel
    (tmp_path / "kern.csv").write_text("r,K\n0.1,1000\n1,nan\n10,0.001\n")
    if kernel.startswith("table"):
        kernel = f"family = tabulated\ntable = {tmp_path / 'kern.csv'}"
    ini = tmp_path / "run.ini"
    ini.write_text(f"[kernel]\n{kernel}\n[grid]\nR = 7\nh = 0.5\n")
    out = tmp_path / "out"
    assert cli.main([sub, "--config", str(ini), "--out", str(out)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("config error: kernel: "), errors
    assert not out.exists()


def test_overflowing_kernel_fails_kernel_check_with_a_report(tmp_path, capsys):
    # c_norm = 1e305 is finite, but K overflows on the sampled radii: the
    # gaps and margins are NaN, which the report writes as null
    code, errors = _kernel_check_errors(
        tmp_path, capsys, "[kernel]\nc_norm = 1e305\n[grid]\nR = 7\nh = 0.5\n")
    assert code == 2 and errors == []
    body = json.loads((tmp_path / "out" / "convexity_report.json").read_text(),
                      parse_constant=_no_constant)
    jsonschema.validate(body, json.loads((SCHEMAS / "convexity_report.schema.json").read_text()))
    assert body["verdict"] == "fails" and body["n_fail"] > 0
    assert body["min_rel_gap"] is None and body["witnesses"][0][2] is None
    assert body["ellipticity_min"] is None and body["ellipticity_max"] is None
    assert not (tmp_path / "out" / "diagnostic.json").exists()


@pytest.mark.parametrize("section, line", [
    ("solver", "mu0 = abc"), ("solver", "max_iters = many"), ("solver", "grad_tol = tiny"),
    ("solver", "R_schedule = 5, x"), ("solver", "assume_positive = perhaps"),
    ("solver", "seed = -1"), ("experiment", "zoc_nodes = abc"),
    ("experiment", "zoc_nodes = 0"), ("experiment", "n_samples = 1e4"),
    ("experiment", "competitor_s = far"), ("experiment", "S_list = 2, three")])
def test_bad_value_is_one_violation_naming_its_key(tmp_path, section, line):
    ini = tmp_path / "run.ini"
    ini.write_text(INI.split("[experiment]")[0] + f"\n[{section}]\n{line}\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(ini)
    key = line.split(" = ")[0]
    assert len(err.value.violations) == 1, err.value.violations
    assert err.value.violations[0].startswith(f"{section}.{key}: "), err.value.violations


@pytest.mark.parametrize("sub, section, raw", [
    ("verify-inequality", "experiment", {"n_samples": "many"}),
    ("check-operator", "experiment", {"zoc_nodes": "abc"}),
    ("kernel-check", "kernel", {"gamma": "half"})])
def test_bad_value_in_code_built_config_gives_a_diagnostic(tmp_path, sub, section, raw):
    sections = {"kernel": {"family": "fractional", "gamma": 0.5, "m": 1},
                "grid": {"R": 7.0, "h": 1.0}}
    sections.setdefault(section, {}).update(raw)
    assert cli.run(sub, cli.RunConfig(**sections), tmp_path, seed=1) == 1
    diag = json.loads((tmp_path / "diagnostic.json").read_text())
    jsonschema.validate(diag, json.loads((SCHEMAS / "diagnostic.schema.json").read_text()))
    assert next(iter(raw)) in diag["message"]


_S_LIST = "S_list = 2, 2.5, 2.75, 3"


@pytest.mark.parametrize("text, violation", [
    (INI.replace("R = 7\n", ""), "grid.R: required"),
    (None, "config file"),
    ("R = 7\n", "config file"),
    (INI.replace(_S_LIST, "S_list = 2, 2.5, 2.75, 3.5"), "experiment.S_list: need 4 or more"),
    (INI.replace(_S_LIST, "S_list = 2, 2.5, 3"), "experiment.S_list: need 4 or more"),
    (INI.replace(_S_LIST, "S_list = 2, 2.5, 3, 3"), "experiment.S_list: need 4 or more"),
    (INI + "competitor_s = 1.5\n", "experiment.competitor_s: need 2 <= S < R - 4"),
    (INI + "competitor_s = 3\n", "experiment.competitor_s: need 2 <= S < R - 4"),
], ids=["R-required", "missing-file", "no-section", "S_list-range", "S_list-count",
        "S_list-repeats", "competitor_s-low", "competitor_s-high"])
def test_config_check_refuses_with_one_violation(tmp_path, text, violation):
    # a radius a later subcommand would refuse is refused before any runs (R = 7)
    ini = tmp_path / "run.ini"
    if text is not None:
        ini.write_text(text)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(ini)
    assert len(err.value.violations) == 1, err.value.violations
    assert err.value.violations[0].startswith(violation), err.value.violations


def test_competitor_without_competitor_s_needs_r_above_6(tmp_path):
    # the default S = max(2, R - 6) meets S + 4 < R only for R > 6
    ini = tmp_path / "run.ini"
    ini.write_text(INI.split("[experiment]")[0].replace("R = 7", "R = 6").replace(
        "R_out = 10.5", "R_out = 9"))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    assert cli.main(["competitor", "--config", str(ini), "--out", str(out)]) == 1
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["error"] == "ConfigError"
    assert diag["message"].startswith("experiment.competitor_s: ")
    assert not (out / "competitor_report.json").exists()


def test_unknown_subcommand_gives_a_diagnostic(tmp_path):
    cfg = cli.RunConfig(kernel={"family": "fractional"}, grid={"R": 7.0, "h": 1.0})
    assert cli.run("plot", cfg, tmp_path) == 1
    diag = json.loads((tmp_path / "diagnostic.json").read_text())
    jsonschema.validate(diag, json.loads((SCHEMAS / "diagnostic.schema.json").read_text()))
    assert diag["error"] == "ConfigError" and "unknown subcommand 'plot'" in diag["message"]


@pytest.mark.parametrize("argv, error", [
    (["solve"], "the following arguments are required: --config"),
    (["solve", "--config", "x.ini", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["bogus", "--config", "x.ini"], "argument subcommand: invalid choice"),
], ids=["no-config", "unknown-flag", "unknown-subcommand"])
def test_command_line_usage_error_is_a_config_error(tmp_path, capsys, monkeypatch, argv, error):
    # argparse exited 2, the status of a failed property
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"config error: {error}"), errors
    assert not list(tmp_path.iterdir())


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["--help"])
    assert stop.value.code == 0 and "--config" in capsys.readouterr().out


def test_line_plot_of_a_constant_series(tmp_path):
    # equal values span no decade: the y axis gets one, and the line lies inside the frame
    svgplot.line_plot(tmp_path / "flat.svg", [1.0, 2.0, 4.0], {"E": [3.0, 3.0, 3.0]})
    root = ET.parse(tmp_path / "flat.svg").getroot()
    line, = root.iter("{http://www.w3.org/2000/svg}polyline")
    ys = {float(point.split(",")[1]) for point in line.get("points").split()}
    assert len(ys) == 1 and svgplot._MT < ys.pop() < svgplot._H - svgplot._MB
    labels = [float(t.text) for t in root.iter("{http://www.w3.org/2000/svg}text")
              if t.get("font-size") == "11"]
    assert labels and all(math.isfinite(v) and v > 0.0 for v in labels)


def test_line_plot_at_one_x(tmp_path):
    # one distinct x spans no decade: the x axis gets one, starting at that x
    svgplot.line_plot(tmp_path / "one.svg", [2.0, 2.0], {"E": [3.0, 30.0]})
    root = ET.parse(tmp_path / "one.svg").getroot()
    line, = root.iter("{http://www.w3.org/2000/svg}polyline")
    points = [tuple(map(float, point.split(","))) for point in line.get("points").split()]
    assert {x for x, _ in points} == {svgplot._ML}
    assert all(svgplot._MT < y < svgplot._H - svgplot._MB for _, y in points)
    labels = [float(t.text) for t in root.iter("{http://www.w3.org/2000/svg}text")
              if t.get("font-size") == "11"]
    assert labels and all(math.isfinite(v) and v > 0.0 for v in labels)


@pytest.mark.parametrize("profile", [None, "s,t,u\n1.0,0.5,abc\n"], ids=["missing", "malformed"])
def test_missing_or_malformed_profile_gives_a_diagnostic(tmp_path, profile):
    ini = tmp_path / "run.ini"
    ini.write_text(INI)
    out = tmp_path / "out"
    out.mkdir()
    if profile is not None:
        (out / "profile.csv").write_text(profile)
    assert cli.main(["energy-scan", "--config", str(ini), "--out", str(out)]) == 1
    diag = json.loads((out / "diagnostic.json").read_text())
    jsonschema.validate(diag, json.loads((SCHEMAS / "diagnostic.schema.json").read_text()))
    assert "profile" in diag["message"]


def test_r_schedule_solve_matches_continuation_with_r_out_unset(tmp_path):
    # continuation takes R_out = 1.5 R at each stage; the grid's own R_out
    # (1.5 x 6) would move the first stage
    ini = tmp_path / "run.ini"
    ini.write_text(INI.split("[grid]")[0]
                   + "[grid]\nR = 6\nh = 0.5\n\n[solver]\nR_schedule = 5, 6\n")
    assert cli.main(["solve", "--config", str(ini), "--out", str(tmp_path)]) == 0
    stages = json.loads((tmp_path / "solve_report.json").read_text())["stages"]
    kern = K.fractional_kernel(0.5, 1, K.standard_c_norm(0.5, 1))
    cont = sv.continuation(sv.SolverConfig(R=6.0, h=0.5, gamma=0.5, m=1,
                                           R_schedule=(5.0, 6.0)), kern)
    assert [(st["R"], st["total"], st["n_iters"]) for st in stages] == \
        [(st.result.profile.grid.R, st.result.breakdown.total, st.result.trace.n_iters)
         for st in cont]


def test_stage_el_residual_is_that_of_the_returned_profile(tmp_path):
    # the projected sup |u - proj(u - (L u - f(u)))| that each stage stopped on
    ini = tmp_path / "run.ini"
    ini.write_text(INI.split("[grid]")[0]
                   + "[grid]\nR = 6\nh = 0.5\n\n[solver]\nR_schedule = 5, 6\n")
    assert cli.main(["solve", "--config", str(ini), "--out", str(tmp_path)]) == 0
    stages = json.loads((tmp_path / "solve_report.json").read_text())["stages"]
    kern = K.fractional_kernel(0.5, 1, K.standard_c_norm(0.5, 1))
    cont = sv.continuation(sv.SolverConfig(R=6.0, h=0.5, gamma=0.5, m=1,
                                           R_schedule=(5.0, 6.0)), kern)
    assert len(stages) == len(cont) == 2
    for st, stage in zip(stages, cont):
        model = en.EnergyModel(stage.result.table, en.allen_cahn())
        u = model.restrict(stage.result.profile)
        _, grad = model.value_and_grad(u)
        res = np.abs(u - np.clip(u - grad / (2.0 * model.mu), 0.0, 1.0)).max()
        assert st["el_residual"] == pytest.approx(res, rel=0, abs=1e-12)


@pytest.mark.parametrize("schedule", ["", "R_schedule = 5, 6\n"], ids=["plain", "schedule"])
def test_solve_converges_only_if_every_stage_does(tmp_path, schedule):
    # a schedule solve used to report converged: true whatever its stages did
    ini = tmp_path / "run.ini"
    ini.write_text(INI.split("[grid]")[0]
                   + f"[grid]\nR = 6\nh = 0.5\n\n[solver]\nmax_iters = 1\n{schedule}")
    assert cli.main(["solve", "--config", str(ini), "--out", str(tmp_path)]) == 2
    body = json.loads((tmp_path / "solve_report.json").read_text(), parse_constant=_no_constant)
    jsonschema.validate(body, json.loads((SCHEMAS / "solve_report.schema.json").read_text()))
    stages = body["stages"]
    assert [st["R"] for st in stages] == ([5.0, 6.0] if schedule else [6.0])
    assert not body["converged"] and not any(st["converged"] for st in stages)
    assert body["n_iters"] == sum(st["n_iters"] for st in stages) == len(stages)
    assert stages[0]["sup_diff_common"] is None
    assert all(isinstance(st["sup_diff_common"], float) for st in stages[1:])
    assert body["trace_tail"][-1] == pytest.approx(stages[-1]["total"], rel=1e-12)


def test_schedule_not_ending_at_r_is_a_solver_violation(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(INI + "\n[solver]\nR_schedule = 5, 8\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(ini)
    assert err.value.violations == ["solver: R_schedule must be strictly increasing "
                                    "and end at R"]


@pytest.mark.parametrize("mu0", ["0", "-1", "nan", "inf"])
def test_bad_mu0_is_one_solver_violation(tmp_path, capsys, mu0):
    # solve used to build the table first and then exit 1 with a diagnostic
    ini = tmp_path / "run.ini"
    ini.write_text(INI + f"\n[solver]\nmu0 = {mu0}\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: solver: mu0 must be positive and finite"]
    assert not (out / "diagnostic.json").exists()


@pytest.mark.parametrize("grad_tol", ["1", "inf"])
def test_grad_tol_outside_0_1_is_one_solver_violation(tmp_path, capsys, grad_tol):
    # grad_tol is relative to the initial residual: at inf, solve used to stop
    # at the initial guess, converged after 0 iterations with residual 1.0
    ini = tmp_path / "run.ini"
    ini.write_text(INI + f"\n[solver]\ngrad_tol = {grad_tol}\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: solver: grad_tol must lie in (0, 1), got {float(grad_tol)}"]
    assert not out.exists()


def test_accepted_integer_keys_reach_their_readers(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(INI + "n_samples = 300\nzoc_nodes = 7\n\n[solver]\nseed = 3\n")
    out = tmp_path / "out"
    for sub in ("verify-inequality", "solve", "check-operator"):
        assert cli.main([sub, "--config", str(ini), "--out", str(out)]) == 0, sub
    report = lambda name: json.loads((out / f"{name}_report.json").read_text())
    assert (report("inequality")["n_samples"], report("inequality")["seed"]) == (300, 3)
    assert report("operator")["n_zoc_reference_nodes"] == 7
    assert report("solve")["seed"] == 3


@pytest.mark.parametrize("section, key, value", [
    ("kernel", "m", 2.5), ("solver", "max_iters", 10.5), ("solver", "seed", 1.5),
    ("experiment", "n_samples", 300.7), ("experiment", "zoc_nodes", 7.5)])
def test_code_built_integer_keys_refuse_a_fraction(section, key, value):
    # the INI strings "2.5" and "300.7" are refused, and so are the numbers;
    # an integral number stands for its integer
    cfg = cli.RunConfig(grid={"R": 7.0, "h": 0.5}, **{section: {key: value}})
    with pytest.raises(ConfigError) as err:
        cfg.value(section, key)
    assert err.value.violations == [f"{section}.{key}: invalid value {value!r}"]
    with pytest.raises(ConfigError) as err:
        cfg.check()
    assert err.value.violations == [f"{section}.{key}: invalid value {value!r}"]
    getattr(cfg, section)[key] = math.floor(value) + 0.0
    assert cfg.value(section, key) == math.floor(value)
    assert type(cfg.value(section, key)) is int


def test_output_dir_that_is_a_file_is_a_config_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    code, errors = _kernel_check_errors(tmp_path, capsys, INI, "--out",
                                        str(tmp_path / "afile"))
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("config error: output.dir: "), errors


@pytest.mark.parametrize("ini, error", [
    (INI.replace("gamma = 0.5", "gamma = 0.5\ngama = 0.25"), "kernel.gama: unknown key"),
    (INI + "\n[solver]\nmax_iter = 1\n", "solver.max_iter: unknown key"),
    # the trial count of check-operator's random solves, which its M-matrix
    # certificate replaced
    (INI + "mp_trials = 0\n", "experiment.mp_trials: unknown key"),
    (INI + "\n[experimnt]\nmp_trials = 5\n", "[experimnt]: unknown section"),
    # the ellipticity constants, which kernel-check measures from K: Lambda
    # once scaled the exterior tail whatever K was
    (INI.replace("m = 1", "m = 1\nlambda = 0.1"), "kernel.lambda: unknown key"),
    (INI.replace("m = 1", "m = 1\nLambda = 2"), "kernel.Lambda: unknown key")],
    ids=["kernel-key", "solver-key", "experiment-key", "section", "lambda", "Lambda"])
def test_unknown_section_or_key_is_a_config_error(tmp_path, capsys, ini, error):
    # each used to be ignored: kernel-check ran and exited 0
    code, errors = _kernel_check_errors(tmp_path, capsys, ini)
    assert code == 1 and errors == [f"config error: {error}"], errors
    assert not (tmp_path / "out" / "convexity_report.json").exists()


def test_a_setting_flag_is_a_usage_error(tmp_path, capsys):
    # every setting but the output directory comes from the INI: the flags
    # that once set gamma, m, R, h, seed, n_samples and the profile are gone
    code, errors = _kernel_check_errors(tmp_path, capsys, INI, "--gamma", "0.25")
    assert code == 1 and errors == ["config error: unrecognized arguments: --gamma 0.25"], errors
    assert not (tmp_path / "out" / "convexity_report.json").exists()


def test_reports_refuse_nan_and_infinity(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "report.json", {"value": bad})
        assert not (tmp_path / "report.json").exists()


# the subcommands that read the node columns `solve` writes to table.npz, and
# every file they write
READERS = ("energy-scan", "competitor", "check-operator")
READER_OUTPUTS = ("scan.csv", "scan.svg", "scan_report.json", "competitor_report.json",
                  "operator_report.json")


def _solved(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(INI)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "table.npz").is_file()
    return ini, out


def _table_source(out, sub):
    body = json.loads((out / f"{REPORTS[sub]}.json").read_text(), parse_constant=_no_constant)
    jsonschema.validate(body, json.loads((SCHEMAS / f"{REPORTS[sub]}.schema.json").read_text()))
    return body["table_source"]


def test_table_npz_changes_no_output_but_the_table_source(tmp_path):
    ini, out = _solved(tmp_path)
    runs = {}
    for source in ("table.npz", "built"):
        if source == "built":
            (out / "table.npz").unlink()
        for sub in READERS:
            assert cli.main([sub, "--config", str(ini), "--out", str(out)]) == 0, sub
            assert _table_source(out, sub) == source, sub
        runs[source] = {name: (out / name).read_bytes() for name in READER_OUTPUTS}
    for name in READER_OUTPUTS:
        loaded = runs["table.npz"][name].replace(b'"table_source": "table.npz"',
                                                 b'"table_source": "built"')
        assert loaded == runs["built"][name], name


def test_check_operator_takes_the_reference_tail_from_the_table(tmp_path, monkeypatch):
    # the reference row sums add the table's exterior tail, which is bitwise
    # the one zero_order_coefficient would recompute at those nodes
    ini, out = _solved(tmp_path)

    def no_tail(*args, **kwargs):
        raise AssertionError("the exterior tail was recomputed")

    monkeypatch.setattr(dr, "exterior_tail_coefficient", no_tail)
    monkeypatch.setattr(en, "exterior_tail_coefficient", no_tail)
    assert cli.main(["check-operator", "--config", str(ini), "--out", str(out)]) == 0
    monkeypatch.undo()
    body = json.loads((out / "operator_report.json").read_text())
    kern = K.fractional_kernel(0.5, 1, c_norm=K.standard_c_norm(0.5, 1))
    grid = en.build_grid(7.0, 0.5, 1, 10.5)
    z = en.build_kernel_table(grid, kern).zero_order
    n_ref = min(grid.n_nodes, 200)
    idx = np.sort(np.random.default_rng(0).choice(grid.n_nodes, size=n_ref, replace=False))
    zoc = dr.zero_order_coefficient(kern, (grid.s[idx], grid.t[idx]), grid.R_out,
                                    rule=dr.gauss_jacobi_rule(64, 1), n_phi=320, n_rho=48)
    assert body["n_zoc_reference_nodes"] == n_ref
    assert body["max_row_sum_error"] == float(np.max(np.abs(z[idx] - zoc) / zoc))


def test_table_npz_of_another_gamma_is_rebuilt(tmp_path):
    _, out = _solved(tmp_path)
    ini = tmp_path / "other.ini"
    ini.write_text(INI.replace("gamma = 0.5", "gamma = 0.25"))
    scan = ["energy-scan", "--config", str(ini), "--out", str(out)]
    assert cli.main(scan) == 0
    assert _table_source(out, "energy-scan") == "built"
    first = (out / "scan.csv").read_bytes()
    (out / "table.npz").unlink()
    assert cli.main(scan) == 0
    assert (out / "scan.csv").read_bytes() == first


def _truncated(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _with_column(zcol):
    def write(path):
        with np.load(path) as data:
            cols = dict(data)
        cols["zcol"] = zcol(cols["zcol"])
        with path.open("wb") as fh:
            np.savez(fh, **cols)
    return write


def _pickle_file(path):
    import pickle
    path.write_bytes(pickle.dumps({"key": "nlsaddle", "zcol": [0.0]}))


@pytest.mark.parametrize("spoil", [
    _truncated,
    _with_column(lambda z: z[:-1]),
    _with_column(lambda z: z.reshape(-1, 1)),
    _with_column(lambda z: z.astype("float32")),
    _with_column(lambda z: np.array([{"zcol": z}], dtype=object)),
    _pickle_file],
    ids=["truncated", "short", "two-dim", "float32", "pickled-column", "pickle-file"])
def test_unreadable_table_npz_is_rebuilt_without_error(tmp_path, spoil):
    ini, out = _solved(tmp_path)
    spoil(out / "table.npz")
    for sub in READERS:
        assert cli.main([sub, "--config", str(ini), "--out", str(out)]) == 0, sub
        assert _table_source(out, sub) == "built", sub
    assert not (out / "diagnostic.json").exists()


@pytest.mark.parametrize("fixture", ["medium_table", "m2_table"])
def test_table_from_loaded_node_columns_is_bitwise_a_fresh_build(tmp_path, request, fixture):
    table = request.getfixturevalue(fixture)
    en.save_node_columns(table, tmp_path / "table.npz")
    nodes = en.load_node_columns(tmp_path / "table.npz", table.grid, table.kernel)
    assert nodes is not None
    again = en.build_kernel_table(table.grid, table.kernel, assume_positive=True, nodes=nodes)
    for name in ("D", "P", "zero_order", *en.NODE_COLUMNS, "es", "et"):
        assert getattr(again, name).tobytes() == getattr(table, name).tobytes(), name


@pytest.mark.parametrize("change", ["gamma", "R_out", "sample"])
def test_node_columns_of_another_key_are_not_loaded(tmp_path, small_grid, change):
    # 1501 samples: numpy's repr of a column that long elides the middle,
    # where the changed sample sits
    r = np.geomspace(1e-32, 1e4, 1501)
    kern = K.tabulated_kernel(r, r ** -3.0, gamma=0.5, m=1)
    en.save_node_columns(en.build_kernel_table(small_grid, kern), tmp_path / "table.npz")
    assert en.load_node_columns(tmp_path / "table.npz", small_grid, kern) is not None
    grid, other = small_grid, kern
    if change == "gamma":
        other = replace(kern, gamma=0.25)
    elif change == "R_out":
        grid = en.build_grid(small_grid.R, small_grid.h, 1, small_grid.R_out + 1e-9)
        assert grid.n_nodes == small_grid.n_nodes
    elif change == "sample":
        k = r ** -3.0
        k[750] = np.nextafter(k[750], np.inf)
        other = K.tabulated_kernel(r, k, gamma=0.5, m=1)
        assert other != kern
    assert en.load_node_columns(tmp_path / "table.npz", grid, other) is None


@pytest.mark.parametrize("kern, grid, digest", [
    (K.tabulated_kernel(np.geomspace(1e-2, 1e2, 9), np.geomspace(1e-2, 1e2, 9) ** -3, 0.5, 1),
     (4, 0.5, 1), "140850cc9e77d2c8bc9bb1fb729512babab1281660aab5e5fadd2af8c47b6428"),
    (K.fractional_kernel(0.5, 2, K.standard_c_norm(0.5, 2)),
     (3, 0.5, 2), "2820a3bb21183c5989c33145cec1142f48b5f295bffb29b73112353244732215")],
    ids=["tabulated", "fractional-m2"])
def test_node_file_key_is_pinned(kern, grid, digest):
    # a table.npz written before holds this key; a changed key rebuilds it.
    # Re-pinned when the kernel lost its lambda and Lambda fields, which the
    # key listed, and when the version rose to 2 for the counterexample's
    # column, split at its kink: a file written before is rebuilt, not misread
    key = en._node_key(en.build_grid(*grid), kern, dr.gauss_jacobi_rule(32, kern.m))
    assert hashlib.sha256(key.encode()).hexdigest() == digest


def test_node_columns_of_another_rule_are_not_loaded(tmp_path, m2_table):
    en.save_node_columns(m2_table, tmp_path / "table.npz")
    rule = dr.gauss_jacobi_rule(16, 2)
    assert en.load_node_columns(tmp_path / "table.npz", m2_table.grid, m2_table.kernel,
                                rule) is None
