"""The command line run from a plain INI file: exit statuses and reports."""

import json
from pathlib import Path

import jsonschema
import pytest

from nlsaddle import cli
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
mp_trials = 20
"""

REPORTS = {"kernel-check": "convexity_report", "verify-inequality": "inequality_report",
           "solve": "solve_report",
           "energy-scan": "scan_report", "competitor": "competitor_report",
           "check-operator": "operator_report"}


def test_parse_config_keeps_key_case(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(INI.replace("c_norm = standard",
                               "c_norm = standard\nlambda = 0.5\nLambda = 2.0"))
    cfg = cli.parse_config(ini)
    assert cfg.grid["R"] == "7" and cfg.grid["R_out"] == "10.5"
    assert cfg.kernel["lambda"] == "0.5" and cfg.kernel["Lambda"] == "2.0"
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


def test_kernel_section_is_checked_by_the_kernel(tmp_path):
    # the piecewise counterexample defaults lambda to 0.1, so Lambda = 0.5 is valid
    ini = tmp_path / "run.ini"
    grid = "\n[grid]\nR = 7\nh = 0.5\n"
    ini.write_text("[kernel]\nfamily = piecewise-counterexample\nLambda = 0.5\n" + grid)
    kern = cli.parse_config(ini).make_kernel()
    assert (kern.family, kern.lam, kern.Lam) == ("piecewise-counterexample", 0.1, 0.5)
    # whatever the kernel refuses is one violation of the section
    for bad in ("family = piecewise-counterexample\nLambda = 0.05",
                "gamma = 1.5\nm = 0", "gamma = half",
                f"family = tabulated\ntable = {tmp_path / 'missing.csv'}"):
        ini.write_text(f"[kernel]\n{bad}\n" + grid)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(ini)
        assert len(err.value.violations) == 1, bad
        assert err.value.violations[0].startswith("kernel: "), bad


def test_ini_without_s_list_runs_at_small_radius(tmp_path):
    # S_list is checked against R > S + 4 only when the INI sets it
    ini = tmp_path / "run.ini"
    ini.write_text(INI.split("[experiment]")[0].replace("R = 7", "R = 12").replace(
        "R_out = 10.5", "R_out = 18"))
    out = tmp_path / "out"
    assert cli.main(["kernel-check", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "convexity_report.json").exists()


def _kernel_check_errors(tmp_path, capsys, ini_text, *flags):
    ini = tmp_path / "run.ini"
    ini.write_text(ini_text)
    code = cli.main(["kernel-check", "--config", str(ini), "--out", str(tmp_path / "out"),
                     *flags])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("table", ["", "r,K\n1.0,2.0\n3.0\n"], ids=["empty", "one-column"])
def test_malformed_kernel_table_is_one_kernel_violation(tmp_path, capsys, table):
    (tmp_path / "kern.csv").write_text(table)
    code, errors = _kernel_check_errors(
        tmp_path, capsys,
        f"[kernel]\nfamily = tabulated\ntable = {tmp_path / 'kern.csv'}\n[grid]\nR = 7\nh = 0.5\n")
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("config error: kernel: "), errors


@pytest.mark.parametrize("section, line", [
    ("solver", "mu0 = abc"), ("solver", "max_iters = many"), ("solver", "grad_tol = tiny"),
    ("solver", "R_schedule = 5, x"), ("solver", "assume_positive = perhaps"),
    ("solver", "seed = -1"), ("experiment", "zoc_nodes = abc"),
    ("experiment", "mp_trials = 0"), ("experiment", "n_samples = 1e4"),
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
    from nlsaddle import kernels as K, solver as sv
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
    import numpy as np
    from nlsaddle import energy as en, kernels as K, solver as sv
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


def test_output_dir_that_is_a_file_is_a_config_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    code, errors = _kernel_check_errors(tmp_path, capsys, INI, "--out",
                                        str(tmp_path / "afile"))
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("config error: output.dir: "), errors


@pytest.mark.parametrize("ini, error", [
    (INI.replace("gamma = 0.5", "gamma = 0.5\ngama = 0.25"), "kernel: unknown key 'gama'"),
    (INI + "\n[solver]\nmax_iter = 1\n", "solver.max_iter: unknown key"),
    (INI + "\n[experimnt]\nmp_trials = 5\n", "[experimnt]: unknown section")],
    ids=["kernel-key", "solver-key", "section"])
def test_unknown_section_or_key_is_a_config_error(tmp_path, capsys, ini, error):
    # each used to be ignored: kernel-check ran and exited 0
    code, errors = _kernel_check_errors(tmp_path, capsys, ini)
    assert code == 1 and errors == [f"config error: {error}"], errors
    assert not (tmp_path / "out" / "convexity_report.json").exists()


def test_gamma_and_m_flags_reach_the_report(tmp_path, capsys):
    code, _ = _kernel_check_errors(tmp_path, capsys, INI, "--gamma", "0.25", "--m", "2")
    assert code == 0
    body = json.loads((tmp_path / "out" / "convexity_report.json").read_text())
    assert (body["gamma"], body["m"]) == (0.25, 2)
    # a flag's value is checked like the INI's
    code, errors = _kernel_check_errors(tmp_path, capsys, INI, "--gamma", "1.5")
    assert code == 1 and len(errors) == 1 and errors[0].startswith("config error: kernel: ")


def test_reports_refuse_nan_and_infinity(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "report.json", {"value": bad})
        assert not (tmp_path / "report.json").exists()
