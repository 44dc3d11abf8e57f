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


def test_subcommands_run_from_ini(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(INI)
    out = tmp_path / "out"
    for sub, report in REPORTS.items():
        assert cli.main([sub, "--config", str(ini), "--out", str(out)]) == 0, sub
        body = json.loads((out / f"{report}.json").read_text())
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
