"""The command line run from a plain INI file: exit statuses and reports."""

import json
from pathlib import Path

import jsonschema

from nlsaddle import cli

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

REPORTS = {"kernel-check": "convexity_report", "solve": "solve_report",
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
