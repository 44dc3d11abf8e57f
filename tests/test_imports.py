"""What a CLI process loads: numpy alone for the import, an m=1 run and an
m=2 table build.

Each test runs in a fresh interpreter, since this one already has scipy
loaded (the tests import it as an oracle).
"""

import json
import subprocess
import sys
from pathlib import Path

import nlsaddle

SRC = str(Path(nlsaddle.__file__).resolve().parents[1])


def _run(code: str, tmp_path) -> dict:
    """Run `code` in a new interpreter that imports nlsaddle from SRC; it
    prints one JSON object as its last line."""
    head = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    proc = subprocess.run([sys.executable, "-c", head + code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    loaded = _run("import json\nimport nlsaddle.cli\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
                  tmp_path)
    assert loaded == []


def test_m1_pipeline_loads_no_module_after_the_import(tmp_path):
    # a module the run path imports lazily would move its cost out of set-up
    # into the first run; cli imports what the run uses at load time instead
    new = _run("""
import json
from nlsaddle import cli
before = set(sys.modules)
cfg = cli.RunConfig(kernel={"family": "fractional", "gamma": 0.5, "m": 1, "c_norm": "standard"},
                    grid={"R": 7.0, "h": 0.5}, experiment={"S_list": "2, 2.25, 2.5, 2.75, 3"})
codes = [cli.run(sub, cfg, "out", seed=1)
         for sub in ("solve", "energy-scan", "competitor", "check-operator")]
new = [m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy")]
print(json.dumps({"codes": codes, "new": sorted(new)}))
""", tmp_path)
    assert new == {"codes": [0, 0, 0, 0], "new": []}


def test_kernel_check_refinement_loads_no_module(tmp_path):
    # the affine profile h(tau) = tau is tight on every pair, so the check
    # takes its refinement pass; the table covers the ellipticity samples
    # r in [0.01, 100] too, so kernel-check writes its report
    (tmp_path / "kern.csv").write_text(
        "r,K\n" + "".join(f"{r!r},{r * r!r}\n" for r in (0.01, 0.1, 1.0, 10.0, 100.0)))
    new = _run("""
import json
from nlsaddle import cli
before = set(sys.modules)
cfg = cli.RunConfig(kernel={"family": "tabulated", "table": "kern.csv", "gamma": 0.5, "m": 1},
                    grid={"R": 7.0, "h": 0.5})
code = cli.run("kernel-check", cfg, "out")
report = json.load(open("out/convexity_report.json"))
new = [m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy")]
print(json.dumps({"code": code, "verdict": report["verdict"], "new": sorted(new)}))
""", tmp_path)
    assert new == {"code": 2, "verdict": "convex-nonstrict", "new": []}


def test_only_the_rules_of_other_weights_load_scipy_special(tmp_path):
    # J's rules at m = 1, 2, 3 (the sign rule, Gauss-Legendre, and the closed
    # Gauss-Chebyshev rule of (1 - x^2)^(1/2)) are numpy's, and so is the m=2
    # sphere-slice tail on the same weight; the m=3 tail's (1 - x^2)^(3/2)
    # takes roots_jacobi
    loaded = _run("""
import json
from nlsaddle import cli, doubly_radial as dr, energy as en, kernels as K
seen = []
for m in (1, 2, 3):
    dr.gauss_jacobi_rule(32, m)
    seen.append("scipy.special" in sys.modules)
for m in (2, 3):
    en.build_kernel_table(en.build_grid(3.0, 0.5, m), K.fractional_kernel(0.5, m))
    seen.append(any(name.split(".")[0] == "scipy" for name in sys.modules))
print(json.dumps(seen))
""", tmp_path)
    assert loaded == [False, False, False, False, True]
