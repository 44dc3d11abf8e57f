"""Command-line front end: config parsing, subcommand dispatch, artifacts.

Subcommands and their artifacts (JSON reports validate against the schema
files shipped under nlsaddle/schemas):

    kernel-check        convexity_report.json
    verify-inequality   inequality_report.json
    check-operator      operator_report.json
    solve               profile.csv, solve_report.json, profile.svg
    energy-scan         scan.csv, scan_report.json, scan.svg
    competitor          competitor_report.json

Exit status: 0 success, 2 ran-correctly-but-property-failed, 1 error (a
diagnostic JSON is written when possible).
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NlsaddleError
from . import kernels as K
from . import doubly_radial as dr
from . import energy as en
from . import discrete_operator as dop
from . import solver as sv
from . import experiments as ex
from . import svgplot

_SUBCOMMANDS = ("kernel-check", "verify-inequality", "check-operator",
                "solve", "energy-scan", "competitor")


@dataclass
class RunConfig:
    kernel: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def make_kernel(self) -> K.RadialKernel:
        section = dict(self.kernel)
        if str(section.get("c_norm", "")).strip() == "standard":
            section["c_norm"] = K.standard_c_norm(float(section.get("gamma", 0.5)),
                                                  int(section.get("m", 1)))
        return K.kernel_from_config(section)

    def make_grid(self) -> en.Grid:
        g = self.grid
        R_out = g.get("R_out")
        return en.build_grid(float(g["R"]), float(g["h"]),
                             int(self.kernel.get("m", 1)),
                             float(R_out) if R_out is not None else None)

    def solver_config(self) -> sv.SolverConfig:
        g, s = self.grid, self.solver
        sched = s.get("R_schedule", "")
        schedule = tuple(float(x) for x in str(sched).split(",") if x.strip()) if sched else ()
        return sv.SolverConfig(
            R=float(g["R"]), h=float(g["h"]),
            gamma=float(self.kernel.get("gamma", 0.5)),
            m=int(self.kernel.get("m", 1)),
            R_out=float(g["R_out"]) if g.get("R_out") is not None else None,
            max_iters=int(s.get("max_iters", 5000)),
            grad_tol=float(s.get("grad_tol", 1e-6)),
            R_schedule=schedule,
            mu0=float(s.get("mu0", 1.0)),
            assume_positive=str(s.get("assume_positive", "false")).lower() == "true")

    def s_list(self) -> list:
        raw = str(self.experiment.get("S_list", "4,6,8,10,12"))
        return [float(x) for x in raw.split(",") if x.strip()]


def parse_config(path) -> RunConfig:
    """Read and validate the INI-style run configuration.

    All violations are collected and reported together with field names.
    """
    if not Path(path).exists():
        raise ConfigError([f"config file not found: {path}"])
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys such as R, R_out, Lambda and S_list are case-sensitive
    cp.read(path)
    cfg = RunConfig(
        kernel=dict(cp.items("kernel")) if cp.has_section("kernel") else {},
        grid=dict(cp.items("grid")) if cp.has_section("grid") else {},
        solver=dict(cp.items("solver")) if cp.has_section("solver") else {},
        experiment=dict(cp.items("experiment")) if cp.has_section("experiment") else {},
        output=dict(cp.items("output")) if cp.has_section("output") else {})

    problems = []

    def num(section, name, default=None, cast=float):
        raw = getattr(cfg, section).get(name, default)
        if raw is None:
            return None
        try:
            return cast(raw)
        except (TypeError, ValueError):
            problems.append(f"{section}.{name}: not a number ({raw!r})")
            return None

    # the kernel's own constructor holds its rules (family defaults included)
    try:
        cfg.make_kernel()
    except (NlsaddleError, ValueError, OSError) as exc:
        problems.append(f"kernel: {exc}")

    R = num("grid", "R")
    h = num("grid", "h")
    R_out = num("grid", "R_out")
    if R is None:
        problems.append("grid.R: required")
    if h is None:
        problems.append("grid.h: required")
    if R is not None and h is not None and not (0.0 < h < R):
        problems.append(f"grid.h: need 0 < h < R, got h={h}, R={R}")
    if R is not None and R_out is not None and R_out <= R:
        problems.append(f"grid.R_out: must exceed R, got {R_out} <= {R}")

    mi = num("solver", "max_iters", 5000, int)
    gt = num("solver", "grad_tol", 1e-6)
    num("solver", "seed", 0, int)
    if mi is not None and mi < 1:
        problems.append(f"solver.max_iters: must be >= 1, got {mi}")
    if gt is not None and gt <= 0:
        problems.append(f"solver.grad_tol: must be positive, got {gt}")

    try:
        # the default S_list is energy_scan's, which checks its own precondition
        s_list = cfg.s_list() if "S_list" in cfg.experiment else []
        if R is not None:
            for S in s_list:
                if S > R - 4.0:
                    problems.append(
                        f"experiment.S_list: S={S} violates the R > S + 4 constraint (R={R})")
            if any(S < 2.0 for S in s_list):
                problems.append("experiment.S_list: entries must be >= 2")
    except ValueError:
        problems.append(f"experiment.S_list: not a comma-separated number list")

    if problems:
        raise ConfigError(problems)
    return cfg


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _report_with_meta(cfg: RunConfig, body: dict) -> dict:
    out = dict(body)
    out["kernel"] = cfg.kernel.get("family", "fractional")
    out["gamma"] = float(cfg.kernel.get("gamma", 0.5))
    out["m"] = int(cfg.kernel.get("m", 1))
    return out


def run(subcommand: str, cfg: RunConfig, out_dir, seed: int | None = None) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if seed is None:
        seed = int(cfg.solver.get("seed", 0))
    try:
        if subcommand == "kernel-check":
            kern = cfg.make_kernel()
            rep = K.check_sqrt_convexity(kern)
            lo, hi = K.ellipticity_margins(kern, np.geomspace(1e-2, 1e2, 257))
            body = _report_with_meta(cfg, {
                "verdict": rep.verdict,
                "witnesses": [list(w) for w in rep.witnesses[:16]],
                "n_pairs": rep.n_pairs, "n_fail": rep.n_fail, "n_tight": rep.n_tight,
                "min_rel_gap": rep.min_rel_gap,
                "concavity_interval": rep.concavity_interval,
                "ellipticity_min": lo, "ellipticity_max": hi})
            write_json(out / "convexity_report.json", body)
            return 0 if rep.verdict == "strictly-convex" else 2

        if subcommand == "verify-inequality":
            kern = cfg.make_kernel()
            n = int(cfg.experiment.get("n_samples", 10000))
            rep = dr.verify_kernel_inequality(kern, seed=seed, n_samples=n)
            write_json(out / "inequality_report.json", rep.as_dict())
            return 0 if rep.violations == 0 else 2

        if subcommand == "check-operator":
            kern = cfg.make_kernel()
            grid = cfg.make_grid()
            table = en.build_kernel_table(grid, kern, assume_positive=True)
            op = dop.assemble(grid, table)
            n_ref = min(grid.n_nodes, int(cfg.experiment.get("zoc_nodes", 200)))
            rng = np.random.default_rng(seed)
            ref_idx = np.sort(rng.choice(grid.n_nodes, size=n_ref, replace=False))
            # the table's zero-order column comes from the same integrator at
            # its default settings; the reference refines n_phi, n_rho and,
            # for m >= 2, the J rule
            zoc = dr.zero_order_coefficient(kern, (grid.s[ref_idx], grid.t[ref_idx]),
                                            grid.R_out, rule=dr.gauss_jacobi_rule(64, kern.m),
                                            n_phi=320, n_rho=48)
            rows = op.row_sums()
            max_err = float(np.max(np.abs(rows[ref_idx] - 2 * zoc) / (2 * zoc)))
            rep = dop.check_max_principle_structure(
                op, n_trials=int(cfg.experiment.get("mp_trials", 100)), seed=seed)
            body = rep.as_dict()
            body["max_row_sum_error"] = max_err
            body["n_zoc_reference_nodes"] = int(n_ref)
            write_json(out / "operator_report.json", _report_with_meta(cfg, body))
            ok = rep.z_pattern and rep.row_sums_positive and rep.monotone_probe \
                and max_err <= 1e-3
            return 0 if ok else 2

        if subcommand == "solve":
            kern = cfg.make_kernel()
            scfg = cfg.solver_config()
            if scfg.R_schedule:
                cont = sv.continuation(scfg, kern)
                result_profile = cont.profile
                breakdown = cont.stages[-1].breakdown
                stages = [{"R": st.R, "total": st.breakdown.total,
                           "sup_diff_common": st.sup_diff_common,
                           "flagged": st.flagged, "n_iters": st.n_iters}
                          for st in cont.stages]
                trace_tail = []
                converged = True
                n_iters = sum(st.n_iters for st in cont.stages)
            else:
                res = sv.minimize(scfg, kern)
                result_profile = res.profile
                breakdown = res.breakdown
                stages = []
                trace_tail = [float(e) for e in res.trace.energies[-20:]]
                converged = res.trace.converged
                n_iters = res.trace.n_iters
            en.save_profile(result_profile, out / "profile.csv")
            body = _report_with_meta(cfg, {
                "breakdown": breakdown.as_dict(),
                "converged": bool(converged),
                "n_iters": int(n_iters),
                "max_value": float(result_profile.values.max()),
                "min_value": float(result_profile.values.min()),
                "stages": stages,
                "trace_tail": trace_tail,
                "seed": seed})
            write_json(out / "solve_report.json", body)
            svgplot.node_heatmap(out / "profile.svg", result_profile.grid,
                                 result_profile.values, title="saddle profile w(s,t)")
            return 0 if converged else 2

        if subcommand == "energy-scan":
            kern = cfg.make_kernel()
            grid = cfg.make_grid()
            profile_path = cfg.output.get("profile", out / "profile.csv")
            profile = en.load_profile(profile_path, grid)
            table = en.build_kernel_table(grid, kern, assume_positive=True)
            rep = ex.energy_scan(profile, cfg.s_list(), table)
            with open(out / "scan.csv", "w") as fh:
                fh.write("S,E_total,E_kin,E_pot\n")
                for S, e, kk, p in zip(rep.S_values, rep.energies, rep.kinetic,
                                       rep.potential):
                    fh.write(f"{S!r},{e!r},{kk!r},{p!r}\n")
            write_json(out / "scan_report.json", _report_with_meta(cfg, rep.as_dict()))
            svgplot.line_plot(out / "scan.svg", rep.S_values,
                              {"E_total": rep.energies, "E_kin": rep.kinetic,
                               "E_pot": rep.potential},
                              title="energy growth", xlabel="S", ylabel="E",
                              logx=True, logy=True)
            return 0

        if subcommand == "competitor":
            kern = cfg.make_kernel()
            grid = cfg.make_grid()
            profile_path = cfg.output.get("profile", out / "profile.csv")
            profile = en.load_profile(profile_path, grid)
            S = float(cfg.experiment.get("competitor_s", max(2.0, grid.R - 6.0)))
            w, rep = ex.build_competitor(profile, S)
            table = en.build_kernel_table(grid, kern, assume_positive=True)
            e_u = en.total_energy(profile, grid.R, table).total
            e_w = en.total_energy(w, grid.R, table).total
            body = rep.as_dict()
            body["energy_minimizer"] = e_u
            body["energy_competitor"] = e_w
            body["competitor_not_below"] = bool(e_w >= e_u - 1e-9 * abs(e_u))
            write_json(out / "competitor_report.json", _report_with_meta(cfg, body))
            return 0 if rep.all_pass() and body["competitor_not_below"] else 2

        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    except NlsaddleError as exc:
        write_json(out / "diagnostic.json",
                   {"error": type(exc).__name__, "message": str(exc),
                    "subcommand": subcommand})
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlsaddle",
        description="Averaged cone kernels, odd-sector energies, saddle minimizers.")
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="INI run configuration")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--gamma", type=float, default=None, help="override kernel.gamma")
    parser.add_argument("--m", type=int, default=None, help="override kernel.m")
    parser.add_argument("--R", type=float, default=None, help="override grid.R")
    parser.add_argument("--h", type=float, default=None, help="override grid.h")
    parser.add_argument("--n-samples", type=int, default=None,
                        help="override experiment.n_samples")
    parser.add_argument("--profile", default=None,
                        help="profile CSV for energy-scan / competitor")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    if args.gamma is not None:
        cfg.kernel["gamma"] = args.gamma
    if args.m is not None:
        cfg.kernel["m"] = args.m
    if args.R is not None:
        cfg.grid["R"] = args.R
    if args.h is not None:
        cfg.grid["h"] = args.h
    if args.n_samples is not None:
        cfg.experiment["n_samples"] = args.n_samples
    if args.profile is not None:
        cfg.output["profile"] = args.profile
    out_dir = args.out or cfg.output.get("dir", "out")
    return run(args.subcommand, cfg, out_dir, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
