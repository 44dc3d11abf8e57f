"""Command-line front end: config parsing, subcommand dispatch, artifacts.

Subcommands and their artifacts (JSON reports validate against the schema
files shipped under nlsaddle/schemas):

    kernel-check        convexity_report.json
    verify-inequality   inequality_report.json
    check-operator      operator_report.json
    solve               profile.csv, solve_report.json, profile.svg
    energy-scan         scan.csv, scan_report.json, scan.svg
    competitor          competitor_report.json

INI sections and keys, with the one place that writes their defaults; each
section is checked by building what it configures, and an unknown section
or key is an error:

    [kernel]      family, gamma, m, lambda, Lambda, c_norm (a number or
                  `standard`), table: kernels.kernel_from_config
    [grid]        R, h (required), R_out (1.5 R): energy.build_grid
    [solver]      max_iters, grad_tol, mu0, R_schedule (strictly increasing,
                  ending at R), assume_positive: solver.SolverConfig; seed: _KEYS
    [experiment]  S_list, n_samples, zoc_nodes, mp_trials, competitor_s: _KEYS
    [output]      dir, profile: _KEYS

`solve` runs solver.continuation over R_schedule (unset, R alone); the
report's `stages` gives each stage's R, total, n_iters, converged,
el_residual (the projected residual of its profile that the stopping rule
reads), sup_diff_common (null on the first) and flagged.  Each flag of
_OVERRIDES sets one key.  Exit status: 0 success, 2 a property failed (for
solve, a stage did not converge), 1 error (`config error:` lines, else
diagnostic.json).
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
_REQUIRED = object()


def _floats(raw) -> tuple:
    return tuple(float(x) for x in str(raw).split(",") if x.strip())


def _at_least(lo: int):
    def parse(raw) -> int:
        if int(raw) < lo:
            raise ValueError(f"need an integer >= {lo}")
        return int(raw)
    return parse


# section -> key -> (parser, default or a function of the RunConfig giving it);
# the [solver] keys but seed go to SolverConfig only when set: it holds their defaults
_KEYS = {
    "grid": {"R": (float, _REQUIRED), "h": (float, _REQUIRED), "R_out": (float, None)},
    "solver": {"max_iters": (int, None), "grad_tol": (float, None), "mu0": (float, None),
               "R_schedule": (_floats, None), "assume_positive":
               (lambda raw: {"true": True, "false": False}[str(raw).strip().lower()], None),
               "seed": (_at_least(0), 0)},
    "experiment": {"S_list": (_floats, (4.0, 6.0, 8.0, 10.0, 12.0)),
                   "n_samples": (_at_least(1), 10000), "zoc_nodes": (_at_least(1), 200),
                   "mp_trials": (_at_least(1), 100),
                   "competitor_s": (float, lambda c: max(2.0, c.value("grid", "R") - 6.0))},
    "output": {"dir": (str, "out"), "profile": (str, None)},
}

# command-line flag -> the (section, key) it sets
_OVERRIDES = {"--out": ("output", "dir"), "--seed": ("solver", "seed"),
              "--gamma": ("kernel", "gamma"), "--m": ("kernel", "m"), "--R": ("grid", "R"),
              "--h": ("grid", "h"), "--n-samples": ("experiment", "n_samples"),
              "--profile": ("output", "profile")}


@dataclass
class RunConfig:
    """The raw sections (strings from an INI file, or values set in code);
    `value` is the only reader of the [grid], [solver], [experiment] and
    [output] keys, and `kernel_from_config` of the [kernel] section."""

    kernel: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def value(self, section: str, key: str):
        """section.key parsed by its _KEYS parser, or its default when unset."""
        parse, default = _KEYS[section][key]
        raw = getattr(self, section).get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError([f"{section}.{key}: required"])
            return default(self) if callable(default) else default
        try:
            return parse(raw)
        except (TypeError, ValueError, KeyError):
            raise ConfigError([f"{section}.{key}: invalid value {raw!r}"]) from None

    def make_kernel(self) -> K.RadialKernel:
        return K.kernel_from_config(self.kernel)

    def make_grid(self, kernel: K.RadialKernel) -> en.Grid:
        return en.build_grid(self.value("grid", "R"), self.value("grid", "h"), kernel.m,
                             self.value("grid", "R_out"))

    def solver_config(self, kernel: K.RadialKernel) -> sv.SolverConfig:
        # R_out as given: unset, minimize takes 1.5 R at each stage
        given = {key: self.value("solver", key) for key in _KEYS["solver"]
                 if self.solver.get(key) is not None and key != "seed"}
        return sv.SolverConfig(R=self.value("grid", "R"), h=self.value("grid", "h"),
                               gamma=kernel.gamma, m=kernel.m,
                               R_out=self.value("grid", "R_out"), **given)

    def s_list(self) -> list:
        return list(self.value("experiment", "S_list"))

    def check(self) -> RunConfig:
        """Parse every key and build what each section configures; raise one
        ConfigError listing every violation."""
        problems = []

        def attempt(section, build):
            try:
                return build()
            except ConfigError as exc:
                problems.extend(exc.violations)
            except (NlsaddleError, OSError) as exc:
                problems.append(f"{section}: {exc}")

        for section, keys in _KEYS.items():
            problems.extend(f"{section}.{key}: unknown key"
                            for key in getattr(self, section) if key not in keys)
            for key in keys:
                attempt(section, lambda: self.value(section, key))
        kern = attempt("kernel", self.make_kernel)
        if kern is not None and not problems:
            grid = attempt("grid", lambda: self.make_grid(kern))
            attempt("solver", lambda: self.solver_config(kern))
            # the default S_list is energy_scan's, which checks its own precondition
            if grid is not None and "S_list" in self.experiment and any(
                    not 2.0 <= S <= grid.R - 4.0 for S in self.s_list()):
                problems.append(f"experiment.S_list: need 2 <= S <= R - 4 (R={grid.R})")
        if problems:
            raise ConfigError(problems)
        return self


def _read_config(path) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys such as R, R_out, Lambda and S_list are case-sensitive
    try:
        with open(path) as fh:
            cp.read_file(fh)
        sections = {name: dict(cp.items(name)) for name in cp.sections()}
    except (OSError, ValueError, configparser.Error) as exc:
        raise ConfigError([f"config file {path}: {exc}"]) from exc
    unknown = [name for name in sections if name != "kernel" and name not in _KEYS]
    if unknown:
        raise ConfigError([f"[{name}]: unknown section" for name in unknown])
    return RunConfig(**sections)


def parse_config(path) -> RunConfig:
    """Read and check the INI run configuration; ConfigError lists every violation."""
    return _read_config(path).check()


def write_json(path, obj) -> None:
    """Encode first, so a NaN or infinity (not JSON) raises before the file is touched."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def run(subcommand: str, cfg: RunConfig, out_dir, seed: int | None = None) -> int:
    """Dispatch one subcommand; returns the process exit status.  An output
    directory that cannot be made is a ConfigError: no diagnostic fits there."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output.dir: {exc}"]) from None
    try:
        if subcommand not in _SUBCOMMANDS:
            raise ConfigError([f"unknown subcommand {subcommand!r}"])
        if seed is None:
            seed = cfg.value("solver", "seed")
        kern = cfg.make_kernel()

        def report(name: str, body: dict) -> None:
            write_json(out / f"{name}_report.json",
                       {**body, "kernel": kern.family, "gamma": kern.gamma, "m": kern.m})

        if subcommand == "kernel-check":
            rep = K.check_sqrt_convexity(kern)
            lo, hi = K.ellipticity_margins(kern, np.geomspace(1e-2, 1e2, 257))
            report("convexity", {
                "verdict": rep.verdict,
                "witnesses": [list(w) for w in rep.witnesses[:16]],
                "n_pairs": rep.n_pairs, "n_fail": rep.n_fail, "n_tight": rep.n_tight,
                "min_rel_gap": rep.min_rel_gap,
                "concavity_interval": rep.concavity_interval,
                "ellipticity_min": lo, "ellipticity_max": hi})
            return 0 if rep.verdict == "strictly-convex" else 2

        if subcommand == "verify-inequality":
            rep = dr.verify_kernel_inequality(kern, seed=seed,
                                              n_samples=cfg.value("experiment", "n_samples"))
            write_json(out / "inequality_report.json", rep.as_dict())
            return 0 if rep.violations == 0 else 2

        if subcommand == "solve":
            stages = sv.continuation(cfg.solver_config(kern), kern)
            last = stages[-1].result
            prof, converged = last.profile, all(st.result.trace.converged for st in stages)
            en.save_profile(prof, out / "profile.csv")
            report("solve", {
                "breakdown": last.breakdown.as_dict(),
                "converged": converged,
                "n_iters": sum(st.result.trace.n_iters for st in stages),
                "max_value": float(prof.values.max()),
                "min_value": float(prof.values.min()),
                "stages": [{"R": st.result.profile.grid.R, "total": st.result.breakdown.total,
                            "sup_diff_common": st.sup_diff_common, "flagged": st.flagged,
                            "n_iters": st.result.trace.n_iters,
                            "converged": st.result.trace.converged,
                            "el_residual": st.result.trace.pg_norms[-1]} for st in stages],
                "trace_tail": [float(e) for e in last.trace.energies[-20:]],
                "seed": seed})
            svgplot.node_heatmap(out / "profile.svg", prof.grid, prof.values,
                                 title="saddle profile w(s,t)")
            return 0 if converged else 2

        grid = cfg.make_grid(kern)
        if subcommand != "check-operator":
            profile = en.load_profile(cfg.value("output", "profile") or out / "profile.csv",
                                      grid)
        table = en.build_kernel_table(grid, kern, assume_positive=True)

        if subcommand == "check-operator":
            op = dop.assemble(table)
            n_ref = min(grid.n_nodes, cfg.value("experiment", "zoc_nodes"))
            rng = np.random.default_rng(seed)
            ref_idx = np.sort(rng.choice(grid.n_nodes, size=n_ref, replace=False))
            # the table's zero-order column comes from the same integrator at
            # its default settings; the reference refines n_phi, n_rho and,
            # for m >= 2, the J rule
            zoc = dr.zero_order_coefficient(kern, (grid.s[ref_idx], grid.t[ref_idx]),
                                            grid.R_out, rule=dr.gauss_jacobi_rule(64, kern.m),
                                            n_phi=320, n_rho=48)
            max_err = float(np.max(np.abs(op.sum(axis=1)[ref_idx] - 2 * zoc) / (2 * zoc)))
            rep = dop.check_max_principle_structure(
                op, n_trials=cfg.value("experiment", "mp_trials"), seed=seed)
            report("operator", {**rep.as_dict(), "max_row_sum_error": max_err,
                                "n_zoc_reference_nodes": int(n_ref)})
            ok = rep.z_pattern and rep.row_sums_positive and rep.monotone_probe
            return 0 if ok and max_err <= 1e-3 else 2

        if subcommand == "energy-scan":
            rep = ex.energy_scan(profile, cfg.s_list(), table)
            rows = zip(rep.S_values, rep.energies, rep.kinetic, rep.potential)
            (out / "scan.csv").write_text("S,E_total,E_kin,E_pot\n" + "".join(
                f"{S!r},{e!r},{kk!r},{p!r}\n" for S, e, kk, p in rows))
            report("scan", rep.as_dict())
            svgplot.line_plot(out / "scan.svg", rep.S_values,
                              {"E_total": rep.energies, "E_kin": rep.kinetic,
                               "E_pot": rep.potential},
                              title="energy growth", xlabel="S", ylabel="E",
                              logx=True, logy=True)
            return 0

        w, rep = ex.build_competitor(profile, cfg.value("experiment", "competitor_s"))
        e_u = en.total_energy(profile, grid.R, table).total
        e_w = en.total_energy(w, grid.R, table).total
        not_below = bool(e_w >= e_u - 1e-9 * abs(e_u))
        report("competitor", {**rep.as_dict(), "energy_minimizer": e_u,
                              "energy_competitor": e_w, "competitor_not_below": not_below})
        return 0 if rep.all_pass() and not_below else 2
    except (NlsaddleError, OSError) as exc:
        write_json(out / "diagnostic.json", {"error": type(exc).__name__, "message": str(exc),
                                             "subcommand": subcommand})
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nlsaddle", description=(
        "Averaged cone kernels, odd-sector energies, saddle minimizers."))
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="INI run configuration")
    for flag, (section, key) in _OVERRIDES.items():
        parser.add_argument(flag, dest=key, help=f"override {section}.{key}")
    args = vars(parser.parse_args(argv))

    try:
        cfg = _read_config(args["config"])
        for section, key in _OVERRIDES.values():
            if args[key] is not None:
                getattr(cfg, section)[key] = args[key]
        return run(args["subcommand"], cfg.check(), cfg.value("output", "dir"))
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
