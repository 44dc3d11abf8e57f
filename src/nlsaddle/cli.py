"""Command-line front end: config parsing, subcommand dispatch, artifacts.

Subcommands and their artifacts (JSON reports validate against the schema
files shipped under nlsaddle/schemas):

    kernel-check        convexity_report.json
    verify-inequality   inequality_report.json
    check-operator      operator_report.json
    solve               profile.csv, table.npz, solve_report.json, profile.svg
    energy-scan         scan.csv, scan_report.json, scan.svg
    competitor          competitor_report.json

table.npz holds the per-node columns of the kernel table of the last solve
stage (energy.save_node_columns).  energy-scan, competitor and check-operator
read it from the output directory and build only the table's pair pass when
its key (kernel fields, R, h, m, R_out, node count, rule order) matches their
own kernel and grid; when the file is missing, unreadable or written for
another key they build the whole table.  Their reports say which in
table_source ("table.npz" or "built").  solve never reads it.

INI sections and keys, with the one place that writes their defaults; each
section is checked by building what it configures, and an unknown section
or key is an error:

    [kernel]      family, gamma, m, c_norm (a number or `standard`), table: _KEYS
    [grid]        R, h (required), R_out (1.5 R): energy.build_grid
    [solver]      max_iters, grad_tol, mu0, R_schedule (strictly increasing,
                  ending at R), assume_positive: solver.SolverConfig; seed: _KEYS
    [experiment]  S_list (experiments.check_scan_radii; unset, five from R/3
                  to R - 4), n_samples, zoc_nodes, competitor_s
                  (experiments.check_competitor_s; unset, max(2, R - 6)): _KEYS
    [output]      dir, profile: _KEYS

`solve` runs solver.continuation over R_schedule (unset, R alone); the
report's `stages` gives each stage's R, total, n_iters, converged,
el_residual (the projected residual of its profile that the stopping rule
reads), sup_diff_common (null on the first) and flagged.  `check-operator`
passes when discrete_operator's M-matrix certificate holds (monotone_probe;
at m=1 it holds no n x n array) and Z, half of L's row sums, matches a
refined reference to 1e-3 at up to zoc_nodes nodes.  The command line is
the subcommand, --config and --out, which sets output.dir; every other
setting comes from the INI.  Exit status: 0 success (and --help), 2 a
property failed (for solve, a stage did not converge; kernel-check, a
verdict other than strictly-convex), 1 error: `config error:` lines on
stderr for a bad command line (a missing --config, an unknown flag or
subcommand), INI file or key, else diagnostic.json in the output directory.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import default_rng

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


def _at_least(lo: float = -math.inf):
    """Parser of the integer keys: refuses 2.5 and "2.5" alike, and below lo."""
    def parse(raw) -> int:
        value = int(raw)
        if value < lo or not isinstance(raw, str) and value != raw:
            raise ValueError(f"need an integer >= {lo}")
        return value
    return parse


def _default_s_list(R: float) -> tuple:
    """Five radii evenly spaced from R/3 to R - 4 (4, 5, 6, 7, 8 at R = 12);
    none for R <= 6, where the two ends meet."""
    return tuple(np.linspace(R / 3.0, R - 4.0, 5).tolist()) if R > 6.0 else ()


# section -> key -> (parser, default or a function of the RunConfig giving it);
# the [solver] keys but seed go to SolverConfig only when set: it holds their defaults
_KEYS = {
    "kernel": {"family": (str, "fractional"), "gamma": (float, 0.5), "m": (_at_least(), 1),
               "table": (str, None), "c_norm": (lambda raw: "standard"
                          if str(raw).strip() == "standard" else float(raw), 1.0)},
    "grid": {"R": (float, _REQUIRED), "h": (float, _REQUIRED), "R_out": (float, None)},
    "solver": {"max_iters": (_at_least(1), None), "grad_tol": (float, None), "mu0": (float, None),
               "R_schedule": (_floats, None), "assume_positive":
               (lambda raw: {"true": True, "false": False}[str(raw).strip().lower()], None),
               "seed": (_at_least(0), 0)},
    "experiment": {"S_list": (_floats, lambda c: _default_s_list(c.value("grid", "R"))),
                   "n_samples": (_at_least(1), 10000), "zoc_nodes": (_at_least(1), 200),
                   "competitor_s": (float, lambda c: max(2.0, c.value("grid", "R") - 6.0))},
    "output": {"dir": (str, "out"), "profile": (str, None)},
}

@dataclass
class RunConfig:
    """The raw sections (strings from an INI file, or values set in code);
    `value` is the only reader of their keys."""

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
        except (TypeError, ValueError, KeyError, OverflowError):
            raise ConfigError([f"{section}.{key}: invalid value {raw!r}"]) from None

    def make_kernel(self) -> K.RadialKernel:
        """The [kernel] section's kernel; `c_norm = standard` is standard_c_norm."""
        k = {key: self.value("kernel", key) for key in _KEYS["kernel"]}
        if k["c_norm"] == "standard":
            k["c_norm"] = K.standard_c_norm(k["gamma"], k["m"])
        table = None if k["table"] is None else K.load_kernel_table(k["table"])
        return K.RadialKernel(k["family"], k["gamma"], k["m"], k["c_norm"], table)

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

    def _checked(self, key: str, check, unset: str):
        """experiment.key, passed by its experiments `check` at the grid's R."""
        value, R = self.value("experiment", key), self.value("grid", "R")
        try:
            check(value, R)
        except NlsaddleError as exc:
            raise ConfigError([f"experiment.{key}: {exc}{unset}"]) from None
        return value

    def s_list(self) -> list:
        return list(self._checked("S_list", ex.check_scan_radii, ": set S_list"))

    def competitor_s(self) -> float:
        return self._checked("competitor_s", ex.check_competitor_s, " (unset, max(2, R - 6))")

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
            for key, read in (("S_list", self.s_list), ("competitor_s", self.competitor_s)):
                if grid is not None and key in self.experiment:  # unset: checked where read
                    attempt("experiment", read)
        if problems:  # a missing R is also reported by each default that reads it
            raise ConfigError(list(dict.fromkeys(problems)))
        return self


def _read_config(path) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys such as R, R_out and S_list are case-sensitive
    try:
        with open(path) as fh:
            cp.read_file(fh)
        sections = {name: dict(cp.items(name)) for name in cp.sections()}
    except (OSError, ValueError, configparser.Error) as exc:
        raise ConfigError([f"config file {path}: {exc}"]) from exc
    unknown = [name for name in sections if name not in _KEYS]
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
            lo, hi = K.ellipticity_margins(kern, np.geomspace(*kern.window(1e-2, 1e2), 257))
            # an overflowing kernel has NaN gaps and margins: null in JSON
            finite = lambda x: x if math.isfinite(x) else None
            report("convexity", {
                "verdict": rep.verdict,
                "witnesses": [[t1, t2, finite(gap)] for t1, t2, gap in rep.witnesses],
                "n_pairs": rep.n_pairs, "n_fail": rep.n_fail, "n_tight": rep.n_tight,
                "min_rel_gap": finite(rep.min_rel_gap),
                "concavity_interval": rep.concavity_interval,
                "ellipticity_min": finite(lo), "ellipticity_max": finite(hi)})
            return 0 if rep.verdict == K.VERDICT_STRICT else 2

        if subcommand == "verify-inequality":
            rep = dr.verify_kernel_inequality(kern, seed=seed,
                                              n_samples=cfg.value("experiment", "n_samples"))
            report("inequality", rep.as_dict())
            return 0 if rep.violations == 0 else 2

        if subcommand == "solve":
            stages = sv.continuation(cfg.solver_config(kern), kern)
            last = stages[-1].result
            prof, converged = last.profile, all(st.result.trace.converged for st in stages)
            en.save_profile(prof, out / "profile.csv")
            en.save_node_columns(last.table, out / "table.npz")
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
        nodes = en.load_node_columns(out / "table.npz", grid, kern)
        table = en.build_kernel_table(grid, kern, assume_positive=True, nodes=nodes)
        source = "built" if nodes is None else "table.npz"

        if subcommand == "check-operator":
            n_ref = min(grid.n_nodes, cfg.value("experiment", "zoc_nodes"))
            ref_idx = np.sort(default_rng(seed).choice(grid.n_nodes, size=n_ref, replace=False))
            # the table's zero-order integrator with doubled nodes per angular
            # panel, 64 (m=1 power kernel: on each ray panel, n_rho and rule
            # unused; otherwise on each of the polar J form's two graded
            # panels, with doubled n_rho and m >= 2 J order), plus the table's
            # own tail: the reference for Z, whose double is L's row sum
            zoc = dr.zero_order_integral(kern, grid.s[ref_idx], grid.t[ref_idx], grid.R_out,
                                         rule=dr.gauss_jacobi_rule(64, kern.m),
                                         n_phi=320, n_rho=48) + table.ztail[ref_idx]
            max_err = float(np.max(np.abs(table.zero_order[ref_idx] - zoc) / zoc))
            rep = dop.check_max_principle_structure(table)
            report("operator", {**rep.as_dict(), "max_row_sum_error": max_err,
                                "n_zoc_reference_nodes": int(n_ref), "table_source": source})
            return 0 if rep.monotone_probe and max_err <= 1e-3 else 2

        if subcommand == "energy-scan":
            rep = ex.energy_scan(profile, cfg.s_list(), table)
            rows = zip(rep.S_values, rep.energies, rep.kinetic, rep.potential)
            (out / "scan.csv").write_text("S,E_total,E_kin,E_pot\n" + "".join(
                f"{S!r},{e!r},{kk!r},{p!r}\n" for S, e, kk, p in rows))
            report("scan", {**rep.as_dict(), "table_source": source})
            svgplot.line_plot(out / "scan.svg", rep.S_values,
                              {"E_total": rep.energies, "E_kin": rep.kinetic,
                               "E_pot": rep.potential},
                              title="energy growth", xlabel="S", ylabel="E")
            return 0

        w, rep = ex.build_competitor(profile, cfg.competitor_s())
        e_u = en.total_energy(profile, grid.R, table).total
        e_w = en.total_energy(w, grid.R, table).total
        not_below = bool(e_w >= e_u - 1e-9 * abs(e_u))
        report("competitor", {**rep.as_dict(), "energy_minimizer": e_u,
                              "energy_competitor": e_w, "competitor_not_below": not_below,
                              "table_source": source})
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
    parser.add_argument("--out", help="output directory, in place of output.dir")

    def usage_error(message):  # exit 1 like any bad input, not argparse's 2
        raise ConfigError([message])

    parser.error = usage_error
    try:
        args = parser.parse_args(argv)
        cfg = _read_config(args.config)
        if args.out is not None:
            cfg.output["dir"] = args.out
        return run(args.subcommand, cfg.check(), cfg.value("output", "dir"))
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
