"""Outside-in tracer for the nlsaddle layers.

`Tracer.install()` replaces every public module-level function of each
layer module, and `EnergyModel.value_and_grad`, which the solver drives,
by a wrapper that records a span, then rebinds every alias of the original in every
loaded nlsaddle module: modules import these names directly
(`from .doubly_radial import j_values`), so patching the defining module
alone would let those calls escape.  No file of the package is changed.

A span records its name, start, end, parent span and the name of the
calling function; spans stay in memory and are written out by the caller
when the run ends.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ("kernels", "doubly_radial", "energy", "solver", "discrete_operator",
          "experiments", "cli", "svgplot")
METHODS = {"energy": ("EnergyModel.value_and_grad",)}

# functions that call j_values (directly or through a nested helper, such
# as verify_kernel_inequality's `both`) -> the phase they serve
J_GROUPS = {
    "build_kernel_table": "pair",
    "_zcol_corrections": "zero_order",
    "_wedge_integrals": "zero_order",
    "_rim_fragment_integrals": "zero_order",
    "_self_cell_coefficients": "self_cell",
    "zero_order_coefficient": "oracle",
    "verify_kernel_inequality": "inequality",
}
J_GROUP_NAMES = ("pair", "zero_order", "self_cell", "oracle", "inequality", "other")
SUBCOMMANDS = ("solve", "energy-scan", "competitor", "check-operator")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    caller: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _j_group() -> str:
    """Group of the nearest enclosing J_GROUPS function of a j_values call."""
    frame = sys._getframe(3)  # this <- _j_values_attrs <- wrapper <- caller
    for _ in range(4):
        if frame is None:
            break
        if frame.f_code.co_name in J_GROUPS:
            return J_GROUPS[frame.f_code.co_name]
        frame = frame.f_back
    return "other"


def _j_values_attrs(kernel, s, t, sig, tau, rule, *_, **__) -> dict:
    # output points x rule nodes^2 kernel evaluations
    points = math.prod(np.broadcast_shapes(*(np.shape(a) for a in (s, t, sig, tau))))
    return {"kernel_evals": points * len(rule.nodes) ** 2, "group": _j_group()}


def _table_bytes(table) -> dict:
    arrays = (table.D, table.P, table.zcol, table.ztail, table.cs, table.ct,
              table.es, table.et)
    return {"bytes": sum(a.nbytes for a in arrays)}


def _solve_attrs(result) -> dict:
    trace = result.trace
    # each accepted step length is 0.5^k after k halvings
    backtracks = sum(int(round(-math.log2(lam))) for lam in trace.steps)
    return {"iterations": trace.n_iters, "converged": int(trace.converged),
            "backtracks": backtracks}


# qualified name -> (attributes from the arguments, attributes from the result)
HOOKS = {
    "doubly_radial.j_values": (_j_values_attrs, None),
    "energy.build_kernel_table": (None, _table_bytes),
    "solver.minimize": (None, _solve_attrs),
    "doubly_radial.verify_kernel_inequality": (None, lambda r: {"unconverged": r.n_unconverged}),
    "cli.run": (lambda sub, *_, **__: {"subcommand": sub}, lambda code: {"exit": code}),
}


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.wrapped: dict[str, object] = {}  # qualified name -> original
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._enabled = True

    def wrap(self, name: str, fn):
        on_call, on_return = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                        sys._getframe(1).f_code.co_name,
                        on_call(*args, **kwargs) if on_call else {})
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if on_return:
                span.attrs.update(on_return(result))
            return result

        self.wrapped[name] = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        replacement = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nlsaddle.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replacement[obj] = self.wrap(f"{layer}.{attr}", obj)
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(f"{layer}.{dotted}", cls.__dict__[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nlsaddle" or mod_name.startswith("nlsaddle.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._set(mod, attr, replacement[obj])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = True

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


def self_times(spans: list) -> list:
    """Per span, its duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(k)
    out = []
    for k, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[k], key=lambda c: spans[c].start):
            a, b = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.duration - covered)
    return out


def _outermost(spans: list, k: int) -> bool:
    """True unless an enclosing span has the same name (recursion)."""
    p = spans[k].parent
    while p >= 0:
        if spans[p].name == spans[k].name:
            return False
        p = spans[p].parent
    return True


def layer_metrics(spans: list, reps: int) -> dict:
    """Per-layer figures from the spans of `reps` identical repetitions,
    reported per repetition."""
    selfs = self_times(spans)
    calls: dict = {}
    incl: dict = {}
    self_s: dict = {}
    for k, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[k]
        if _outermost(spans, k):
            incl[s.name] = incl.get(s.name, 0.0) + s.duration

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    out = {}
    for g in J_GROUP_NAMES:
        mine = [s for s in spans if s.name == "doubly_radial.j_values"
                and s.attrs["group"] == g]
        out[f"doubly_radial.j_values.{g}.calls"] = len(mine)
        out[f"doubly_radial.j_values.{g}.kernel_evals"] = sum(s.attrs["kernel_evals"] for s in mine)
        out[f"doubly_radial.j_values.{g}.s"] = sum(s.duration for s in mine)
    for name in ("energy.build_kernel_table", "doubly_radial.zero_order_coefficient",
                 "doubly_radial.exterior_tail_coefficient", "kernels.check_sqrt_convexity",
                 "energy.EnergyModel.value_and_grad", "energy.total_energy"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0.0)
    out["energy.build_kernel_table.self_s"] = self_s.get("energy.build_kernel_table", 0.0)
    out["energy.table.bytes"] = max((s.attrs.get("bytes", 0) for s in spans
                                     if s.name == "energy.build_kernel_table"), default=0)
    for name in ("doubly_radial.verify_kernel_inequality", "discrete_operator.assemble",
                 "discrete_operator.check_max_principle_structure",
                 "experiments.energy_scan", "experiments.build_competitor",
                 "svgplot.node_heatmap", "svgplot.line_plot",
                 "energy.save_profile", "energy.load_profile"):
        out[f"{name}.s"] = incl.get(name, 0.0)
    out["doubly_radial.verify_kernel_inequality.unconverged"] = attr_sum(
        "doubly_radial.verify_kernel_inequality", "unconverged")
    for key in ("iterations", "backtracks", "converged"):
        out[f"solver.{key}"] = attr_sum("solver.minimize", key)
    for sub in SUBCOMMANDS:
        mine = [s for s in spans if s.name == "cli.run" and s.attrs.get("subcommand") == sub]
        out[f"cli.run.{sub}.s"] = sum(s.duration for s in mine)
        # -1: the workload does not run this subcommand; a call that raised
        # counts as exit 1, the status the command line would give
        out[f"cli.run.{sub}.exit"] = max((s.attrs.get("exit", 1) for s in mine), default=-1)
    for key, value in out.items():
        if not key.endswith(".exit") and key != "energy.table.bytes":
            out[key] = value / reps
    return out


def top_level_seconds(spans: list) -> float:
    return sum(s.duration for s in spans if s.parent < 0)
