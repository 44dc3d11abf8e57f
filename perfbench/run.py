"""The repository benchmark: three workloads over the J -> table -> solve ->
pipeline path of nlsaddle.

    python3 perfbench/run.py --workload {m1-fine,m2-coarse,m1-pipeline,all}
        [--seed N] [--seconds S] [--trace {0,1}]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and nowhere else (the benchmark exits 2 without a result
when src/nlsaddle is absent).  Every process gets a fresh working
directory under .perfbench/, with HOME and XDG_CACHE_HOME inside it and
the BLAS thread variables set before numpy is imported.

--trace 0  end-to-end metrics from untraced runs: wall_s (median over the
           repetitions that fit in --seconds, at least the workload's
           min_reps: two on m1-pipeline, one elsewhere), setup_s
           (median over SETUP_PROBES set-up-only processes and the run's
           own set-up), peak_rss_mb, pair_rel_err, zero_order_rel_err.
--trace 1  per-layer metrics from one traced process, plus one untraced
           process for the tracing overhead; spans go to
           .perfbench/spans-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("m1-fine", "m2-coarse", "m1-pipeline")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pair_rel_err": "rel", "zero_order_rel_err": "rel"}
# per-layer metrics run.py adds to those of tracer.layer_metrics
TRACE_EXTRAS = ("solver.el_residual", "cli.artifact_bytes", "trace.wall_s",
                "trace.overhead_s", "trace.top_span_coverage")
SETUP_PROBES = 7
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes") or name.endswith("_bytes"):
        return "B"
    if name.endswith(".exit"):
        return "code"
    if name.endswith(("el_residual", "coverage")):
        return "1"
    return "count"


class Runner:
    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.base = ROOT / ".perfbench"
        self.threads = str(min(2, len(os.sched_getaffinity(0))))
        self.count = 0

    def spawn(self, workload: str, mode: str) -> dict:
        """Run one worker in a fresh directory and return its result."""
        self.count += 1
        work = self.base / f"tmp-{os.getpid()}-{self.count}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        env = dict(os.environ, HOME=str(work / "home"),
                   XDG_CACHE_HOME=str(work / "cache"),
                   **{var: self.threads for var in BLAS_VARS})
        spans = self.base / f"spans-{workload}-seed{self.args.seed}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--mode", mode,
               "--out", str(work / "result.json"), "--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
            if proc.returncode != 0:
                raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                                 f"{proc.stderr[-4000:]}")
            with open(work / "result.json") as fh:
                return json.load(fh)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} worker overran the deadline") from None
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def measure(self, workload: str) -> dict:
        plain = self.spawn(workload, "plain")
        runs = [plain]
        if self.args.trace:
            traced = self.spawn(workload, "traced")
            runs.append(traced)
            metrics = dict(traced["layer"])
            metrics["solver.el_residual"] = traced["record"]["el_residual"]
            metrics["cli.artifact_bytes"] = traced["record"]["artifact_bytes"]
            wall = statistics.median(traced["walls"])
            metrics["trace.wall_s"] = wall
            metrics["trace.overhead_s"] = wall - statistics.median(plain["walls"])
            metrics["trace.top_span_coverage"] = traced["top_span_s"] / sum(traced["walls"])
            units = {k: layer_unit(k) for k in metrics}
        else:
            setups = [self.spawn(workload, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
            metrics = {"wall_s": statistics.median(plain["walls"]),
                       "setup_s": statistics.median(setups + [plain["setup_s"]]),
                       "peak_rss_mb": plain["peak_rss_mb"],
                       "pair_rel_err": plain["record"]["pair_rel_err"],
                       "zero_order_rel_err": plain["record"]["zero_order_rel_err"]}
            units = END_TO_END
        records = [r["record"] for r in runs]
        return {"metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "problems": [p for r in records for p in r["problems"]],
                "known_failures": {json.dumps(k, sort_keys=True): k
                                   for r in records for k in r["known_failures"]},
                "reps": len(plain["walls"]), "env": plain["env"]}


def report(workload: str, res: dict) -> None:
    print(f"== {workload}: {res['reps']} repetition(s), "
          f"{res['failed']} failed of {res['attempted']} operations")
    print(f"   env {json.dumps(res['env'], sort_keys=True)}")
    for name, m in res["metrics"].items():
        print(f"   {name:<52} {m['value']:<14.6g} {m['unit']}")
    for k in res["known_failures"].values():
        print(f"   known failure (not counted): {k['operation']} {k['property']}: {k['defect']}")
    for p in res["problems"]:
        print(f"   FAILED {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nlsaddle" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'nlsaddle'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(args, time.monotonic() + DEADLINE_S * len(names))
    try:
        results = {name: runner.measure(name) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        report(name, res)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
