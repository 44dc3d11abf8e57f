"""One benchmark process: set up, run a workload, check it, write a result.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --mode {setup,plain,traced} --out FILE [--spans FILE]

run.py starts every worker in a fresh working directory, with HOME,
XDG_CACHE_HOME and the BLAS thread variables already set, so nothing on
disk survives between runs and numpy starts with the intended thread count.

setup   imports the package and builds the kernel, grid and rule; writes
        the time that took.
plain   also runs the workload's operations, repeated until S seconds have
        passed and the workload's min_reps repetitions are done, and checks
        every output.
traced  the same with the tracer installed; writes the spans to --spans.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    return p.parse_args(argv)


def _environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    args = _parse(argv)
    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import nlsaddle.cli  # every layer, with numpy and scipy
    import_s = time.perf_counter() - t0
    if not Path(nlsaddle.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"nlsaddle imported from {nlsaddle.cli.__file__}, not {src}")

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    t1 = time.perf_counter()
    wl.setup()
    result = {"setup_s": import_s + time.perf_counter() - t1}
    if args.mode != "setup":
        result.update(_run(wl, args))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _run(wl, args) -> dict:
    import workloads
    tracing = None
    if args.mode == "traced":
        import tracer
        tracing = tracer.Tracer()
        tracing.install()
    rec = workloads.Record()
    walls = []
    start = time.perf_counter()
    while len(walls) < wl.min_reps or time.perf_counter() - start < args.seconds:
        out_dir = Path.cwd() / f"rep{len(walls)}"
        out_dir.mkdir()
        wall = 0.0
        for op, fn in wl.operations(out_dir):
            rec.attempted += 1
            raised = None
            t = time.perf_counter()
            try:
                value = fn()
            except Exception:  # a failed operation is counted, not fatal
                raised = traceback.format_exc(limit=4)
            wall += time.perf_counter() - t
            problems = [raised] if raised else []
            try:
                with tracing.paused() if tracing else contextlib.nullcontext():
                    problems += wl.check_captured(rec)
                    if raised is None:
                        problems += wl.check(op, value, rec)
            except Exception:
                problems.append(f"check crashed: {traceback.format_exc(limit=4)}")
            if problems:
                rec.problems.append(f"{op}: " + "; ".join(problems))
        wl.end_rep(rec)
        walls.append(wall)
    out = {"walls": walls, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "record": rec.as_dict(), "env": _environment()}
    if tracing:
        tracing.uninstall()
        out["layer"] = tracer.layer_metrics(tracing.spans, len(walls))
        out["top_span_s"] = tracer.top_level_seconds(tracing.spans)
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "reps": len(walls),
                       "spans": tracing.dump()}, fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
