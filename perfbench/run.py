"""cym benchmark: time to a verdict, CPU and memory per workload.

    python3 perfbench/run.py --workload instanton --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each pass of a workload runs in a fresh
process (`workload.py`), as every `cym verify` invocation does, so set-up is
measured on every pass.  With --trace 0 the run repeats passes until
--seconds are used and prints the medians of the end-to-end metrics.  With
--trace 1 it makes one untraced pass, one traced pass and one pass with BLAS
pinned to one thread, whatever --seconds says, and prints the per-layer
metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the environment
and every pass.  A pass that cannot start or crashes ends the run with exit
status 1 and no result line.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is the only metric that a single process start sees once; these
# extra start-ups (import and scenario build only) give its median enough
# samples on workloads with long passes.
SETUP_PROBES = 4
# A median needs more than one pass, even when one pass fills the budget.
MIN_PASSES = 2
PASS_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"calls": "count", "events": "count", "rows": "count",
                   "max_tol_ratio": "1", "charge_abs_err": "1"}


class PassError(RuntimeError):
    """A pass process failed to start, crashed or printed no result."""


def unit_of(name):
    """Unit of a metric name: END_TO_END, else its last dotted part."""
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def run_pass(workload, seed, workdir, *, setup_only=False, spans=None,
             env=None):
    """Start one workload.py process, wait for it, and return its result."""
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    if spans:
        argv += ["--spans", spans]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with status "
                        f"{proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - t0
    return result


def measure(workload, seed, seconds, workdir):
    """Untraced passes until the budget is used, at least MIN_PASSES of
    them; medians of each metric."""
    start = time.monotonic()
    setups = [run_pass(workload, seed, workdir, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        passes.append(run_pass(workload, seed, workdir))
        typical = statistics.median(p["process_s"] for p in passes)
        if (len(passes) >= MIN_PASSES
                and time.monotonic() - start + typical > seconds):
            break
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups + [p["setup_s"] for p in passes])
    return metrics, passes


def trace_layers(workload, seed, workdir):
    """Untraced, traced and one-BLAS-thread passes; per-layer metrics."""
    plain = run_pass(workload, seed, workdir)
    spans = HERE / "out" / f"{workload}-seed{seed}.spans.jsonl"
    spans.parent.mkdir(exist_ok=True)
    traced = run_pass(workload, seed, workdir, spans=str(spans))
    one_thread = run_pass(workload, seed, workdir,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    metrics = dict(traced.pop("layers"))
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["blas1.wall_s"] = one_thread["wall_s"]
    metrics["blas1.cpu_s"] = one_thread["cpu_s"]
    return metrics, [plain, traced, one_thread]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="tmp-run-", dir=HERE)
    try:
        if args.trace:
            metrics, passes = trace_layers(args.workload, args.seed, workdir)
        else:
            metrics, passes = measure(args.workload, args.seed, args.seconds,
                                      workdir)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": passes[0]["environment"],
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "setup_s",
                                      "peak_rss_mb", "failed", "problems")}
                   for p in passes]}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
