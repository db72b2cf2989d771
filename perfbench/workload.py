"""One pass of a cym benchmark workload, in its own process.

A pass is what a `cym verify` user waits for: import cym, build or load the
workload's scenarios (set-up), then run its suites one after another, each
call starting when the previous one returns (closed loop, one client).  The
pass then checks every verdict and prints one JSON object as its last line.

    python3 perfbench/workload.py --workload instanton --seed 7 \
        --t0 <time.monotonic() of the caller before it started this process>

`run.py` starts these processes; the benchmark's tests call `run_pass` and
`gate` directly.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cym  # noqa: E402
import cym.cli  # noqa: E402
from cym.forms import SamplePlan  # noqa: E402
from cym.harness import builtin_scenario, run_suite, save_scenario  # noqa: E402
from tracer import Tracer  # noqa: E402

if not Path(cym.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"cym imported from {cym.__file__}, not from {ROOT / 'src'}")

POLYNOMIAL = ("flat-su2", "abelian-u1", "preclassical-u1su2", "random-curved")
LIGHT_SUITES = ("algebra", "compatibility", "multiplicativity", "bianchi",
                "field-redef", "fibre-connection")

# Every check each suite must report, with whether it has one global row
# (True) or one row per sample point (False).  The five built-ins share
# their section and automorphism names, so one table serves all of them.
_NAMED = ("constant", "generic", "identity", "twist")
EXPECTED_CHECKS = {
    "algebra": (("jacobi", True), ("ad-homomorphism", False),
                ("kappa-invariance", False), ("exp-ad-consistency", False)),
    "compatibility": (("derivation", False), ("curvature", False)),
    "darboux": (("leibniz", False), ("inverse", False)),
    "fibre-connection": (("stencil-vs-analytic", False),),
    "multiplicativity": (("total-form", False),),
    "generalized-mc": (("total-space", False), ("pullback", False)),
    "principal": tuple((c, False) for c in (
        "action-differential", "section-independence", "equivariance",
        "kernel-invariance", "projection-commutation", "mixed-bracket")),
    "structure-equation": (("dual-path", False), ("horizontality", False),
                           ("adjoint-type", False)),
    "gauge-laws": tuple((f"section:{n}", False) for n in _NAMED) + tuple(
        (f"automorphism-{kind}:{n}", False) for n in _NAMED
        for kind in ("potential", "field-strength")),
    "bianchi": (("analytic", False),),
    "field-redef": (("invariance", False), ("closure-derivation", False),
                    ("closure-curvature", False)),
    "lagrangian": (("finite", False), ("infinitesimal", False)),
    "self-duality": (("central-form", False),),
    "charge": (("instanton-number", True),),
}
ALL_SUITES = tuple(EXPECTED_CHECKS)
# suites that `--suite all` selects only on a four-dimensional chart (bpst)
FOUR_D_SUITES = ("self-duality", "charge")

# Why each workload exists is in README.md.  `points` is the plan size; it
# sets the work per pass and never depends on the seed.
WORKLOADS = {
    "instanton": {"scenarios": ("bpst",), "suites": ALL_SUITES,
                  "points": 2, "via": "library"},
    "polynomial": {"scenarios": POLYNOMIAL,
                   "suites": tuple(s for s in ALL_SUITES
                                   if s not in FOUR_D_SUITES),
                   "points": 2, "via": "library"},
    "many-points": {"scenarios": POLYNOMIAL, "suites": LIGHT_SUITES,
                    "points": 150, "via": "cli"},
}

# |Q - 1| the instanton charge must meet, whatever tolerance the scenario sets
CHARGE_LIMIT = 0.01


# ---------------------------------------------------------------------------
# verdict gate
# ---------------------------------------------------------------------------

def results_from_report(scenario, report, outcome):
    """Normalise a VerificationReport into the gate's input, adding it to
    outcome: {(scenario, suite): {check: (residual, tolerance, passed,
    [per-point residuals])}}."""
    for suite in report.suites:
        outcome[(scenario, suite.name)] = {
            c.check: (float(c.residual), float(c.tolerance), bool(c.passed),
                      [float(r) for _, r in c.per_point])
            for c in suite.checks}


def results_from_files(scenario, report_path, csv_path, outcome):
    """Normalise the JSON report and per-point CSV that `cym verify` wrote."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    per_point = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for suite, check, _point, residual in list(csv.reader(fh))[1:]:
            per_point.setdefault((suite, check), []).append(float(residual))
    for suite in report["suites"]:
        outcome[(scenario, suite["name"])] = {
            c["check"]: (float(c["residual"]), float(c["tolerance"]),
                         bool(c["pass"]),
                         per_point.get((suite["name"], c["check"]), []))
            for c in suite["checks"]}


def _problem(suite, check, got, rows):
    """Why one expected check failed the gate, or None."""
    residual, _tolerance, passed, per_point = got
    if not math.isfinite(residual):
        return f"residual {residual!r} is not finite"
    if not all(math.isfinite(r) for r in per_point):
        return "a per-point residual is not finite"
    if not passed:
        return f"did not pass (residual {residual:.3e})"
    if len(per_point) != rows:
        return f"{len(per_point)} per-point rows, expected {rows}"
    if (suite, check) == ("charge", "instanton-number") \
            and not residual <= CHARGE_LIMIT:
        return f"|Q - 1| = {residual:.3e} > {CHARGE_LIMIT}"
    return None


def gate(outcome, raised, scenarios, suites, points):
    """Count checks attempted and failed against the expected shape.

    outcome maps (scenario, suite) to its checks (see results_from_report);
    raised maps (scenario, suite) to the error of a suite that raised.  A
    check fails when it is missing, did not pass, has a residual or a
    per-point residual that is not finite, has the wrong number of rows, or
    belongs to a suite that raised.  Checks outside the expected shape fail
    too.  Returns (attempted, failed, problems)."""
    attempted, failed, problems = 0, 0, []
    expected_keys = {(sc, su) for sc in scenarios for su in suites}
    for scenario in scenarios:
        for suite in suites:
            checks = outcome.get((scenario, suite), {})
            for check, is_global in EXPECTED_CHECKS[suite]:
                attempted += 1
                if (scenario, suite) in raised:
                    why = f"suite raised {raised[(scenario, suite)]}"
                elif check not in checks:
                    why = "missing"
                else:
                    why = _problem(suite, check, checks[check],
                                   1 if is_global else points)
                if why:
                    failed += 1
                    problems.append(f"{scenario}/{suite}/{check}: {why}")
            known = {c for c, _ in EXPECTED_CHECKS[suite]}
            for check in sorted(set(checks) - known):
                attempted += 1
                failed += 1
                problems.append(f"{scenario}/{suite}/{check}: unexpected check")
    for scenario, suite in sorted(set(outcome) - expected_keys):
        for check in sorted(outcome[(scenario, suite)]):
            attempted += 1
            failed += 1
            problems.append(f"{scenario}/{suite}/{check}: unexpected suite")
    return attempted, failed, problems


def shape_of(outcome):
    """The workload's shape as reported: suites, checks and row counts."""
    return sorted((sc, su, check, len(got[3]))
                  for (sc, su), checks in outcome.items()
                  for check, got in checks.items())


def max_tol_ratio(outcome):
    """Largest finite residual/tolerance over every check (headroom)."""
    ratios = [got[0] / got[1] for checks in outcome.values()
              for got in checks.values()
              if got[1] > 0 and math.isfinite(got[0])]
    return max(ratios, default=0.0)


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def _plan(bundle, points, seed):
    base = bundle.plan
    return SamplePlan(mode=base.mode, count=points, seed=seed,
                      tangent_probes=base.tangent_probes)


def _points_digest(bundles, points, seed):
    digest = hashlib.sha256()
    for bundle in bundles:
        digest.update(_plan(bundle, points, seed).points(bundle.chart).tobytes())
    return digest.hexdigest()[:16]


def run_pass(workload, seed, workdir, points=None, t0=None, tracer=None,
             setup_only=False):
    """Set up and run one pass of workload; return its measurements.

    t0 is the time.monotonic() at which the caller started this process (it
    defaults to now).  tracer, when given, is installed before set-up and
    restored before the verdicts are checked."""
    if t0 is None:
        t0 = time.monotonic()
    spec = WORKLOADS[workload]
    points = spec["points"] if points is None else points
    if tracer is not None:
        tracer.install()
    try:
        bundles = [builtin_scenario(name) for name in spec["scenarios"]]
        files = {}
        if spec["via"] == "cli":
            for bundle in bundles:
                files[bundle.name] = os.path.join(workdir, f"{bundle.name}.json")
                save_scenario(bundle, files[bundle.name])
        start = time.monotonic()
        setup_s = start - t0
        if setup_only:
            return {"setup_s": setup_s}

        cpu0 = time.process_time()
        outcome, raised, written = {}, {}, []
        if spec["via"] == "library":
            for bundle in bundles:
                try:
                    report = run_suite(bundle, "all",
                                       plan=_plan(bundle, points, seed))
                except Exception as exc:  # a raising suite is a failed check
                    for suite in spec["suites"]:
                        raised[(bundle.name, suite)] = repr(exc)
                    continue
                results_from_report(bundle.name, report, outcome)
        else:
            for bundle in bundles:
                for suite in spec["suites"]:
                    stem = os.path.join(workdir, f"{bundle.name}.{suite}")
                    argv = ["verify", "--scenario", files[bundle.name],
                            "--suite", suite, "--points", str(points),
                            "--seed", str(seed), "--report", stem + ".json",
                            "--csv", stem + ".csv"]
                    with contextlib.redirect_stdout(io.StringIO()):
                        try:
                            code = cym.cli.main(argv)
                        except Exception as exc:
                            code = repr(exc)
                    if code == 0:
                        written.append((bundle.name, stem))
                    else:
                        raised[(bundle.name, suite)] = f"cym verify ended with {code}"
        wall_s = time.monotonic() - start
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.restore()

    for scenario, stem in written:
        results_from_files(scenario, stem + ".json", stem + ".csv", outcome)
    attempted, failed, problems = gate(outcome, raised, spec["scenarios"],
                                       spec["suites"], points)
    charge = outcome.get(("bpst", "charge"), {}).get("instanton-number")
    return {
        "wall_s": wall_s, "cpu_s": cpu_s, "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "rows": sum(len(got[3]) for checks in outcome.values()
                    for got in checks.values()),
        "max_tol_ratio": max_tol_ratio(outcome),
        "charge_abs_err": charge[0] if charge else None,
        "shape": shape_of(outcome),
        "points_digest": _points_digest(bundles, points, seed),
    }


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass
# ---------------------------------------------------------------------------

def layer_metrics(tracer, result):
    """The per-layer metrics of BENCHMARK.json from a traced pass."""
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    out = {}
    for layer in ("algebra.expm", "algebra.ad_matrix_of_group",
                  "algebra.variety_residual", "forms.stencil_partial",
                  "connection.check_compatibility", "lgb.body_derivative",
                  "gauge.change_of_gauge"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in ("algebra.expand_in_rep", "forms.poly_evaluate",
                  "forms.components", "lgb.dexp_body",
                  "gauge.lagrangian_density"):
        out[f"{layer}.calls"] = calls[layer]
    for layer in ("principal.total_field_strength",
                  "principal.gauge_transform_total", "gauge.instanton_charge",
                  "cli.main"):
        out[f"{layer}.self_s"] = self_s[layer]
    out["forms.order_loss.events"] = tracer.order_loss_events
    for suite in ALL_SUITES:
        out[f"harness.suite.{suite}.s"] = total_s[f"harness.suite.{suite}"]
    out["harness.load_scenario.s"] = total_s["harness.load_scenario"]
    out["harness.report_write.s"] = total_s["harness.report_write"]
    out["harness.rows"] = result["rows"]
    out["harness.max_tol_ratio"] = result["max_tol_ratio"]
    out["charge_abs_err"] = result["charge_abs_err"] or 0.0
    return out


def environment():
    """BLAS library and threads, core count and versions, for the record."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _openblas_threads():
    """Threads numpy's bundled OpenBLAS will use, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True,
                        help="directory for scenario files, reports and CSVs")
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the caller started us")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first suite would start")
    parser.add_argument("--spans", default=None, metavar="OUT.jsonl",
                        help="trace this pass and write its spans here")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.spans else None
    result = run_pass(args.workload, args.seed, args.workdir, t0=args.t0,
                      tracer=tracer, setup_only=args.setup_only)
    if tracer is not None:
        tracer.write_spans(args.spans)
        result["layers"] = layer_metrics(tracer, result)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
