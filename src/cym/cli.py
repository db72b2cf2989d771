"""Command-line front end.

`cym verify` resolves a scenario (built-in name or JSON file), runs one named
residual suite or all applicable ones, prints a PASS/FAIL line per suite, and
optionally writes the deterministic JSON report and the per-point CSV.

Exit status: 0 when every selected check passes, 1 when any check fails,
2 on input errors (unknown scenario or suite, malformed scenario file, a
sample count below 1, a negative seed, a tolerance scale or step that is not
a finite number above 0, unwritable output path).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from .harness import (SCENARIO_NAMES, ScenarioError, builtin_scenario,
                      load_scenario, require_finite_positive, run_suite,
                      suite_names)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cym",
        description="Residual verification for gauge theory on trivialized "
                    "group bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run residual suites against a scenario")
    verify.add_argument(
        "--scenario", required=True, metavar="NAME|PATH",
        help="built-in scenario name (%s) or path to a scenario JSON file"
             % ", ".join(SCENARIO_NAMES))
    verify.add_argument(
        "--suite", default="all", metavar="NAME",
        help="suite to run: one of %s, or 'all' for every suite applicable "
             "to the scenario (default)" % ", ".join(suite_names()))
    verify.add_argument("--points", type=int, default=None,
                        help="override the number of sample points")
    verify.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    verify.add_argument("--h", type=float, default=None,
                        help="t-step of fibre-connection/stencil-vs-analytic "
                             "and stencil step of principal/mixed-bracket")
    verify.add_argument("--h2", type=float, default=None,
                        help="t-step of lagrangian/infinitesimal")
    verify.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply every tolerance by this factor")
    verify.add_argument("--report", default=None, metavar="OUT.json",
                        help="write the full JSON report here")
    verify.add_argument("--csv", default=None, metavar="OUT.csv",
                        help="write per-point residual rows here")
    return parser


def _resolve_scenario(token: str):
    if token in SCENARIO_NAMES:
        return builtin_scenario(token)
    return load_scenario(token)


@np.errstate(all="ignore")  # an overflow or a NaN is a failing row, not a warning
def _cmd_verify(args) -> int:
    for flag, value in (("--tol-scale", args.tol_scale), ("--h", args.h),
                        ("--h2", args.h2)):
        if value is not None:
            require_finite_positive(flag, value)
    bundle = _resolve_scenario(args.scenario)
    plan = bundle.plan
    for flag, name, value in (("--points", "count", args.points), ("--seed", "seed", args.seed)):
        if value is not None:
            try:
                plan = dataclasses.replace(plan, **{name: value})
            except ValueError as exc:
                raise ScenarioError(f"{flag}: {exc}") from None

    report = run_suite(bundle, args.suite, plan=plan, h=args.h, h2=args.h2,
                       tol_scale=args.tol_scale)

    for suite in report.suites:
        binding = suite._binding()
        status = "PASS" if suite.passed else "FAIL"
        print(f"[{status}] {suite.name}: residual {binding.residual:.3e} "
              f"(tolerance {binding.tolerance:.1e})")
        if not suite.passed:
            for check in suite.checks:
                if not check.passed:
                    print(f"       {check.check}: {check.residual:.3e} "
                          f"> {check.tolerance:.1e}")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if args.csv:
        report.write_csv(args.csv)

    verdict = "all checks passed" if report.passed else "checks FAILED"
    print(f"{report.scenario}: {verdict}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_verify(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
