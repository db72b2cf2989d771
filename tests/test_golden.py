"""Golden parity reports: every built-in's full report at a small fixed plan,
compared with the report committed under `tests/golden/`.

Each golden file holds the strict-JSON report (`VerificationReport.to_json`)
and every per-point residual (the rows `write_csv` writes). The test checks
the schema, the check names and verdicts exactly, and every residual and
per-point value to within `ABS_TOL`, with NaN matching only NaN, so a change
of evaluation order that moves a value in its last digits still passes while
a change of route or law does not.

A change that means to move residuals regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists every value that moved by more than `ABS_TOL` in CHANGES.md.
"""
import json
import math
import pathlib

import pytest

from cym.forms import SamplePlan
from cym.harness import SCENARIO_NAMES, builtin_scenario, run_suite

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_PLAN = SamplePlan(count=4, seed=3)
ABS_TOL = 1e-12


def golden_blob(name: str) -> dict:
    report = run_suite(builtin_scenario(name), "all", plan=GOLDEN_PLAN)
    return {"report": json.loads(report.to_json()),
            "per_point": [list(row) for row in report.csv_rows()]}


def same_value(got, want) -> bool:
    """Residuals as floats or as the report's "nan"/"inf"/"-inf" strings."""
    got, want = float(got), float(want)
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= ABS_TOL


def schema(value):
    """The nested key structure of a JSON value, without its leaves."""
    if isinstance(value, dict):
        return {k: schema(v) for k, v in value.items()}
    if isinstance(value, list):
        return [schema(v) for v in value]
    return None


def mismatches(got: dict, want: dict) -> list:
    out = []
    if schema(got["report"]) != schema(want["report"]):
        return ["report schema differs"]
    g, w = got["report"], want["report"]
    for key in ("scenario", "env", "pass"):
        if g[key] != w[key]:
            out.append(f"{key}: {g[key]!r} != {w[key]!r}")
    for gs, ws in zip(g["suites"], w["suites"]):
        for key in ("name", "anchor", "tolerance", "pass"):
            if gs[key] != ws[key]:
                out.append(f"{ws['name']} {key}: {gs[key]!r} != {ws[key]!r}")
        if not same_value(gs["residual"], ws["residual"]):
            out.append(f"{ws['name']} residual: {gs['residual']!r} != {ws['residual']!r}")
        for gc, wc in zip(gs["checks"], ws["checks"]):
            where = f"{ws['name']}/{wc['check']}"
            for key in ("check", "tolerance", "pass"):
                if gc[key] != wc[key]:
                    out.append(f"{where} {key}: {gc[key]!r} != {wc[key]!r}")
            if not same_value(gc["residual"], wc["residual"]):
                out.append(f"{where} residual: {gc['residual']!r} != {wc['residual']!r}")
    if len(got["per_point"]) != len(want["per_point"]):
        return out + ["per-point row count differs"]
    for gr, wr in zip(got["per_point"], want["per_point"]):
        if gr[:3] != wr[:3]:
            out.append(f"per-point row {gr[:3]} != {wr[:3]}")
        elif not same_value(gr[3], wr[3]):
            out.append(f"{'/'.join(map(str, wr[:3]))}: {gr[3]} != {wr[3]}")
    return out


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_report_matches_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = golden_blob(name)
    assert mismatches(got, want) == []


def test_comparison_tolerates_rounding_only():
    assert same_value(0.5 + 1e-13, 0.5) and not same_value(0.5 + 1e-10, 0.5)
    assert same_value("nan", "nan") and not same_value(0.0, "nan")
    assert not same_value("nan", 0.0) and same_value("inf", "inf")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in SCENARIO_NAMES:
        path = GOLDEN_DIR / f"{scenario}.json"
        path.write_text(json.dumps(golden_blob(scenario), indent=1,
                                   sort_keys=True) + "\n")
        print(f"wrote {path}")
