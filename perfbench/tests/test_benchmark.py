"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

import cym.algebra  # noqa: E402
import cym.harness  # noqa: E402
from cym.harness import CheckRow, SuiteReport, VerificationReport  # noqa: E402


def _declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc, {m["name"]: m["unit"]
                 for m in doc["end_to_end"] + doc["per_layer"]}


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_tiny_plan_pass_has_no_failed_checks(name, tmp_path):
    result = workload.run_pass(name, 3, str(tmp_path), points=1)
    spec = workload.WORKLOADS[name]
    expected = len(spec["scenarios"]) * sum(
        len(workload.EXPECTED_CHECKS[s]) for s in spec["suites"])
    assert result["problems"] == []
    assert (result["attempted"], result["failed"]) == (expected, 0)
    assert result["wall_s"] > 0 and result["cpu_s"] > 0


def test_seed_moves_points_not_shape(tmp_path):
    one = workload.run_pass("many-points", 1, str(tmp_path), points=2)
    two = workload.run_pass("many-points", 2, str(tmp_path), points=2)
    assert one["points_digest"] != two["points_digest"]
    assert one["shape"] == two["shape"]
    assert one["failed"] == two["failed"] == 0


def _stub_report(per_point):
    row = CheckRow(check="central-form", residual=0.0, tolerance=1e-6,
                   per_point=per_point)
    suite = SuiteReport(name="self-duality", anchor="stub", checks=[row])
    return VerificationReport(scenario="bpst", suites=[suite], env={})


@pytest.mark.parametrize("via", ["report", "files"])
def test_nan_per_point_residual_counts_as_failed(via, tmp_path):
    # residual 0.0 next to a NaN row is what a max(...) reduction reports
    report = _stub_report([(0, float("nan")), (1, 0.0)])
    outcome = {}
    if via == "report":
        workload.results_from_report("bpst", report, outcome)
    else:
        (tmp_path / "r.json").write_text(report.to_json())
        report.write_csv(tmp_path / "r.csv")
        workload.results_from_files("bpst", tmp_path / "r.json",
                                    tmp_path / "r.csv", outcome)
    attempted, failed, problems = workload.gate(
        outcome, {}, ("bpst",), ("self-duality",), 2)
    assert (attempted, failed) == (1, 1)
    assert "not finite" in problems[0]


def test_gate_counts_missing_raised_and_wrong_rows():
    outcome = {}
    workload.results_from_report("bpst", _stub_report([(0, 1e-9)]), outcome)
    attempted, failed, _ = workload.gate(
        outcome, {("bpst", "charge"): "boom"}, ("bpst",),
        ("self-duality", "charge", "bianchi"), 2)
    # self-duality has 1 row of 2; charge raised; bianchi is missing
    assert (attempted, failed) == (3, 3)
    good = {("bpst", "self-duality"): {
        "central-form": (1e-9, 1e-6, True, [1e-9, 2e-9])}}
    assert workload.gate(good, {}, ("bpst",), ("self-duality",), 2)[:2] == (1, 0)


def test_traced_counters_repeat_and_wrappers_are_restored(tmp_path):
    originals = (cym.algebra.expm, cym.harness.expm,
                 cym.algebra.ad_matrix_of_group, dict(cym.harness.SUITES),
                 cym.harness.VerificationReport.to_json)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        result = workload.run_pass("many-points", 5, str(tmp_path), points=2,
                                   tracer=tracer)
        layers = workload.layer_metrics(tracer, result)
        counts.append({k: v for k, v in layers.items()
                       if k.endswith((".calls", ".events", ".rows"))})
        assert layers["algebra.expm.calls"] > 0
        assert layers["harness.load_scenario.s"] > 0
        assert tracer.spans and all(s[3] <= s[4] for s in tracer.spans)
    assert counts[0] == counts[1]
    assert originals == (cym.algebra.expm, cym.harness.expm,
                         cym.algebra.ad_matrix_of_group,
                         dict(cym.harness.SUITES),
                         cym.harness.VerificationReport.to_json)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared_with_their_units(trace):
    doc, declared = _declared()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "polynomial",
         "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = doc["per_layer"] if trace else doc["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("tmp-*", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "instanton",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
