"""Print the byte-identity table of the built-in reports.

    PYTHONPATH=src python tests/report_hashes.py

One line per built-in: the first 16 hex digits of the sha256 of the JSON
report and of the CSV report of `run_suite(builtin_scenario(name), "all",
plan)`, at the scenario's default plan and at SamplePlan(count=4, seed=3).
A change that keeps every report byte-identical prints the same lines.
"""
import hashlib
import os
import sys
import tempfile

from cym.forms import SamplePlan
from cym.harness import SCENARIO_NAMES, builtin_scenario, run_suite

PLANS = (("default plan", None), ("SamplePlan(count=4, seed=3)", SamplePlan(count=4, seed=3)))


def digests(report, scratch) -> str:
    report.write_csv(scratch)
    with open(scratch, "rb") as fh:
        csv_bytes = fh.read()
    return " / ".join(hashlib.sha256(blob).hexdigest()[:16]
                      for blob in (report.to_json().encode(), csv_bytes))


def main() -> int:
    print("built-in | " + " | ".join(label for label, _ in PLANS) + "  (json / csv)")
    with tempfile.TemporaryDirectory() as tmp:
        scratch = os.path.join(tmp, "report.csv")
        for name in SCENARIO_NAMES:
            bundle = builtin_scenario(name)
            print(f"{name} | " + " | ".join(
                digests(run_suite(bundle, "all", plan), scratch) for _, plan in PLANS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
