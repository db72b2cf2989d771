"""The names the benchmark's tracer (`perfbench/tracer.py`) wraps must stay in
cym, the suite registry must keep the shape the tracer wraps, and the checks
the benchmark's verdict gate expects (`perfbench/workload.py`) must be the
declared ones: a refactor that deletes or renames one, or changes `SUITES`
entries, fails here, in the test suite, and not only in the benchmark pass.
The tracer and the workload are read, not changed."""
import importlib
import importlib.util
import pathlib
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import cym.cli
import cym.forms as fm
import cym.harness  # noqa: F401  (imports every module the tracer names)

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_module("perfbench_tracer", TRACER_PATH)
# the workload imports the tracer by its bare name and puts src/ on sys.path
with mock.patch.dict(sys.modules, tracer=TRACER), mock.patch.object(sys, "path", list(sys.path)):
    WORKLOAD = load_module("perfbench_workload", TRACER_PATH.with_name("workload.py"))


@pytest.mark.parametrize("layer, module, attr",
                         TRACER.SPAN_FUNCTIONS + TRACER.COUNTED_FUNCTIONS)
def test_traced_function_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr)), layer


@pytest.mark.parametrize("layer, module, cls, attr",
                         TRACER.SPAN_METHODS + TRACER.COUNTED_METHODS)
def test_traced_method_resolves(layer, module, cls, attr):
    # the tracer patches the method in the class's own namespace
    assert callable(vars(getattr(importlib.import_module(module), cls))[attr]), layer


def test_tracer_counts_components_and_stencils_then_restores():
    init = vars(fm.LieForm)["__init__"]
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        f = fm.form_from_components(2, 0, "scalar", (), lambda x, idx: x[0] * x[1])
        df = fm.exterior_derivative(f)
        np.testing.assert_allclose(df.components(np.array([0.5, 0.25]), (1,)), 0.5)
    finally:
        tracer.restore()
    assert vars(fm.LieForm)["__init__"] is init
    assert tracer.calls["forms.components"] == 1
    assert tracer.calls["forms.stencil_partial"] == 1


def test_traced_run_spans_each_suite_once_then_restores_the_registry(tmp_path):
    suites = cym.harness.SUITES
    before = dict(suites)
    bundle = cym.harness.builtin_scenario("flat-su2")
    ran = [name for name, (_, applicable, _) in suites.items() if applicable(bundle) is True]
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        assert all(suites[name][2] is not before[name][2] for name in before)
        code = cym.cli.main(["verify", "--scenario", "flat-su2", "--suite", "all",
                             "--points", "2", "--report", str(tmp_path / "r.json")])
    finally:
        tracer.restore()
    assert code == 0
    spans = Counter(layer for _, _, layer, _, _ in tracer.spans
                    if layer.startswith("harness.suite."))
    assert spans == {f"harness.suite.{name}": 1 for name in ran}
    assert cym.harness.SUITES is suites
    assert suites.keys() == before.keys()
    assert all(suites[name][i] is before[name][i] for name in before for i in range(3))


def test_the_benchmark_expects_the_declared_checks():
    expected, declared = WORKLOAD.EXPECTED_CHECKS, cym.harness.CHECKS
    assert list(expected) == list(declared)
    for suite, checks in expected.items():
        # gauge-laws checks are expected once per named entry, and bianchi's
        # analytic key, the one every built-in reports, in place of its stencil key
        names = {check.split(":", 1)[0] for check, _ in checks}
        assert names == declared[suite].keys() - ({"stencil"} if suite == "bianchi" else set())
    global_checks = {check for checks in expected.values() for check, is_global in checks
                     if is_global}
    report = cym.harness.run_suite(cym.harness.builtin_scenario("bpst"), "all",
                                   plan=fm.SamplePlan(count=2, seed=0))
    assert {row.check for suite in report.suites for row in suite.checks
            if [point for point, _ in row.per_point] == [-1]} == global_checks
    assert global_checks == {"jacobi", "instanton-number"}
