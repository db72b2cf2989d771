"""Scenario registry, scenario-file ingestion, suite runner, report
determinism, and the command-line wrapper."""
import copy
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import textwrap
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cym
from cym.algebra import (VARIETY_TOL, VarietyError, ad_matrix_c, algebra_to_dict,
                         group_exp, su2, u1)
from cym.cli import main as cli_main
from cym.connection import (LabConnection, ad_mapped_form, check_compatibility,
                            curvature, cov_ext_deriv, field_redefine,
                            potential_curvature)
from cym.forms import (PolyData, SamplePlan, add_forms, bracket_pairing,
                       euclidean_chart, exterior_derivative, form_from_components,
                       form_from_poly, graded_product, increasing_indices, max_gap,
                       zero_form)
from cym.gauge import change_of_gauge, instanton_charge, local_field_strength
from cym.harness import (CHECKS, DEFAULT_TOLERANCES, GATE_PLAN, SCENARIO_NAMES,
                         SUITES, CheckRow, RunEnv, ScenarioError,
                         SuiteReport, VerificationReport,
                         algebra_kernel_residuals, bpst_central_form,
                         bpst_potential, builtin_scenario, load_scenario,
                         run_suite, save_scenario, scenario_from_dict,
                         scenario_to_dict, suite_names, _assemble, _const_poly,
                         _check_row, _linear_poly, _random_section_pairs)
from cym.lgb import GSection, generalized_mc_rows
from cym.principal import gauge_transform_total

QUICK = SamplePlan(count=4, seed=7)


def scenario_blob():
    """Minimal valid scenario dict on a flat abelian 2-chart."""
    return {
        "name": "fixture",
        "algebra": "u1",
        "chart": {"dim": 2, "half": 1.0},
        "forms": {
            "omega": {"degree": 1,
                      "terms": {"0": [{"coeffs": [0.2], "exponents": [0, 1]}]}},
            "zeta": "curvature-of-omega",
            "A": {"degree": 1,
                  "terms": {"1": [{"coeffs": [0.5], "exponents": [1, 0]}]}},
        },
    }


def custom_u1(**changes):
    """The full descriptor blob of u(1) under another name, with the given
    entries replaced, or dropped where given as None."""
    blob = dict(algebra_to_dict(dataclasses.replace(u1(), name="my-u1")), **changes)
    return {key: value for key, value in blob.items() if value is not None}


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_builtin_scenarios_construct_and_gate(name):
    bundle = builtin_scenario(name)
    assert bundle.name == name
    s = bundle.scenario
    assert check_compatibility(s, GATE_PLAN).passed
    assert "identity" in bundle.sections
    assert "identity" in bundle.automorphisms


def test_unknown_builtin_rejected():
    with pytest.raises(ScenarioError, match="unknown built-in scenario"):
        builtin_scenario("moebius")


SCENARIO_DIR = pathlib.Path(cym.__file__).with_name("scenarios")
POLYNOMIAL_BUILTINS = [name for name in SCENARIO_NAMES if name != "bpst"]


def test_every_polynomial_builtin_is_one_packaged_file():
    assert sorted(p.name for p in SCENARIO_DIR.iterdir()) == sorted(
        f"{name}.json" for name in POLYNOMIAL_BUILTINS)


@pytest.mark.parametrize("name", POLYNOMIAL_BUILTINS)
def test_packaged_scenario_file_is_a_fixed_point_of_save(tmp_path, name):
    save_scenario(builtin_scenario(name), tmp_path / "s.json")
    assert (tmp_path / "s.json").read_bytes() == (SCENARIO_DIR / f"{name}.json").read_bytes()


def random_curved_recipe():
    """The seeded recipe that froze `scenarios/random-curved.json`: su(2) on
    the euclidean 3-chart, its forms and section exponents drawn from seed 42."""
    alg = su2()
    chart = euclidean_chart(3, half=1.0)
    rng = np.random.default_rng(42)

    def poly_form(degree, terms):
        return form_from_poly(3, degree, "algebra", (3,), PolyData(3, degree, (3,), terms),
                              box=chart.box)

    def rand_one_form(scale):
        terms = {}
        for k in range(3):
            rows = [(scale * rng.normal(size=3), np.zeros(3, dtype=int))]
            mono = np.zeros(3, dtype=int)
            mono[rng.integers(0, 3)] = 1
            rows.append((scale * rng.normal(size=3), mono))
            terms[(k,)] = rows
        return poly_form(1, terms)

    omega = rand_one_form(0.4)
    zeta = potential_curvature(alg, omega)
    a = rand_one_form(0.3)
    shift = rand_one_form(0.2)
    generator = poly_form(0, {(): [(0.4 * rng.normal(size=3), np.array([1, 0, 0])),
                                   (0.3 * rng.normal(size=3), np.array([0, 0, 1]))]})

    def rand_section_poly(scale):
        return _linear_poly(3, 3, [(scale * rng.normal(size=3), np.zeros(3, dtype=int)),
                                   (scale * rng.normal(size=3), np.array([1, 0, 0])),
                                   (scale * rng.normal(size=3), np.array([0, 1, 0]))])

    sections = {
        "constant": _const_poly(3, 3, rng.normal(size=3) * 0.4),
        "generic": rand_section_poly(0.3),
        "twist": rand_section_poly(0.25),
    }
    autos = {
        "constant": _const_poly(3, 3, rng.normal(size=3) * 0.3),
        "generic": rand_section_poly(0.25),
        "twist": rand_section_poly(0.2),
    }
    return _assemble("random-curved", chart, alg, omega, zeta, a, shift,
                     generator, sections, autos)


def test_random_curved_file_is_its_seeded_recipe():
    packaged = json.loads((SCENARIO_DIR / "random-curved.json").read_text(encoding="utf-8"))
    assert scenario_to_dict(random_curved_recipe()) == packaged


def test_instanton_potential_closed_form_curvature():
    # the bundled central 2-form must equal the curvature of the potential
    bundle = builtin_scenario("bpst")
    direct = potential_curvature(bundle.algebra, bundle.omega)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-1.9, 1.9, size=4)
        for idx in increasing_indices(4, 2):
            assert np.abs(direct.components(x, idx)
                          - bundle.zeta.components(x, idx)).max() < 1e-12


def test_instanton_forms_analytic_derivative_matches_stencil():
    # the analytic_d batches of the closed-form potential, its central form
    # and its ad image against the stencil d of the same forms over a batch
    om, ze = bpst_potential(), bpst_central_form()
    X = np.random.default_rng(13).uniform(-1.9, 1.9, size=(16, 4))
    for form in (om, ze, ad_mapped_form(su2(), om)):
        exact = exterior_derivative(form)
        stencil = exterior_derivative(dataclasses.replace(form, analytic_d=None))
        assert exact.batch is form.analytic_d and stencil.batch is not form.analytic_d
        got, want = exact.table(X), stencil.table(X)
        assert got.shape == want.shape and np.abs(got - want).max() < 1e-8


def test_instanton_central_form_at_origin():
    ze = bpst_central_form()
    x = np.zeros(4)
    assert np.array_equal(ze.components(x, (0, 1)), [4.0, 0.0, 0.0])
    assert np.array_equal(ze.components(x, (2, 3)), [-4.0, 0.0, 0.0])
    assert np.array_equal(ze.components(x, (1, 3)), [0.0, 4.0, 0.0])
    assert np.array_equal(ze.components(x, (1, 2)), [0.0, 0.0, -4.0])


def test_wrong_central_form_violates_curvature_identity_at_origin():
    bundle = builtin_scenario("bpst")
    plan = SamplePlan(count=1, seed=0)
    plan.points = lambda chart: np.zeros((1, 4))
    wrong = zero_form(4, 2, "algebra", (3,), box=bundle.chart.box)
    wrong = dataclasses.replace(bundle.scenario, zeta=wrong)
    assert max_gap(generalized_mc_rows(wrong, plan)) > 0.1
    assert max_gap(generalized_mc_rows(bundle.scenario, plan)) < 1e-8


def test_zero_central_form_override_fails_the_suite():
    bundle = builtin_scenario("bpst")
    wrong = zero_form(4, 2, "algebra", (3,), box=bundle.chart.box)
    bundle = dataclasses.replace(
        bundle, scenario=dataclasses.replace(bundle.scenario, zeta=wrong))
    report = run_suite(bundle, "generalized-mc")
    assert not report.passed
    rows = {c.check: c for s in report.suites for c in s.checks}
    assert rows["total-space"].residual > 0.1


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def test_curvature_directive_builds_zeta_from_omega():
    bundle = scenario_from_dict(scenario_blob())
    # omega = 0.2 x1 dx0  =>  d omega = -0.2 dx0^dx1 on an abelian fibre
    got = bundle.zeta.components(np.array([0.3, 0.4]), (0, 1))
    assert got == pytest.approx([-0.2], abs=1e-15)


def assert_round_trip_reports_all_suites(name, path):
    bundle = builtin_scenario(name)
    save_scenario(bundle, path)
    a = run_suite(bundle, "all", plan=QUICK)
    b = run_suite(load_scenario(path), "all", plan=QUICK)
    assert a.to_json() == b.to_json()
    assert list(a.csv_rows()) == list(b.csv_rows())


def test_round_trip_preserves_residuals(tmp_path):
    assert_round_trip_reports_all_suites("flat-su2", tmp_path / "flat.json")


@pytest.mark.parametrize("name", ["abelian-u1", "preclassical-u1su2",
                                  "random-curved"])
def test_round_trip_other_builtins(tmp_path, name):
    assert_round_trip_reports_all_suites(name, tmp_path / "s.json")


def test_instanton_scenario_is_not_serializable(tmp_path):
    with pytest.raises(ScenarioError, match="only polynomial forms"):
        save_scenario(builtin_scenario("bpst"), tmp_path / "x.json")


def test_saved_sections_are_the_bundles_own_sections(tmp_path):
    bundle = builtin_scenario("flat-su2")
    swapped = dataclasses.replace(bundle, sections=dict(
        bundle.sections, generic=bundle.sections["twist"]))
    save_scenario(swapped, tmp_path / "s.json")
    blob = scenario_to_dict(load_scenario(tmp_path / "s.json"))
    assert blob["sections"]["generic"] == blob["sections"]["twist"] != \
        scenario_to_dict(bundle)["sections"]["generic"]
    # a section that is not exp of a polynomial 0-form cannot be written
    for section in (bundle.sections["twist"].inverse(),
                    GSection.exp_of_form(bundle.algebra, bundle.generator, 0.5),
                    GSection.exp_of_form(bundle.algebra, form_from_components(
                        2, 0, "algebra", (3,), lambda y, idx: np.zeros(3)))):
        odd = dataclasses.replace(bundle, automorphisms=dict(bundle.automorphisms, odd=section))
        with pytest.raises(ScenarioError, match="^automorphisms.odd: only"):
            save_scenario(odd, tmp_path / "x.json")


def test_jacobi_violation_rejected_naming_triple():
    blob = scenario_blob()
    sc = np.zeros((3, 3, 3))
    sc[0, 1, 2] = 1.0
    sc[1, 0, 2] = -1.0
    sc[1, 2, 0] = 1.0
    sc[2, 1, 0] = -1.0
    sc[2, 0, 1] = 1.0
    sc[0, 2, 1] = -1.0
    sc[0, 1, 0] = 0.7     # breaks the cyclic identity
    sc[1, 0, 0] = -0.7
    blob["algebra"] = {
        "dim": 3, "basis_labels": ["a", "b", "c"],
        "structure_constants": sc.tolist(),
        "rep_matrices": np.zeros((3, 3, 3, 2)).tolist(),
        "kappa": np.eye(3).tolist(),
        "variety_blocks": [[0, 1, 2]],
    }
    with pytest.raises(ScenarioError, match=r"Jacobi.*\(0, 1, 2\)"):
        scenario_from_dict(blob)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("name"), "name: missing"),
    (lambda d: d["forms"].pop("omega"), "forms.omega: missing"),
    (lambda d: d["forms"].pop("zeta"), "forms.zeta: missing"),
    (lambda d: d["forms"].pop("A"), "forms.A: missing"),
    (lambda d: d["forms"].__setitem__(
        "A", {"degree": 1, "terms": {"5": [{"coeffs": [0.5],
                                            "exponents": [1, 0]}]}}),
     r"forms.A: index \(5,\)"),
    (lambda d: d["forms"].__setitem__(
        "A", {"degree": 1, "terms": {"0": [{"coeffs": [0.5, 0.1],
                                            "exponents": [1, 0]}]}}),
     "does not match the algebra dimension"),
    (lambda d: d["forms"].__setitem__("zeta", {"degree": 1, "terms": {}}),
     "expected a degree-2 form"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": 1.0,
                                       "metric": "hyperbolic"}),
     "chart.metric: unknown metric"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": 1.0,
                                       "metric": ["euclidean"]}),
     r"chart.metric: unknown metric \['euclidean'\]"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": "1"}),
     "chart.half: must be a finite number greater than 0, got '1'"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": True}),
     "chart.half: .*, got True"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": -1.0}),
     "chart.half: must be a finite number greater than 0"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": math.nan}),
     "chart.half: .*, got nan"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": 1e308}),
     "chart.half: the box width 2 \\* half overflows, got 1e\\+308"),
    (lambda d: d.__setitem__("chart", {"dim": 10 ** 30, "half": 1.0}),
     "chart.dim: at most 16 axes, got 10+$"),
    (lambda d: d.__setitem__("chart", {"dim": "two", "half": 1.0}),
     "chart.dim: must be an integer"),
    (lambda d: d.__setitem__("chart", {"dim": 2.9, "half": 1.0}),
     "chart.dim: must be an integer, got 2.9"),
    (lambda d: d.__setitem__("chart", {"dim": "3", "half": 1.0}),
     "chart.dim: must be an integer, got '3'"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": 1.0, "orientation": True}),
     "chart.orientation: must be an integer, got True"),
    (lambda d: d.__setitem__("quadrature", {"order": 24.7}),
     "quadrature.order: must be an integer, got 24.7"),
    (lambda d: d.__setitem__("algebra", custom_u1(dim=1.7)),
     "algebra.dim: must be an integer, got 1.7"),
    (lambda d: d.__setitem__("algebra", custom_u1(dim="1")),
     "algebra.dim: must be an integer, got '1'"),
    (lambda d: d.__setitem__("algebra", custom_u1(variety_blocks=[["u", 0.4, 1.9]])),
     "algebra.variety_blocks: must be an integer, got 0.4"),
    (lambda d: d.__setitem__("algebra", 5),
     "algebra: must be a name or an object, got 5"),
    (lambda d: d.__setitem__("algebra", custom_u1(kappa=None)),
     "algebra.kappa: missing"),
    (lambda d: d.__setitem__("algebra", custom_u1(kappa=[[1.0], []])),
     "algebra: setting an array element with a sequence"),
    (lambda d: d.__setitem__("algebra", custom_u1(variety_blocks=[["u", 0]])),
     r"algebra: not enough values to unpack \(expected 3, got 2\)"),
    (lambda d: d["forms"]["A"].__setitem__("degree", 1.9),
     r"forms.A: malformed polynomial payload \(degree: must be an integer, got 1.9\)"),
    (lambda d: d["forms"]["A"]["terms"]["1"][0].__setitem__("exponents", [1.9, 0]),
     "forms.A: .*exponents: must be an integer, got 1.9"),
    (lambda d: d["forms"]["A"]["terms"]["1"][0].__setitem__("exponents", [True, 0]),
     "forms.A: .*exponents: must be an integer, got True"),
    (lambda d: d["forms"]["omega"]["terms"]["0"][0].__setitem__("exponents", [0, 1e30]),
     r"forms.omega: .*exponents: must be an integer, got 1e\+30"),
    (lambda d: d["forms"]["omega"]["terms"]["0"][0].__setitem__("exponents", [0, 10 ** 30]),
     "forms.omega: malformed polynomial payload"),
    (lambda d: d["forms"]["A"].__setitem__("terms", []),
     "forms.A: malformed polynomial payload"),
    (lambda d: d["forms"]["A"]["terms"]["1"].__setitem__(0, np.float32(0.25)),
     "forms.A: malformed polynomial payload"),
    (lambda d: d.__setitem__("chart", {"dim": 2, "half": 1.0,
                                       "orientation": 0}),
     r"chart.orientation: must be \+1 or -1"),
    (lambda d: d.__setitem__("chart", {"dim": 3, "half": 1.0,
                                       "metric": "round-s4"}),
     "needs dim 4"),
    (lambda d: d.__setitem__("sections", {"s": {"nope": 1}}),
     "sections.s: needs an 'exp_coeffs'"),
    (lambda d: d.__setitem__("quadrature", {"radius": 20.0, "order": 24}),
     "quadrature.radius: not a field"),
    (lambda d: d.__setitem__("quadrature", {"order": 0}),
     "quadrature.order: must be a positive integer"),
    (lambda d: d["forms"]["omega"]["terms"]["0"][0].__setitem__(
        "coeffs", [math.nan]),
     "forms.omega: polynomial coefficients must be finite"),
    (lambda d: d["forms"]["A"]["terms"]["1"][0].__setitem__(
        "coeffs", [-math.inf]),
     "forms.A: polynomial coefficients must be finite"),
    (lambda d: d.__setitem__("sections", {"generic": {"exp_coeffs": {
        "degree": 0, "terms": {"": [{"coeffs": [math.nan],
                                     "exponents": [0, 0]}]}}}}),
     "sections.generic: polynomial coefficients must be finite"),
    (lambda d: d["forms"]["omega"]["terms"]["0"][0].__setitem__("coeffs", ["1"]),
     "forms.omega: polynomial coefficients must be finite numbers, got '1'"),
    (lambda d: d["forms"]["omega"]["terms"]["0"][0].__setitem__("coeffs", [True]),
     "forms.omega: polynomial coefficients must be finite numbers, got True"),
    (lambda d: d.__setitem__("sections", {"generic": {"exp_coeffs": {
        "degree": 0, "terms": {"": [{"coeffs": ["1"], "exponents": [0, 0]}]}}}}),
     "sections.generic: polynomial coefficients must be finite numbers, got '1'"),
    (lambda d: d.__setitem__("sections", {"generic": {"exp_coeffs": {
        "degree": 0, "terms": {"": [{"coeffs": [True], "exponents": [0, 0]}]}}}}),
     "sections.generic: polynomial coefficients must be finite numbers, got True"),
    (lambda d: d.__setitem__("plan", {"count": 0}),
     "plan: count must be a positive integer"),
    (lambda d: d.__setitem__("chart", {"dim": 1, "half": 1.0}),
     "chart.dim: the central form is a 2-form"),
    (lambda d: d.__setitem__("expected_charge", math.nan),
     "expected_charge: must be a finite number, got nan"),
    (lambda d: d.__setitem__("expected_charge", -math.inf),
     "expected_charge: must be a finite number, got -inf"),
    (lambda d: d.__setitem__("expected_charge", "2"),
     "expected_charge: must be a finite number, got '2'"),
    (lambda d: d.__setitem__("expected_charge", True),
     "expected_charge: .*, got True"),
    # a key that names no field is refused, not dropped, in every object
    (lambda d: d.__setitem__("tolerence", {"lagrangian/finite": 1e-30}),
     r"^tolerence: not a field; choose from \['name', "),
    (lambda d: d["chart"].__setitem__("orientaton", -1), "^chart.orientaton: not a field"),
    (lambda d: d.__setitem__("plan", {"count": 4, "points": 500}),
     "^plan.points: not a field"),
    (lambda d: d["forms"].__setitem__("lamda", {"degree": 1}), "^forms.lamda: not a field"),
    (lambda d: d.__setitem__("quadrature", {"order": 24, "radius": 20.0}),
     r"^quadrature.radius: not a field; choose from \['order'\]$"),
    (lambda d: d.__setitem__("sections", {"s": {"exp_coeffs": {"degree": 0}, "scale": 2}}),
     "^sections.s.scale: not a field"),
    (lambda d: d.__setitem__("automorphisms", {"t": {"exp_coeffs": {"degree": 0},
                                                     "exp_coefs": {}}}),
     "^automorphisms.t.exp_coefs: not a field"),
    (lambda d: d.__setitem__("plan", [64]), "^plan: must be an object$"),
])
def test_malformed_scenarios_name_the_field(mutate, message):
    blob = scenario_blob()
    mutate(blob)
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(blob)


@pytest.mark.parametrize("coeff", [np.float64(0.5), np.float32(0.5), np.int64(2), 3, 2.5])
def test_real_numbers_of_any_type_load_as_coefficients(coeff):
    blob = scenario_blob()
    blob["forms"]["A"]["terms"]["1"][0]["coeffs"] = [coeff]
    (term,) = scenario_from_dict(blob).gauge_field.poly.terms[(1,)]
    assert term[0].tolist() == [float(coeff)]


@pytest.mark.parametrize("coeff", [np.True_, True, "1", None, math.nan])
def test_bools_strings_none_and_nan_are_no_coefficients(coeff):
    blob = scenario_blob()
    blob["forms"]["A"]["terms"]["1"][0]["coeffs"] = [coeff]
    with pytest.raises(ScenarioError, match=r"^forms\.A: polynomial coefficients must be "
                                            r"finite numbers, got "):
        scenario_from_dict(blob)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",\n  "algebra": }\n')
    with pytest.raises(ScenarioError, match="line 2 column 14"):
        load_scenario(path)


def test_missing_file_reported():
    with pytest.raises(ScenarioError, match="No such file"):
        load_scenario("/nonexistent/scenario.json")


def test_scenario_dict_keeps_plan_and_quadrature():
    blob = scenario_blob()
    blob["plan"] = {"count": 12, "seed": 5}
    blob["quadrature"] = {"order": 10}
    blob["expected_charge"] = 0.0
    bundle = scenario_from_dict(blob)
    assert bundle.plan.count == 12 and bundle.plan.seed == 5
    out = scenario_to_dict(bundle)
    assert out["quadrature"] == {"order": 10}
    assert out["expected_charge"] == 0.0
    blob["expected_charge"] = -2.0
    assert scenario_from_dict(blob).expected_charge == -2.0


def constant_entry(coeffs):
    """A named section or automorphism entry with constant coefficients."""
    return {"exp_coeffs": {"degree": 0, "terms": {"": [
        {"coeffs": list(coeffs), "exponents": [0, 0]}]}}}


def su3_blob():
    """su(3) as a file algebra on the Gell-Mann matrices over 2i: one 3x3
    "su" block, which `expm` takes by Pade(13), not by a closed form."""
    lam = []
    for j, k in ((0, 1), (0, 2), (1, 2)):
        sym = np.zeros((3, 3))
        sym[j, k] = sym[k, j] = 1.0
        lam += [sym, 1j * (np.tril(sym) - np.triu(sym))]
    reps = np.array(lam + [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / np.sqrt(3)]) / 2j
    comm = reps[:, None] @ reps[None] - reps[None] @ reps[:, None]
    return {"dim": 8, "basis_labels": [f"e{a}" for a in range(1, 9)],
            "structure_constants": (-2 * np.einsum('abij,kji->abk', comm, reps).real).tolist(),
            "rep_matrices": np.stack([reps.real, reps.imag], axis=-1).tolist(),
            "kappa": np.eye(8).tolist(), "variety_blocks": [["su", 0, 3]]}


def test_off_variety_entries_named_sections_first():
    # Pade(13) on the su(3) block at a coefficient of 1e8 misses the
    # special unitary group by about 2e-9, above VARIETY_TOL = 1e-10
    blob = scenario_blob()
    blob["algebra"] = su3_blob()
    blob["forms"] = {"omega": {"degree": 1}, "zeta": {"degree": 2}, "A": {"degree": 1}}
    e = np.eye(8)
    blob["sections"] = {"fine": constant_entry(0.3 * e[0]), "huge": constant_entry(1e8 * e[0])}
    blob["automorphisms"] = {"huge": constant_entry(1e8 * e[1])}
    with pytest.raises(ScenarioError, match=r"^sections\.huge: matrix off the group variety"):
        scenario_from_dict(blob)
    blob["sections"] = {"fine": constant_entry(0.3 * e[0])}
    with pytest.raises(ScenarioError, match=r"^automorphisms\.huge: matrix off the group"):
        scenario_from_dict(blob)
    blob["automorphisms"] = {"fine": constant_entry(-0.3 * e[1])}
    bundle = scenario_from_dict(blob)
    assert list(bundle.sections) == list(bundle.automorphisms) == ["identity", "fine"]


def test_huge_u1_and_su2_sections_load_as_exact_group_elements():
    # the 1x1 and 2x2 closed forms land on the variety at any finite angle
    blob = scenario_blob()
    blob["sections"] = {"huge": constant_entry([1e8])}
    assert list(scenario_from_dict(blob).sections) == ["identity", "huge"]
    blob = scenario_to_dict(builtin_scenario("flat-su2"))
    blob["sections"] = {"huge": constant_entry([1.23456789e7, 9.87654321e7, 3.1415926e7])}
    assert list(scenario_from_dict(blob).sections) == ["identity", "huge"]


def test_file_algebra_whose_blocks_are_not_its_span_group_is_refused():
    # su(2) as T + T on two "su" blocks: exp(u) + exp(v), u != v, lies on the
    # blocks' variety, but its Ad leaves the span
    t = su2().rep_matrices
    reps = np.zeros((3, 4, 4), dtype=complex)
    reps[:, :2, :2] = reps[:, 2:, 2:] = t
    blob = scenario_to_dict(builtin_scenario("flat-su2"))
    blob["algebra"] = {"dim": 3, "basis_labels": ["e1", "e2", "e3"],
                       "structure_constants": su2().structure_constants.tolist(),
                       "rep_matrices": np.stack([reps.real, reps.imag], axis=-1).tolist(),
                       "kappa": np.eye(3).tolist(), "variety_blocks": [["su", 0, 2], ["su", 2, 2]]}
    with pytest.raises(ScenarioError, match=r"^algebra: \[u\(blocks\), span\] leaves the"):
        scenario_from_dict(blob)
    blob["algebra"]["variety_blocks"] = [["su", 0, 4]]  # one block of SU(4): still refused
    with pytest.raises(ScenarioError, match=r"^algebra: \[u\(blocks\), span\] leaves the"):
        scenario_from_dict(blob)


def test_file_algebra_with_entries_off_its_blocks_exits_2(tmp_path, capsys):
    # i I and the rotation commute, but the rotation couples the two
    # declared u(1) blocks
    blob = scenario_blob()
    blob["algebra"] = custom_u1(
        dim=2, basis_labels=["a", "b"], structure_constants=np.zeros((2, 2, 2)).tolist(),
        rep_matrices=[[[[0, 1], [0, 0]], [[0, 0], [0, 1]]],
                      [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]],
        kappa=np.eye(2).tolist(), variety_blocks=[["u", 0, 1], ["u", 1, 1]])
    path = tmp_path / "off-block.json"
    path.write_text(json.dumps(blob))
    assert cli_main(["verify", "--scenario", str(path), "--suite", "algebra"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: algebra: representation matrices have entries off the variety blocks")


def test_load_scenario_makes_one_exponential(monkeypatch, tmp_path):
    path = tmp_path / "s.json"
    save_scenario(builtin_scenario("random-curved"), path)
    counts = Counter()
    count_kernel_calls(monkeypatch, counts)
    bundle = load_scenario(path)
    assert counts["expm"] == 1
    assert len(bundle.sections) == len(bundle.automorphisms) == 4


def test_load_scenario_reads_no_polynomial_table_and_makes_one_group_exp(monkeypatch,
                                                                        tmp_path):
    path = tmp_path / "s.json"
    save_scenario(builtin_scenario("random-curved"), path)
    counts = Counter()
    count_kernel_calls(monkeypatch, counts, names=("group_exp",))
    for name in ("table", "evaluate"):
        original = getattr(PolyData, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(PolyData, name, counted)
    load_scenario(path)
    assert counts == {"group_exp": 1}


def test_negative_plan_seed_in_a_file_names_the_field():
    blob = scenario_blob()
    blob["plan"] = {"seed": -5}
    with pytest.raises(ScenarioError, match="plan: seed must be a non-negative integer, got -5"):
        scenario_from_dict(blob)
    blob["plan"] = {"tangent_probes": 2.5}
    with pytest.raises(ScenarioError, match="plan: tangent_probes must be an integer"):
        scenario_from_dict(blob)


PROBE_VALUES = (0, -1, 1e3, 1e6, 1e308, 10 ** 30, math.inf, -math.inf, math.nan, "1", True,
                None, [], {})
MUTATION_BLOBS = {name: scenario_to_dict(builtin_scenario(name))
                  for name in ("flat-su2", "preclassical-u1su2", "random-curved")}


def leaf_paths(value, path=()):
    """The key paths to the leaves of a JSON blob: its scalars and its empty
    lists and objects."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for key, v in items for leaf in leaf_paths(v, path + (key,))]
    return [path]


MUTATION_LEAVES = [(name, path) for name, blob in MUTATION_BLOBS.items()
                   for path in leaf_paths(blob)]


@given(st.sampled_from(MUTATION_LEAVES), st.sampled_from(PROBE_VALUES))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_every_single_leaf_mutation_ends_in_a_report_or_a_scenario_error(leaf, value):
    name, path = leaf
    blob = copy.deepcopy(MUTATION_BLOBS[name])
    node = blob
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        bundle = scenario_from_dict(blob)
    except ScenarioError:
        return
    with np.errstate(all="ignore"):  # huge values overflow into NaN rows, as they should
        report = run_suite(bundle, "all", plan=SamplePlan(count=2, seed=1))
    assert json.loads(report.to_json())["suites"]


# ---------------------------------------------------------------------------
# suite runner and reports
# ---------------------------------------------------------------------------

def test_suites_run_without_named_sections():
    # scenario files need not define any sections; fall back to identity
    bundle = scenario_from_dict(scenario_blob())
    report = run_suite(bundle, "all", plan=QUICK)
    assert report.passed


def test_every_suite_has_a_nonempty_anchor():
    for name, (anchor, applicable, fn) in SUITES.items():
        assert isinstance(anchor, str) and anchor.strip()
        assert callable(applicable) and callable(fn)


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(cym.__path__)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"cym.{module}")
    exported = getattr(mod, "__all__", ())
    assert [name for name in exported if not hasattr(mod, name)] == []


def without_exact_d(bundle):
    """The bundle with the analytic d of its potential and central form
    dropped, so that d of either is a stencil."""
    s = bundle.scenario
    return dataclasses.replace(bundle, scenario=dataclasses.replace(
        s, nabla=LabConnection.from_omega(s.algebra,
                                          dataclasses.replace(s.omega, analytic_d=None)),
        zeta=dataclasses.replace(s.zeta, analytic_d=None)))


def test_the_check_table_declares_exactly_the_reported_checks():
    # the five built-ins report every check but bianchi/stencil, which a
    # scenario whose forms have no exact d reports
    bundles = [builtin_scenario(name) for name in SCENARIO_NAMES]
    bundles.append(without_exact_d(builtin_scenario("bpst")))
    assert list(CHECKS) == list(SUITES)
    reported = set()
    for bundle in bundles:
        for suite in run_suite(bundle, "all", plan=SamplePlan(count=2, seed=0)).suites:
            # a gauge-laws check is reported once per entry, as "<check>:<name>"
            names = list(dict.fromkeys(row.check.split(":", 1)[0] for row in suite.checks))
            assert names == sorted(names, key=list(CHECKS[suite.name]).index), suite.name
            reported.update(f"{suite.name}/{name}" for name in names)
    assert reported == DEFAULT_TOLERANCES.keys()


def test_all_excludes_inapplicable_suites():
    flat = run_suite(builtin_scenario("flat-su2"), "all", plan=QUICK)
    names = {s.name for s in flat.suites}
    assert "self-duality" not in names and "charge" not in names
    assert names == set(suite_names()) - {"self-duality", "charge"}


def test_explicit_inapplicable_suite_raises():
    with pytest.raises(ScenarioError, match="not applicable"):
        run_suite(builtin_scenario("flat-su2"), "charge", plan=QUICK)


def test_unknown_suite_raises():
    with pytest.raises(ScenarioError, match="unknown suite"):
        run_suite(builtin_scenario("flat-su2"), "spectral", plan=QUICK)


def test_reports_are_deterministic():
    bundle = builtin_scenario("flat-su2")
    a = run_suite(bundle, "compatibility", plan=QUICK)
    b = run_suite(bundle, "compatibility", plan=QUICK)
    assert a.to_json() == b.to_json()
    assert list(a.csv_rows()) == list(b.csv_rows())


def test_report_schema():
    report = run_suite(builtin_scenario("abelian-u1"), "multiplicativity",
                       plan=QUICK)
    blob = json.loads(report.to_json())
    assert blob["scenario"] == "abelian-u1"
    assert blob["pass"] is True
    assert blob["env"]["points"] == 4 and blob["env"]["seed"] == 7
    (suite,) = blob["suites"]
    assert set(suite) == {"name", "anchor", "residual", "tolerance", "pass",
                          "checks"}
    assert suite["anchor"] == SUITES["multiplicativity"][0]


def test_csv_rows_cover_every_point(tmp_path):
    report = run_suite(builtin_scenario("flat-su2"), "darboux", plan=QUICK)
    path = tmp_path / "resid.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "suite,check,point,residual"
    # two checks x four points
    assert len(lines) == 1 + 2 * 4
    assert lines[1].startswith("darboux,leibniz,0,")


def test_tolerance_overrides_and_scale():
    bundle = builtin_scenario("flat-su2")
    strict = run_suite(bundle, "lagrangian", plan=QUICK,
                       tolerances={"lagrangian/finite": 1e-30})
    assert not strict.passed
    rescued = run_suite(bundle, "lagrangian", plan=QUICK,
                        tolerances={"lagrangian/finite": 1e-30},
                        tol_scale=1e30)
    assert rescued.passed


def test_scenario_file_tolerances_feed_the_run():
    blob = scenario_blob()
    blob["tolerances"] = {"compatibility/derivation": 1e-30}
    bundle = scenario_from_dict(blob)
    report = run_suite(bundle, "compatibility", plan=QUICK)
    (suite,) = report.suites
    by_name = {c.check: c for c in suite.checks}
    assert by_name["derivation"].tolerance == 1e-30


@pytest.mark.parametrize("bound", [0.0, -1e-6, math.inf, math.nan, "tight"])
def test_scenario_file_tolerances_must_be_finite_and_positive(bound):
    blob = scenario_blob()
    blob["tolerances"] = {"compatibility/derivation": bound}
    bundle = scenario_from_dict(blob)
    with pytest.raises(ScenarioError,
                       match="tolerances.compatibility/derivation: must be"):
        run_suite(bundle, "compatibility", plan=QUICK)


@pytest.mark.parametrize("key", ["lagrangian/finit", "lagrangain/finite",
                                 "gauge-laws/sectoin:generic", "lagrangian/finite:x",
                                 "gauge-laws/section:nonexistent"])
def test_a_tolerance_key_that_names_no_check_is_refused(key):
    with pytest.raises(ScenarioError, match=f"^tolerances.{re.escape(key)}: names no check"):
        run_suite(builtin_scenario("flat-su2"), "lagrangian", plan=QUICK,
                  tolerances={key: 1e-30})


def test_a_per_entry_tolerance_binds_its_entry_alone():
    report = run_suite(builtin_scenario("flat-su2"), "gauge-laws", plan=QUICK,
                       tolerances={"gauge-laws/section:generic": 1e-30})
    bounds = {row.check: row.tolerance for row in report.suites[0].checks}
    assert bounds["section:generic"] == 1e-30 and bounds["section:twist"] == 1e-5


def test_a_scenario_file_tolerance_that_names_no_check_exits_2(tmp_path, capsys):
    path = tmp_path / "typo.json"
    save_scenario(builtin_scenario("flat-su2"), path)
    blob = json.loads(path.read_text())
    blob["tolerances"] = {"lagrangian/finit": 1e-30}
    path.write_text(json.dumps(blob))
    code = cli_main(["verify", "--scenario", str(path), "--suite", "lagrangian",
                     "--points", "2", "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "error: tolerances.lagrangian/finit: names no check" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_a_per_entry_tolerance_key_names_a_section_or_an_automorphism():
    flat = builtin_scenario("flat-su2")
    bundle = dataclasses.replace(flat, automorphisms={"tau": flat.automorphisms["generic"]})
    report = run_suite(bundle, "gauge-laws", plan=QUICK, tolerances={
        "gauge-laws/section:twist": 1e-30, "gauge-laws/automorphism-potential:tau": 1e-30})
    bounds = {row.check: row.tolerance for row in report.suites[0].checks}
    assert bounds["section:twist"] == bounds["automorphism-potential:tau"] == 1e-30
    with pytest.raises(ScenarioError, match="automorphism-potential:twist: names no check"):
        run_suite(bundle, "gauge-laws", plan=QUICK,
                  tolerances={"gauge-laws/automorphism-potential:twist": 1e-30})


def test_a_scenario_file_key_that_names_no_field_exits_2(tmp_path, capsys):
    path = tmp_path / "typo.json"
    save_scenario(builtin_scenario("flat-su2"), path)
    blob = json.loads(path.read_text())
    blob["plan"]["points"] = 500
    path.write_text(json.dumps(blob))
    code = cli_main(["verify", "--scenario", str(path), "--suite", "algebra",
                     "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "error: plan.points: not a field" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_algebra_kernel_residuals_small_and_exact():
    from cym.algebra import su2
    res = algebra_kernel_residuals(su2(), count=8, seed=3)
    assert res["jacobi"] == 0.0
    assert max(res["ad-homomorphism"]) < 1e-12
    assert max(res["kappa-invariance"]) < 1e-12
    assert max(res["exp-ad-consistency"]) < 1e-12


def test_plan_rows_reduce_each_row_once():
    env = RunEnv(plan=QUICK)
    fine, nan, inf = (_check_row(env, key, rows) for key, rows in (
        ("algebra/ad-homomorphism", np.array([1e-12, 3e-12, 2e-12])),
        ("algebra/kappa-invariance", np.array([0.0, np.nan, 1.0])),
        ("algebra/exp-ad-consistency", np.array([-np.inf, 0.0, 0.5]))))
    assert fine.residual == 3e-12 and fine.per_point == [(0, 1e-12), (1, 3e-12), (2, 2e-12)]
    assert type(fine.residual) is float
    assert math.isnan(nan.residual) and math.isnan(inf.residual)
    assert inf.per_point[0] == (0, -math.inf)
    with pytest.raises(ValueError, match="^no gaps to reduce: the check sampled nothing$"):
        _check_row(env, "algebra/ad-homomorphism", np.zeros(0))
    jacobi = run_suite(builtin_scenario("flat-su2"), "algebra", plan=QUICK).suites[0].checks[0]
    assert jacobi.check == "jacobi" and jacobi.per_point == [(-1, jacobi.residual)]


def test_suite_report_binding_check_is_worst_ratio():
    report = run_suite(builtin_scenario("flat-su2"), "compatibility",
                       plan=QUICK)
    (suite,) = report.suites
    worst = suite._binding()
    for check in suite.checks:
        assert (worst.residual / worst.tolerance
                >= check.residual / check.tolerance)


def test_binding_check_is_the_first_non_finite_one():
    rows = [CheckRow("a", 0.5, 1.0, []), CheckRow("b", math.nan, 1.0, []),
            CheckRow("c", 2.0, 1.0, []), CheckRow("d", math.nan, 1e-9, [])]
    for checks, first_nan in ((rows, "b"), (rows[::-1], "d")):
        suite = SuiteReport(name="s", anchor="", checks=checks)
        assert suite._binding().check == first_nan
        assert math.isnan(suite.to_dict()["residual"])
        assert not suite.passed


def test_report_json_names_non_finite_values_as_strings():
    checks = [CheckRow("a", math.nan, 1e-6, [(0, math.nan)]),
              CheckRow("b", 0.5, math.inf, []), CheckRow("c", -math.inf, 1.0, [])]
    report = VerificationReport(scenario="x", env={"tol_scale": 1.0},
                                suites=[SuiteReport("s", "anchor", checks)])

    def refuse(token):
        raise ValueError(f"bare {token} in the report")

    blob = json.loads(report.to_json(), parse_constant=refuse)
    suite = blob["suites"][0]
    assert suite["residual"] == "nan" and suite["tolerance"] == 1e-6
    assert [(c["residual"], c["tolerance"]) for c in suite["checks"]] == [
        ("nan", 1e-6), (0.5, "inf"), ("-inf", 1.0)]
    assert [float(c["residual"]) for c in suite["checks"]][1:] == [0.5, -math.inf]


NAN_PLAN = SamplePlan(count=6, seed=1)


@pytest.fixture(scope="module")
def bpst_and_clean_rows():
    bundle = builtin_scenario("bpst")
    report = run_suite(bundle, "self-duality", plan=NAN_PLAN)
    assert report.passed
    return bundle, list(report.csv_rows())


def nan_at(form, bad_point):
    """The batch form whose table is the form's, NaN on the rows at one
    point; the form's exact derivative, if any, is its analytic_d."""
    def batch(X):
        rows = np.where((X == bad_point).all(axis=1), np.nan, 1.0)
        return form.table(X) * rows.reshape((-1,) + (1,) * (1 + len(form.value_shape)))

    d = exterior_derivative(form).table if form.has_exact_d() else None
    return dataclasses.replace(form, poly=None, batch=batch, analytic_d=d)


def off_the_plan(bundle):
    """A point outside the chart box, which no plan point or stencil reaches:
    `nan_at` there gives a reference with the same routes and no NaN."""
    return bundle.chart.box[:, 1] + 1.0


def with_zeta_nan_at(bundle, bad_point):
    """The bundle with its central form NaN at one point."""
    zeta = nan_at(bundle.zeta, bad_point)
    return dataclasses.replace(
        bundle, scenario=dataclasses.replace(bundle.scenario, zeta=zeta))


@given(ordinal=st.integers(min_value=0, max_value=NAN_PLAN.count - 1))
@settings(max_examples=6, deadline=None)
def test_nan_at_any_sample_point_fails_and_shows_in_its_row(
        bpst_and_clean_rows, ordinal):
    bundle, clean_rows = bpst_and_clean_rows
    bad_point = NAN_PLAN.points(bundle.chart)[ordinal]
    poisoned = with_zeta_nan_at(bundle, bad_point)
    report = run_suite(poisoned, "self-duality", plan=NAN_PLAN)
    assert not report.passed
    assert math.isnan(report.to_dict()["suites"][0]["residual"])
    rows = list(report.csv_rows())
    assert rows[ordinal][2:] == (ordinal, "nan")
    assert rows[:ordinal] + rows[ordinal + 1:] == (
        clean_rows[:ordinal] + clean_rows[ordinal + 1:])


@pytest.mark.parametrize("suite, check", [("compatibility", "curvature"),
                                          ("bianchi", "analytic")])
def test_nan_in_a_table_row_shows_only_in_that_row(suite, check):
    bundle = builtin_scenario("bpst")
    clean_rows = list(run_suite(bundle, suite, plan=NAN_PLAN).csv_rows())
    for ordinal, bad_point in enumerate(NAN_PLAN.points(bundle.chart)):
        report = run_suite(with_zeta_nan_at(bundle, bad_point), suite,
                           plan=NAN_PLAN)
        assert not report.passed
        rows = list(report.csv_rows())
        assert [row[1:3] for row in rows if row[3] == "nan"] == [(check, ordinal)]
        assert [row for row in rows if row[1:3] != (check, ordinal)] == [
            row for row in clean_rows if row[1:3] != (check, ordinal)]


def test_write_csv_is_the_csv_writer_text_of_csv_rows(tmp_path):
    bundle = builtin_scenario("bpst")
    odd = dict(zip(('a,b', 'say "hi"', 'two\nlines'), bundle.sections.values()))
    named = run_suite(dataclasses.replace(bundle, sections=odd), "gauge-laws", plan=NAN_PLAN)
    bad_point = NAN_PLAN.points(bundle.chart)[2]
    poisoned = run_suite(with_zeta_nan_at(bundle, bad_point), "self-duality", plan=NAN_PLAN)
    report = VerificationReport("odd", named.suites + poisoned.suites, named.env)
    rows = list(report.csv_rows())
    assert ("self-duality", "central-form", 2, "nan") in rows
    assert {row[1] for row in rows} >= {'section:a,b', 'section:say "hi"', 'section:two\nlines'}
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["suite", "check", "point", "residual"])
    writer.writerows(rows)
    report.write_csv(tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_bytes() == want.getvalue().encode("utf-8")


# -- the form-algebra suites read one component table over the plan -----------

FORM_SUITES = ("compatibility", "bianchi", "field-redef")
ROUTE_PLAN = SamplePlan(count=12, seed=5)


def reference_compatibility(nabla, zeta, points):
    """Per-point (derivation, curvature) residuals, one point at a time."""
    alg, n = nabla.algebra, nabla.gamma.n
    c = alg.structure_constants
    r = curvature(nabla)
    derivation, curv = [], []
    for x in points:
        gaps = []
        for k in range(n):
            g = nabla.gamma.components(x, (k,))
            lhs = np.einsum('abm,km->abk', c, g)
            rhs = np.einsum('ma,mbk->abk', g, c) + np.einsum('mb,amk->abk', g, c)
            gaps.append(float(np.abs(lhs - rhs).max()))
        derivation.append(max(gaps))
        curv.append(max(float(np.abs(r.components(x, idx) - ad_matrix_c(
            alg, zeta.components(x, idx))).max()) for idx in increasing_indices(n, 2)))
    return derivation, curv


def reference_rows(bundle, points):
    """check -> per-point residuals of the three form-algebra suites, from
    the components of forms built here, one point at a time."""
    s = bundle.scenario
    f = local_field_strength(s)
    lhs = add_forms(cov_ext_deriv(s.nabla, f),
                    graded_product(bracket_pairing(s.algebra), s.gauge_field, f))
    rhs = cov_ext_deriv(s.nabla, s.zeta)
    shifted = field_redefine(s, bundle.shift)
    f_after = local_field_strength(shifted)

    def gaps(a, b):
        return [max(float(np.abs(a.components(x, idx) - b.components(x, idx)).max())
                    for idx in increasing_indices(a.n, a.degree)) for x in points]

    rows = dict(zip(("compatibility/derivation", "compatibility/curvature"),
                    reference_compatibility(s.nabla, s.zeta, points)))
    rows.update(zip(("field-redef/closure-derivation", "field-redef/closure-curvature"),
                    reference_compatibility(shifted.nabla, shifted.zeta, points)))
    rows["bianchi/analytic"] = gaps(lhs, rhs)
    rows["field-redef/invariance"] = gaps(f_after, f)
    return rows


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "bpst"])
def test_form_suites_match_a_per_point_reference_bit_for_bit(name):
    bundle = builtin_scenario(name)
    got = {}
    for suite in FORM_SUITES:
        for row in run_suite(bundle, suite, plan=ROUTE_PLAN).suites[0].checks:
            assert [i for i, _ in row.per_point] == list(range(ROUTE_PLAN.count))
            got[f"{suite}/{row.check}"] = [r for _, r in row.per_point]
    assert got == reference_rows(bundle, ROUTE_PLAN.points(bundle.chart))


def test_form_suites_build_their_forms_once_whatever_the_plan(monkeypatch):
    counts = Counter()
    init, evaluate = PolyData.__init__, PolyData.evaluate

    def counted_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counted_evaluate(self, x, idx):
        counts["evaluate"] += 1
        return evaluate(self, x, idx)

    monkeypatch.setattr(PolyData, "__init__", counted_init)
    monkeypatch.setattr(PolyData, "evaluate", counted_evaluate)
    per_plan = []
    for count in (3, 40):
        bundle = builtin_scenario("random-curved")
        per_suite = {}
        for suite in FORM_SUITES:
            counts.clear()
            assert run_suite(bundle, suite, plan=SamplePlan(count=count)).passed
            per_suite[suite] = dict(counts)
        per_plan.append(per_suite)
    assert per_plan[0] == per_plan[1]
    for suite, counted in per_plan[0].items():
        assert "evaluate" not in counted and 0 < counted["built"] <= 100, suite


# -- the group-kernel suites run on stacks over the plan -----------------------

KERNEL_SUITES = ("algebra", "multiplicativity", "fibre-connection")


def with_generator_nan_at(bundle, bad_point):
    """The bundle with its generator NaN at one point."""
    return dataclasses.replace(bundle, generator=nan_at(bundle.generator, bad_point))


@pytest.mark.parametrize("name", ["flat-su2", "random-curved"])
def test_nan_generator_at_one_point_is_one_nan_fibre_connection_row(name):
    bundle = builtin_scenario(name)
    (clean,) = run_suite(bundle, "fibre-connection", plan=NAN_PLAN).suites[0].checks
    for ordinal, bad_point in enumerate(NAN_PLAN.points(bundle.chart)):
        report = run_suite(with_generator_nan_at(bundle, bad_point),
                           "fibre-connection", plan=NAN_PLAN)
        assert not report.passed
        (row,) = report.suites[0].checks
        assert math.isnan(row.residual)
        assert [i for i, r in row.per_point if not math.isfinite(r)] == [ordinal]
        assert [pair for pair in row.per_point if pair[0] != ordinal] == [
            pair for pair in clean.per_point if pair[0] != ordinal]


def count_kernel_calls(monkeypatch, counts, names=("expm", "ad_matrix_of_group")):
    """Count calls of the cym.algebra functions names, by default expm and
    ad_matrix_of_group, wherever a cym module binds them."""
    import sys

    import cym.algebra as kernel
    for name in names:
        original = getattr(kernel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "cym":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("name", ["random-curved", "preclassical-u1su2"])
def test_kernel_suites_make_no_per_point_kernel_calls(monkeypatch, name):
    counts = Counter()
    count_kernel_calls(monkeypatch, counts)
    per_plan = []
    for count in (4, 40):
        bundle = builtin_scenario(name)
        per_suite = {}
        for suite in KERNEL_SUITES:
            counts.clear()
            assert run_suite(bundle, suite, plan=SamplePlan(count=count)).passed
            per_suite[suite] = dict(counts)
        per_plan.append(per_suite)
    assert per_plan[0] == per_plan[1]
    for suite, counted in per_plan[0].items():
        assert counted["expm"] > 0 and counted["ad_matrix_of_group"] > 0, suite


# -- the section-driven suites read tables over the plan -----------------------

SECTION_SUITES = ("darboux", "gauge-laws", "lagrangian", "generalized-mc")
SECTION_CHECKS = ("darboux/leibniz", "darboux/inverse", "gauge-laws/section:constant",
                  "gauge-laws/section:generic", "gauge-laws/section:twist",
                  "lagrangian/finite", "lagrangian/infinitesimal",
                  "generalized-mc/pullback")


def section_suite_rows(bundle):
    """suite/check -> per-point rows of the four section-driven suites."""
    return {f"{suite}/{row.check}": row for suite in SECTION_SUITES
            for row in run_suite(bundle, suite, plan=NAN_PLAN).suites[0].checks}


def with_sections_nan_at(bundle, bad_point):
    """The bundle with the coefficients of its named sections, and its
    generator, NaN at one point."""
    def section(poly, name):
        def coeffs(y, idx):
            return poly.evaluate(y, ()) * (np.nan if np.array_equal(y, bad_point) else 1.0)
        return GSection.exp_of_form(bundle.algebra, form_from_components(
            poly.n, 0, "algebra", (bundle.algebra.dim,), coeffs), name=name)

    sections = {name: section(sec.form.poly, name) if name != "identity" else sec
                for name, sec in bundle.sections.items()}
    return dataclasses.replace(with_generator_nan_at(bundle, bad_point), sections=sections)


def test_nan_section_at_any_sample_point_is_a_nan_row_of_each_section_check():
    bundle = builtin_scenario("flat-su2")
    clean = section_suite_rows(bundle)
    for ordinal, bad_point in enumerate(NAN_PLAN.points(bundle.chart)):
        got = section_suite_rows(with_sections_nan_at(bundle, bad_point))
        assert got.keys() == clean.keys()
        for key, row in got.items():
            others = [pair for pair in row.per_point if pair[0] != ordinal]
            assert others == [pair for pair in clean[key].per_point if pair[0] != ordinal]
            if key in SECTION_CHECKS:
                assert math.isnan(row.residual) and not row.passed, key
                assert math.isnan(row.per_point[ordinal][1]), key
            else:
                assert row.per_point == clean[key].per_point, key


def assert_watchdog_row(report, bound):
    """The report's one suite failed with the global NaN row `watchdog`."""
    (suite,) = report.suites
    ((check, residual, tolerance, per_point),) = [
        (c.check, c.residual, c.tolerance, c.per_point) for c in suite.checks]
    assert (check, tolerance, per_point[0][0]) == ("watchdog", bound, -1)
    assert math.isnan(residual) and math.isnan(per_point[0][1]) and not report.passed


def test_finite_off_variety_section_row_still_raises():
    bundle = builtin_scenario("flat-su2")
    bad_point = NAN_PLAN.points(bundle.chart)[2]
    generic = bundle.sections["generic"]

    def doubled(Y):  # finite, but twice a group matrix at one point
        return np.where((Y == bad_point).all(axis=-1), 2.0, 1.0)[..., None, None] * generic(Y)

    broken = dataclasses.replace(bundle, sections=dict(
        bundle.sections, generic=GSection(bundle.algebra, doubled, "generic")))
    with pytest.raises(VarietyError, match="off the group variety"):
        change_of_gauge(broken.scenario, broken.sections["generic"], NAN_PLAN)
    # run_suite reports the watchdog as its suite's one failing row
    for suite in SECTION_SUITES:
        assert_watchdog_row(run_suite(broken, suite, plan=NAN_PLAN), VARIETY_TOL)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_random_sections_are_their_row_by_row_exponentials_bit_for_bit(name):
    # the darboux suite's sections on the (2n + 1, P, n) stack of X and
    # X +- h e_k; the stacked (w @ y[..., None])[..., 0] must round as the
    # one-row w @ y does, which y @ w.T does not on most draws
    bundle = builtin_scenario(name)
    alg, n = bundle.algebra, bundle.chart.dim
    plan = SamplePlan(count=5, seed=11)
    h = bundle.chart.default_step()
    steps = np.concatenate([np.zeros((1, n)), np.kron(np.eye(n), [[h], [-h]])])
    Y = plan.points(bundle.chart) + steps[:, None, :]
    pairs = _random_section_pairs(bundle, 8, plan.seed)
    for i, (section, partner) in enumerate(pairs):
        assert partner is pairs[(i + 3) % 8][0]
        rng = np.random.default_rng([plan.seed, 977, i])
        b = rng.normal(scale=0.5, size=alg.dim)
        w = rng.normal(scale=0.35 / bundle.chart.half_width(), size=(alg.dim, n))
        want = np.array([group_exp(alg, b + w @ y) for y in Y.reshape(-1, n)])
        got = section(Y)
        assert got.shape == (2 * n + 1, 5, alg.rep_dim, alg.rep_dim)
        assert np.array_equal(got, want.reshape(got.shape)), section.name


def test_section_suites_make_no_per_point_kernel_calls(monkeypatch):
    counts = Counter()
    count_kernel_calls(monkeypatch, counts)
    per_plan = []
    for count in (4, 40):
        plan = SamplePlan(count=count)
        counted = {}
        for name, suite in (("random-curved", "darboux"), ("random-curved", "lagrangian"),
                            ("bpst", "self-duality")):
            bundle = builtin_scenario(name)
            counts.clear()
            assert run_suite(bundle, suite, plan=plan).passed
            counted[suite] = dict(counts)
        bundle = builtin_scenario("random-curved")
        counts.clear()
        rows = change_of_gauge(bundle.scenario, bundle.sections["generic"], plan)
        assert max_gap(rows) < 1e-5
        counted["change_of_gauge"] = dict(counts)
        per_plan.append(counted)
    assert per_plan[0] == per_plan[1]
    for check in ("darboux", "lagrangian", "change_of_gauge"):
        assert per_plan[0][check]["expm"] > 0 and per_plan[0][check]["ad_matrix_of_group"] > 0


def test_builtin_sections_read_their_polynomials_as_one_table(monkeypatch):
    counts = Counter()
    evaluate = PolyData.evaluate

    def counted_evaluate(self, x, idx):
        counts["evaluate"] += 1
        return evaluate(self, x, idx)

    monkeypatch.setattr(PolyData, "evaluate", counted_evaluate)
    for count in (4, 40):
        for name in SCENARIO_NAMES:
            bundle = builtin_scenario(name)
            for suite in ("gauge-laws", "darboux"):
                assert run_suite(bundle, suite, plan=SamplePlan(count=count)).passed
    assert counts["evaluate"] == 0


def test_instanton_charge_builds_its_kappa_matrix_once(monkeypatch):
    calls = []
    build = cym.forms._kappa_top_matrix

    def counted(*args):
        calls.append(args[1:])
        return build(*args)

    monkeypatch.setattr(cym.forms, "_kappa_top_matrix", counted)
    instanton_charge(builtin_scenario("bpst").scenario, order=6)  # 36 planes
    assert calls == [(4, 2, 2)]


# -- the total-space suites run on stacks of anchors over the plan ------------

TOTAL_SPACE_SUITES = ("principal", "structure-equation", "generalized-mc", "gauge-laws")


def with_forms_nan_at(bundle, bad_point):
    """The bundle with its central form, horizontal potential and gauge field
    NaN at one point."""
    s = bundle.scenario
    return dataclasses.replace(bundle, scenario=dataclasses.replace(
        s, nabla=LabConnection.from_omega(s.algebra, nan_at(s.omega, bad_point)),
        zeta=nan_at(s.zeta, bad_point), gauge_field=nan_at(s.gauge_field, bad_point)))


def all_rows(bundle, plan):
    """suite/check -> CheckRow of a run of every applicable suite."""
    return {f"{suite.name}/{row.check}": row
            for suite in run_suite(bundle, "all", plan=plan).suites for row in suite.checks}


def test_a_connection_replaced_in_the_scenario_reaches_the_suite_and_the_gate():
    bad = np.zeros((3, 3))
    bad[0, 0] = 1.0  # Gamma_0 = bad is no derivation of the su(2) bracket
    gamma = form_from_poly(2, 1, "endomorphism", (3, 3),
                           PolyData(2, 1, (3, 3), {(0,): [(bad, np.array([0, 0]))]}))
    bundle = builtin_scenario("flat-su2")
    bundle = dataclasses.replace(bundle, scenario=dataclasses.replace(
        bundle.scenario, nabla=LabConnection(bundle.algebra, gamma)))
    rows = all_rows(bundle, SamplePlan(count=4, seed=1))
    derivation = rows["compatibility/derivation"]
    assert not derivation.passed and derivation.residual == 1.0
    assert rows["bianchi/compatibility-gate"].residual == derivation.residual
    assert rows["field-redef/compatibility-gate"].residual == derivation.residual


# the checks whose routes read the gauge field's table, and those that read
# no gauge field; bianchi/analytic reads it too on three or more axes (on two
# its form is a zero top form, which reads no table)
READS_A = ("principal/equivariance", "principal/kernel-invariance",
           "principal/projection-commutation", "principal/mixed-bracket",
           "structure-equation/dual-path", "structure-equation/horizontality",
           "structure-equation/adjoint-type", "lagrangian/finite", "lagrangian/infinitesimal",
           "field-redef/invariance")
READS_NO_A = ("algebra/", "compatibility/", "darboux/", "fibre-connection/",
              "multiplicativity/", "generalized-mc/", "principal/action-differential",
              "principal/section-independence")


def with_gauge_field_nan_at(bundle, bad_point):
    """The bundle with its gauge field NaN at one point."""
    return dataclasses.replace(bundle, scenario=dataclasses.replace(
        bundle.scenario, gauge_field=nan_at(bundle.gauge_field, bad_point)))


def test_a_gauge_field_replaced_in_the_scenario_reaches_every_suite_that_reads_it():
    bundle = builtin_scenario("flat-su2")
    clean = all_rows(with_gauge_field_nan_at(bundle, off_the_plan(bundle)), NAN_PLAN)
    ordinal = 2
    bad_point = NAN_PLAN.points(bundle.chart)[ordinal]
    got = all_rows(with_gauge_field_nan_at(bundle, bad_point), NAN_PLAN)
    assert got.keys() == clean.keys()
    for key, row in got.items():
        others = [pair for pair in row.per_point if pair[0] != ordinal]
        assert others == [pair for pair in clean[key].per_point if pair[0] != ordinal], key
        if key in READS_A or key.startswith("gauge-laws/"):
            assert math.isnan(row.per_point[ordinal][1]) and not row.passed, key
        elif key.startswith(READS_NO_A):
            assert row.per_point == clean[key].per_point, key


@pytest.mark.parametrize("name", ["flat-su2", "random-curved"])
def test_nan_in_the_gauge_field_is_a_nan_row_of_every_check_that_reads_it(name):
    # A has one definition, so its derivative and its products read the
    # table that carries the NaN: bianchi and field-redef see it as well
    bundle, plan, ordinal = builtin_scenario(name), SamplePlan(count=4, seed=1), 1
    bad_point = plan.points(bundle.chart)[ordinal]
    with pytest.raises(ValueError, match="needs a batch"):  # a table beside the payload
        dataclasses.replace(bundle.gauge_field, batch=nan_at(bundle.gauge_field, bad_point).batch)
    got = all_rows(with_gauge_field_nan_at(bundle, bad_point), plan)
    nan = {key for key, row in got.items()
           if any(i == ordinal and math.isnan(r) for i, r in row.per_point)}
    reads_a = {key for key in got if key in READS_A or key.startswith("gauge-laws/")}
    if bundle.chart.dim > 2:
        reads_a.add("bianchi/analytic")
    else:
        assert got["bianchi/analytic"].per_point[ordinal] == (ordinal, 0.0)
    assert nan == reads_a
    assert all(not math.isnan(r) for key in got.keys() - nan for _, r in got[key].per_point)


def test_a_potential_replaced_in_the_connection_reaches_every_check_of_its_gamma():
    # Gamma is derived from omega, so the checks that read Gamma (compatibility,
    # bianchi, field-redef) see the NaN that the group-bundle laws see
    bundle, plan, ordinal = builtin_scenario("random-curved"), SamplePlan(count=4, seed=1), 1
    s = bundle.scenario
    nabla = dataclasses.replace(s.nabla, omega=nan_at(s.omega, plan.points(bundle.chart)[ordinal]))
    got = all_rows(dataclasses.replace(bundle, scenario=dataclasses.replace(s, nabla=nabla)),
                   plan)
    for key in ("compatibility/curvature", "bianchi/analytic", "field-redef/invariance",
                "darboux/leibniz", "principal/equivariance"):
        assert math.isnan(got[key].per_point[ordinal][1]) and not got[key].passed, key
    with pytest.raises(ValueError, match="give exactly one"):
        LabConnection(s.algebra, s.nabla.gamma, s.omega)


def total_space_rows(bundle):
    """suite/check -> CheckRow of the four total-space suites at NAN_PLAN."""
    return {f"{suite}/{row.check}": row for suite in TOTAL_SPACE_SUITES
            for row in run_suite(bundle, suite, plan=NAN_PLAN).suites[0].checks}


@pytest.mark.parametrize("name", ["bpst", "random-curved"])
def test_nan_form_at_one_point_is_a_nan_row_of_each_total_space_check(name):
    bundle = builtin_scenario(name)
    clean = total_space_rows(with_forms_nan_at(bundle, off_the_plan(bundle)))
    assert all(row.passed for row in clean.values())
    for ordinal, bad_point in enumerate(NAN_PLAN.points(bundle.chart)):
        got = total_space_rows(with_forms_nan_at(bundle, bad_point))
        assert got.keys() == clean.keys()
        for key, row in got.items():
            others = [pair for pair in row.per_point if pair[0] != ordinal]
            assert others == [pair for pair in clean[key].per_point if pair[0] != ordinal], key
            if key == "principal/action-differential":  # reads none of the forms
                assert row.per_point == clean[key].per_point
            else:
                assert math.isnan(row.per_point[ordinal][1]) and not row.passed, key


LIGHT_SUITES = ("algebra", "compatibility", "multiplicativity", "bianchi",
                "field-redef", "fibre-connection")


def test_builtin_payloads_hold_one_term_per_monomial(monkeypatch):
    payloads = []
    init = PolyData.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        payloads.append(self)

    monkeypatch.setattr(PolyData, "__init__", recorded)
    for name in SCENARIO_NAMES:
        bundle = builtin_scenario(name)
        for suite in LIGHT_SUITES:
            assert run_suite(bundle, suite, plan=QUICK).passed
    assert len(payloads) > 100
    for poly in payloads:
        for rows in poly.terms.values():
            assert len({e.tobytes() for _, e in rows}) == len(rows)


def test_finite_off_variety_automorphism_row_still_raises():
    bundle = builtin_scenario("random-curved")
    bad_point = NAN_PLAN.points(bundle.chart)[3]
    generic = bundle.automorphisms["generic"]

    def doubled(Y):  # finite, but twice a group matrix at one point
        return np.where((Y == bad_point).all(axis=-1), 2.0, 1.0)[..., None, None] * generic(Y)

    broken = dataclasses.replace(bundle, automorphisms=dict(
        bundle.automorphisms, generic=GSection(bundle.algebra, doubled, "generic")))
    with pytest.raises(VarietyError, match="off the group variety"):
        gauge_transform_total(broken.scenario, broken.automorphisms["generic"], NAN_PLAN)
    assert_watchdog_row(run_suite(broken, "gauge-laws", plan=NAN_PLAN), VARIETY_TOL)


@pytest.mark.parametrize("name", ["bpst", "random-curved"])
def test_total_space_suites_make_no_per_point_kernel_calls(monkeypatch, name):
    counts = Counter()
    count_kernel_calls(monkeypatch, counts)
    per_plan = []
    for count in (4, 40):
        bundle = builtin_scenario(name)
        per_suite = {}
        for suite in TOTAL_SPACE_SUITES:
            counts.clear()
            assert run_suite(bundle, suite, plan=SamplePlan(count=count)).passed
            per_suite[suite] = dict(counts)
        per_plan.append(per_suite)
    assert per_plan[0] == per_plan[1]
    for suite, counted in per_plan[0].items():
        assert counted["expm"] > 0 and counted["ad_matrix_of_group"] > 0, suite


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_pass_and_outputs(tmp_path, capsys):
    report = tmp_path / "report.json"
    csv_out = tmp_path / "rows.csv"
    code = cli_main(["verify", "--scenario", "flat-su2",
                     "--suite", "multiplicativity", "--points", "4",
                     "--report", str(report), "--csv", str(csv_out)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] multiplicativity" in out
    blob = json.loads(report.read_text())
    assert blob["pass"] is True and blob["env"]["points"] == 4
    assert csv_out.read_text().startswith("suite,check,point,residual")


def test_cli_failure_exit_code(capsys):
    code = cli_main(["verify", "--scenario", "flat-su2", "--suite",
                     "lagrangian", "--points", "2", "--tol-scale", "1e-12"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] lagrangian" in out and "checks FAILED" in out


def test_fibre_connection_row_fails_under_a_tiny_tolerance(tmp_path, capsys):
    # the row compares the stencil route with the closed form; no gate
    # inside the library raises first
    path = tmp_path / "strict.json"
    save_scenario(builtin_scenario("random-curved"), path)
    blob = json.loads(path.read_text())
    blob["tolerances"] = {"fibre-connection/stencil-vs-analytic": 1e-18}
    path.write_text(json.dumps(blob))
    code = cli_main(["verify", "--scenario", str(path), "--suite",
                     "fibre-connection", "--points", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] fibre-connection" in out and "stencil-vs-analytic" in out


def test_cli_input_errors(tmp_path, capsys):
    assert cli_main(["verify", "--scenario", "unknown-thing",
                     "--suite", "all"]) == 2
    assert cli_main(["verify", "--scenario", "flat-su2",
                     "--suite", "charge"]) == 2
    assert cli_main(["verify", "--scenario", "flat-su2",
                     "--suite", "bogus"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert cli_main(["verify", "--scenario", str(bad), "--suite", "all"]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err
    blob = scenario_blob()
    blob["chart"]["dim"] = 2.9
    bad.write_text(json.dumps(blob))
    assert cli_main(["verify", "--scenario", str(bad), "--suite", "all"]) == 2
    assert capsys.readouterr().err == "error: chart.dim: must be an integer, got 2.9\n"
    for algebra, message in ((5, "algebra: must be a name or an object, got 5"),
                             (custom_u1(kappa=None), "algebra.kappa: missing"),
                             (custom_u1(dim=1.7), "algebra.dim: must be an integer, got 1.7")):
        bad.write_text(json.dumps(dict(scenario_blob(), algebra=algebra)))
        assert cli_main(["verify", "--scenario", str(bad), "--suite", "all"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    blob = scenario_blob()
    blob["forms"]["A"]["degree"] = 1.9
    bad.write_text(json.dumps(blob))
    assert cli_main(["verify", "--scenario", str(bad), "--suite", "all"]) == 2
    assert capsys.readouterr().err == ("error: forms.A: malformed polynomial payload "
                                       "(degree: must be an integer, got 1.9)\n")


@pytest.mark.parametrize("flag, value", [
    ("--tol-scale", "inf"), ("--tol-scale", "nan"), ("--tol-scale", "0"),
    ("--tol-scale", "-1"), ("--h", "nan"), ("--points", "0"),
    ("--points", "-5"),
])
def test_cli_rejects_bad_scales_steps_and_counts(flag, value, capsys):
    argv = ["verify", "--scenario", "flat-su2", "--suite", "multiplicativity"]
    if flag != "--points":
        argv += ["--points", "2"]
    assert cli_main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert ("count must be a positive integer" if flag == "--points"
            else "must be a finite number greater than 0") in err


@pytest.mark.parametrize("argv", [
    ["--scenario", "flat-su2", "--suite", "algebra", "--seed", "-1"],
    ["--scenario", "abelian-u1", "--suite", "algebra", "--points", "2", "--seed", "-7"],
])
def test_cli_rejects_a_negative_seed(argv, capsys):
    assert cli_main(["verify"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed: seed must be a non-negative integer, got -")
    assert "Traceback" not in err


def test_cli_rejects_a_negative_seed_in_a_scenario_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_scenario(builtin_scenario("flat-su2"), path)
    blob = json.loads(path.read_text())
    blob["plan"]["seed"] = -5
    path.write_text(json.dumps(blob))
    assert cli_main(["verify", "--scenario", str(path), "--suite", "algebra"]) == 2
    assert capsys.readouterr().err == (
        "error: plan: seed must be a non-negative integer, got -5\n")


@pytest.mark.parametrize("field, mutate", [
    ("forms.omega", lambda d: d["forms"]["omega"]["terms"]["0"][0].__setitem__(
        "coeffs", [math.nan, 0.0, 0.0])),
    pytest.param("forms.omega", lambda d: d["forms"]["omega"]["terms"]["0"][0].__setitem__(
        "coeffs", ["1", 0.0, 0.0]), id="forms.omega-string-coefficient"),
    pytest.param("forms.omega", lambda d: d["forms"]["omega"]["terms"]["0"][0].__setitem__(
        "coeffs", [True, 0.0, 0.0]), id="forms.omega-bool-coefficient"),
    pytest.param("sections.generic", lambda d: d["sections"]["generic"]["exp_coeffs"][
        "terms"][""][0]["coeffs"].__setitem__(0, "1"), id="sections.generic-string-coefficient"),
    pytest.param("sections.generic", lambda d: d["sections"]["generic"]["exp_coeffs"][
        "terms"][""][0]["coeffs"].__setitem__(0, True), id="sections.generic-bool-coefficient"),
    ("chart.orientation", lambda d: d["chart"].__setitem__("orientation", 0)),
    ("chart.dim", lambda d: d["chart"].__setitem__("dim", "two")),
    ("chart.half", lambda d: d["chart"].__setitem__("half", math.nan)),
    ("quadrature.order", lambda d: d.__setitem__("quadrature", {"order": 0})),
    ("expected_charge", lambda d: d.__setitem__("expected_charge", math.nan)),
    ("chart.metric", lambda d: d["chart"].__setitem__("metric", ["round-s4"])),
    ("quadrature.radius", lambda d: d["quadrature"].__setitem__("radius", 20.0)),
    ("tolerances.algebra/jacobi",
     lambda d: d.__setitem__("tolerances", {"algebra/jacobi": "1e-9"})),
])
def test_cli_rejects_malformed_scenario_file(tmp_path, capsys, field, mutate):
    path = tmp_path / "f.json"
    save_scenario(builtin_scenario("random-curved"), path)
    blob = json.loads(path.read_text())
    mutate(blob)
    path.write_text(json.dumps(blob))
    assert cli_main(["verify", "--scenario", str(path),
                     "--suite", "gauge-laws"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def scale_zeta(blob, factor=1.01):
    for rows in blob["forms"]["zeta"]["terms"].values():
        for term in rows:
            term["coeffs"] = [factor * c for c in term["coeffs"]]


def drift_twist(blob):  # finite at the chart centre, off the variety on the stencil
    blob["automorphisms"]["twist"]["exp_coeffs"]["terms"][""][2]["coeffs"][0] = 1e6


GATE_ROW = ["compatibility-gate"]


@pytest.mark.parametrize("mutate, failing", [
    (scale_zeta, {"compatibility": ["curvature"],
                  "generalized-mc": ["total-space", "pullback"],
                  "structure-equation": ["adjoint-type"], "gauge-laws": GATE_ROW,
                  "bianchi": GATE_ROW, "field-redef": GATE_ROW, "lagrangian": GATE_ROW}),
    (drift_twist, {"gauge-laws": ["watchdog"]}),
])
def test_cli_reports_a_failed_gate_or_watchdog_as_failing_rows(tmp_path, capsys, mutate,
                                                               failing):
    path, report = tmp_path / "s.json", tmp_path / "r.json"
    save_scenario(builtin_scenario("random-curved"), path)
    blob = json.loads(path.read_text())
    mutate(blob)
    path.write_text(json.dumps(blob))
    assert cli_main(["verify", "--scenario", str(path), "--suite", "all", "--points", "4",
                     "--report", str(report)]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("random-curved: checks FAILED\n")
    written = json.loads(report.read_text())
    assert {suite["name"]: [c["check"] for c in suite["checks"] if not c["pass"]]
            for suite in written["suites"] if not suite["pass"]} == failing


def test_cli_scenario_file_runs(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_blob()))
    code = cli_main(["verify", "--scenario", str(path),
                     "--suite", "compatibility", "--points", "4"])
    assert code == 0


def test_cli_seed_override_changes_env(tmp_path):
    report = tmp_path / "r.json"
    cli_main(["verify", "--scenario", "abelian-u1", "--suite",
              "multiplicativity", "--points", "3", "--seed", "99",
              "--report", str(report)])
    blob = json.loads(report.read_text())
    assert blob["env"]["seed"] == 99 and blob["env"]["points"] == 3


def _run_fresh(script):
    """Run a Python script in a fresh interpreter that imports this cym."""
    src = str(pathlib.Path(cym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run


def test_cli_overflow_is_a_failing_row_and_no_warning_on_stderr(tmp_path):
    path, report = tmp_path / "s.json", tmp_path / "r.json"
    blob = scenario_to_dict(builtin_scenario("flat-su2"))
    blob["forms"]["A"]["terms"]["1"][0]["coeffs"][1] = 1e308
    path.write_text(json.dumps(blob))
    # in a fresh interpreter: under pytest a warning is recorded, not printed
    run = _run_fresh(f"""
        import cym.cli
        assert cym.cli.main(["verify", "--scenario", {str(path)!r}, "--suite", "all",
                             "--points", "4", "--report", {str(report)!r}]) == 1
    """)
    assert run.stderr == ""
    assert json.loads(report.read_text())["pass"] is False


def test_cli_run_leaves_scipy_linalg_unimported(tmp_path):
    """Set-up and every suite run on numpy alone: importing scipy.linalg
    would cost more than the rest of `import cym.cli`."""
    _run_fresh(f"""
        import sys
        import cym.cli
        code = cym.cli.main(["verify", "--scenario", "abelian-u1", "--suite", "all",
                             "--points", "2", "--report", {str(tmp_path / "r.json")!r}])
        assert code == 0, code
        assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
    """)


def test_repeated_cli_runs_build_their_constants_once_per_process(tmp_path):
    """Four `cym verify` calls in one process on one saved scenario, 40
    points each: the per-point generators `default_rng([seed, i])`, the
    algebra descriptor and the argument parser are built by the first call
    at most, and reused after it."""
    _run_fresh(f"""
        import argparse
        from collections import Counter
        import numpy as np
        import cym.cli
        from cym.algebra import LieAlgebraDescriptor
        from cym.harness import builtin_scenario, save_scenario

        built = Counter()
        def counting(key, fn, when=lambda *a: True):
            def wrapper(*args, **kwargs):
                built[key] += when(*args)
                return fn(*args, **kwargs)
            return wrapper
        np.random.default_rng = counting("generators", np.random.default_rng,
                                         lambda seed=None: isinstance(seed, list))
        LieAlgebraDescriptor.__post_init__ = counting(
            "descriptors", LieAlgebraDescriptor.__post_init__)
        argparse.ArgumentParser.__init__ = counting(
            "parsers", argparse.ArgumentParser.__init__)

        path = {str(tmp_path / "flat-su2.json")!r}
        save_scenario(builtin_scenario("flat-su2"), path)
        built.clear()
        after_first = None
        for suite in ("multiplicativity", "multiplicativity", "algebra", "algebra"):
            code = cym.cli.main(["verify", "--scenario", path, "--suite", suite,
                                 "--points", "40"])
            assert code == 0, code
            if after_first is None:
                after_first = dict(built)
        for key in ("descriptors", "parsers"):
            assert built[key] == after_first.get(key, 0), (key, after_first, built)
        assert built["generators"] <= 40, built
    """)
