"""Acceptance gate: twelve numbered criteria, one test per criterion.

Run `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per
criterion. Heavy full-suite runs are shared through a module-scoped fixture;
criteria with their own runtime budgets time their work separately.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

import cym.lgb
from cym.algebra import ad_matrix_of_group, dagger, su2, u1_su2
from cym.connection import GaugeScenario, LabConnection, potential_curvature
from cym.forms import LieForm, PolyData, SamplePlan, form_from_poly, max_gap, zero_form
from cym.gauge import bianchi_rows, field_redef_rows
from cym.connection import check_compatibility, field_redefine
from cym.harness import (GATE_PLAN, SCENARIO_NAMES, algebra_kernel_residuals,
                         builtin_scenario, run_suite)
from cym.lgb import generalized_mc_rows, multiplicativity_rows, one_form_on, total_form

PLAN64 = SamplePlan(count=64, seed=42)


@pytest.fixture(scope="module")
def full_runs():
    """name -> (bundle, full report at the 64-point default plan, seconds)."""
    out = {}
    for name in SCENARIO_NAMES:
        bundle = builtin_scenario(name)
        t0 = time.perf_counter()
        report = run_suite(bundle, "all")
        out[name] = (bundle, report, time.perf_counter() - t0)
    return out


def suite_rows(report, suite_name):
    (suite,) = [s for s in report.suites if s.name == suite_name]
    return {c.check: c for c in suite.checks}


def origin_plan(dim):
    plan = SamplePlan(count=1, seed=0)
    plan.points = lambda chart: np.zeros((1, dim))
    return plan


def hide_derivatives(f, step=1e-4):
    """Strip the polynomial/analytic payload so every derivative is a stencil."""
    return LieForm(n=f.n, degree=f.degree, value_target="algebra",
                   value_shape=f.value_shape, batch=f.table, fd_step=step, box=f.box)


def test_criterion_01_algebra_kernel_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for alg in (su2(), u1_su2()):
        res = algebra_kernel_residuals(alg, count=1000, seed=42)
        worst = max(worst, res["jacobi"], max(res["ad-homomorphism"]),
                    max(res["kappa-invariance"]),
                    max(res["exp-ad-consistency"]))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst residual {worst:.3e} in {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_darboux_product_and_inverse_rules(full_runs):
    # flat (zero potential), polynomial potential, and the instanton potential
    for name in ("flat-su2", "random-curved", "bpst"):
        rows = suite_rows(full_runs[name][1], "darboux")
        print(f"criterion 2 [{name}]: leibniz {rows['leibniz'].residual:.3e}, "
              f"inverse {rows['inverse'].residual:.3e}")
        assert rows["leibniz"].residual < 1e-6
        assert rows["inverse"].residual < 1e-6


def test_criterion_03_fibre_connection_from_section_families(full_runs):
    for name in SCENARIO_NAMES:
        rows = suite_rows(full_runs[name][1], "fibre-connection")
        r = rows["stencil-vs-analytic"].residual
        print(f"criterion 3 [{name}]: {r:.3e}")
        assert r < 1e-6


def test_criterion_04_total_form_multiplicativity(full_runs, monkeypatch):
    for name in SCENARIO_NAMES:
        rows = suite_rows(full_runs[name][1], "multiplicativity")
        r = rows["total-form"].residual
        print(f"criterion 4 [{name}]: {r:.3e}")
        assert r < 1e-9
    # a deliberately perturbed total form must fail loudly: mu plus
    # (Ad_{g^{-1}} - id) Ad_{g^{-1}} rho(X), which depends on the group element
    bundle = builtin_scenario("flat-su2")
    rho = form_from_poly(2, 1, "algebra", (3,), PolyData(2, 1, (3,), {
        (0,): [(np.array([0.1, 0.0, 0.0]), np.array([1, 0])),
               (np.array([0.0, 0.0, 0.05]), np.array([0, 0]))]}),
        box=bundle.chart.box)

    mu_tot = cym.lgb.mu_tot

    def perturbed(s, x, g, X, eta):
        twisted = ad_matrix_of_group(s.algebra, dagger(g)) @ one_form_on(rho, x, X)[..., None]
        return total_form(s.algebra, g, twisted[..., 0], eta=mu_tot(s, x, g, X, eta))

    monkeypatch.setattr(cym.lgb, "mu_tot", perturbed)
    broken = max_gap(multiplicativity_rows(bundle.scenario, SamplePlan(count=8, seed=1)))
    print(f"criterion 4 [perturbed]: {broken:.3f}")
    assert broken > 1e-2


def test_criterion_05_generalized_curvature_identity(full_runs):
    t0 = time.perf_counter()
    for name in SCENARIO_NAMES:
        bundle = full_runs[name][0]
        # the identity with the central form taken as the potential curvature
        zeta = potential_curvature(bundle.algebra, bundle.omega)
        zeta.box = bundle.chart.box
        r = max_gap(generalized_mc_rows(replace(bundle.scenario, zeta=zeta), PLAN64))
        print(f"criterion 5 [{name}]: {r:.3e}")
        assert r < 1e-5
    # dropping the central form on the instanton breaks the identity at 0
    bpst = full_runs["bpst"][0]
    wrong = zero_form(4, 2, "algebra", (3,), box=bpst.chart.box)
    broken = max_gap(generalized_mc_rows(replace(bpst.scenario, zeta=wrong), origin_plan(4)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 5 [zeta=0 at origin]: {broken:.3f} in {elapsed:.1f}s")
    assert broken > 0.1
    assert elapsed < 60.0


def test_criterion_06_principal_side_residuals(full_runs):
    bounds = {"action-differential": 1e-7,
              "section-independence": 1e-8,
              "equivariance": 1e-8,
              "kernel-invariance": 1e-8,
              "projection-commutation": 1e-8,
              "mixed-bracket": 1e-4}
    for name in SCENARIO_NAMES:
        rows = suite_rows(full_runs[name][1], "principal")
        worst = max(c.residual for c in rows.values())
        print(f"criterion 6 [{name}]: worst {worst:.3e}")
        for check, bound in bounds.items():
            assert rows[check].residual < bound, (name, check)


def test_criterion_07_structure_equation_and_horizontality(full_runs):
    for name in SCENARIO_NAMES:
        rows = suite_rows(full_runs[name][1], "structure-equation")
        print(f"criterion 7 [{name}]: dual-path {rows['dual-path'].residual:.3e}, "
              f"horizontality {rows['horizontality'].residual:.3e}")
        assert rows["dual-path"].residual < 1e-6
        # vertical probes are killed to the stencil floor
        assert rows["horizontality"].residual < 1e-8
        assert rows["adjoint-type"].residual < 1e-5


def test_criterion_08_gauge_transformation_laws(full_runs):
    for name in SCENARIO_NAMES:
        rows = suite_rows(full_runs[name][1], "gauge-laws")
        sections = [c for c in rows if c.startswith("section:")]
        autos = [c for c in rows if c.startswith("automorphism-potential:")]
        assert len(sections) == 4 and len(autos) == 4
        worst = max(c.residual for c in rows.values())
        print(f"criterion 8 [{name}]: worst {worst:.3e} over {len(rows)} laws")
        assert worst < 1e-5
        # the rows really cover the default 64-point plan
        assert all(len(c.per_point) == 64 for c in rows.values())


def test_criterion_09_differential_identity_both_routes(full_runs):
    for name in SCENARIO_NAMES:
        rows = suite_rows(full_runs[name][1], "bianchi")
        assert "analytic" in rows, name  # every built-in has exact derivatives
        r = rows["analytic"].residual
        print(f"criterion 9 [{name}] analytic: {r:.3e}")
        assert r < 1e-7
    for name in SCENARIO_NAMES:
        bundle = full_runs[name][0]
        s = GaugeScenario(
            bundle.chart, bundle.algebra,
            LabConnection.from_omega(bundle.algebra,
                                     hide_derivatives(bundle.omega)),
            hide_derivatives(bundle.zeta),
            hide_derivatives(bundle.gauge_field))
        # the stencil pair is compatible to within 1e-3 on the gate's plan
        rep = check_compatibility(s, GATE_PLAN)
        assert rep.derivation_residual <= 1e-3 and rep.curvature_residual <= 1e-3, name
        r = max_gap(bianchi_rows(s, PLAN64))
        print(f"criterion 9 [{name}] nested stencil: {r:.3e}")
        assert r < 1e-4


def test_criterion_10_field_redefinitions(full_runs):
    bundle = full_runs["random-curved"][0]
    s = bundle.scenario
    plan = SamplePlan(count=16, seed=11)
    rng = np.random.default_rng(1234)
    for trial in range(8):
        terms = {}
        for k in range(3):
            terms[(k,)] = [(0.3 * rng.normal(size=3), np.zeros(3, dtype=int)),
                           (0.3 * rng.normal(size=3),
                            np.eye(3, dtype=int)[rng.integers(0, 3)])]
        lam = form_from_poly(3, 1, "algebra", (3,), PolyData(3, 1, (3,), terms),
                             box=bundle.chart.box)
        shifted = field_redefine(s, lam)
        inv = max_gap(field_redef_rows(s, shifted, plan))
        closure = check_compatibility(shifted, plan)
        worst_closure = max(closure.derivation_residual,
                            closure.curvature_residual)
        print(f"criterion 10 [lambda {trial}]: invariance {inv:.3e}, "
              f"closure {worst_closure:.3e}")
        assert inv < 1e-6
        assert worst_closure < 1e-6
    # shifting the instanton splitting by its own potential flattens it
    bpst = full_runs["bpst"][0]
    red = field_redefine(bpst.scenario, bpst.omega)
    flat_norm = 0.0
    for x in SamplePlan(count=16, seed=5).points(bpst.chart):
        for k in range(4):
            flat_norm = max(flat_norm,
                            np.abs(red.nabla.gamma.components(x, (k,))).max())
    print(f"criterion 10 [instanton flattening]: {flat_norm:.3e}")
    assert flat_norm < 1e-10


def test_criterion_11_density_gauge_invariance(full_runs):
    for name in SCENARIO_NAMES:
        rows = suite_rows(full_runs[name][1], "lagrangian")
        print(f"criterion 11 [{name}]: finite {rows['finite'].residual:.3e}, "
              f"infinitesimal {rows['infinitesimal'].residual:.3e}")
        assert rows["finite"].residual < 1e-6
        assert rows["infinitesimal"].residual < 1e-5


def test_criterion_12_instanton_quantitative_checks(full_runs):
    bundle, report, elapsed = full_runs["bpst"]
    sd = suite_rows(report, "self-duality")["central-form"].residual
    curv = suite_rows(report, "compatibility")["curvature"].residual
    charge_gap = suite_rows(report, "charge")["instanton-number"].residual
    print(f"criterion 12: self-duality {sd:.3e}, curvature-vs-adjoint "
          f"{curv:.3e}, |charge - 1| {charge_gap:.2e}, suite {elapsed:.1f}s")
    assert sd < 1e-6
    assert curv < 1e-6
    assert charge_gap <= 0.01
    assert elapsed < 120.0
