"""Chart-local gauge theory: field strength, gauge-change laws, Bianchi,
Lagrangian density, invariance residuals, and the topological charge."""
import dataclasses
import itertools

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cym.algebra import su2, u1
from cym.connection import LabConnection, field_redefine, potential_curvature
from cym.forms import (LieForm, PolyData, SamplePlan, euclidean_chart,
                       form_from_components, form_from_poly, kappa_wedge_top,
                       max_gap, minkowski_chart, zero_form)
from cym.gauge import (ChargeResult, CompatibilityGateError, GaugeScenario,
                       bianchi_rows, change_of_gauge,
                       density_gauge_invariance_rows,
                       density_infinitesimal_rows, field_redef_rows,
                       gauge_changed_potential, instanton_charge,
                       lagrangian_density, local_field_strength,
                       self_duality_rows)
from cym.harness import builtin_scenario
from cym.lgb import GSection

SU2, U1 = su2(), u1()
CHART = euclidean_chart(2, half=1.0)
E1, E2, E3 = np.eye(3)


def exp_section(alg, coeff_fn, name="exp"):
    """The section y -> exp(coeff_fn(y)) on CHART, through the per-point adapter."""
    return GSection.exp_of_form(alg, form_from_components(
        2, 0, "algebra", (alg.dim,), lambda y, idx: coeff_fn(y)), name=name)


def poly_form(n, degree, shape, terms, target="algebra"):
    return form_from_poly(n, degree, target, shape, PolyData(n, degree, shape, terms))


def curved_scenario():
    """su(2) on the square: omega = x0 dx1 . e3, zeta its own curvature,
    A = 0.5 x1 dx0 . e1 + 0.3 x0 dx1 . e2."""
    omega = poly_form(2, 1, (3,), {(1,): [(E3, np.array([1, 0]))]})
    zeta = potential_curvature(SU2, omega)
    a = poly_form(2, 1, (3,), {(0,): [(0.5 * E1, np.array([0, 1]))],
                               (1,): [(0.3 * E2, np.array([1, 0]))]})
    return GaugeScenario(CHART, SU2, LabConnection.from_omega(SU2, omega), zeta, a)


def abelian_scenario(c=0.7):
    a = poly_form(2, 1, (1,), {(0,): [(np.array([c]), np.array([0, 1]))]})
    return GaugeScenario(CHART, U1,
                         LabConnection.from_omega(U1, zero_form(2, 1, "algebra", (1,))),
                         zero_form(2, 2, "algebra", (1,)), a)


# ---------------------------------------------------------------------------
# scenario validation and the compatibility gate
# ---------------------------------------------------------------------------

def test_gauge_field_degree_validated():
    with pytest.raises(ValueError, match="1-form"):
        GaugeScenario(CHART, SU2, LabConnection.from_omega(SU2, zero_form(2, 1, "algebra", (3,))),
                      zero_form(2, 2, "algebra", (3,)), zero_form(2, 2, "algebra", (3,)))


def test_central_form_degree_validated():
    with pytest.raises(ValueError, match="2-form"):
        GaugeScenario(CHART, SU2, LabConnection.from_omega(SU2, zero_form(2, 1, "algebra", (3,))),
                      zero_form(2, 1, "algebra", (3,)), zero_form(2, 1, "algebra", (3,)))


def test_scenario_without_potential_has_no_lgb():
    gamma = zero_form(2, 1, "endomorphism", (3, 3))
    s = GaugeScenario(CHART, SU2, LabConnection(SU2, gamma),
                      zero_form(2, 2, "algebra", (3,)), zero_form(2, 1, "algebra", (3,)))
    with pytest.raises(ValueError, match="horizontal potential"):
        s.lgb


def test_gate_passes_on_curvature_pair():
    rep = curved_scenario().compatibility()
    assert rep.derivation_residual < 1e-7
    assert rep.curvature_residual < 1e-7
    assert rep.passed


def test_gate_trips_on_non_derivation_connection():
    bad = np.zeros((3, 3))
    bad[0, 0] = 1.0
    gamma = poly_form(2, 1, (3, 3), {(0,): [(bad, np.array([0, 0]))]},
                      target="endomorphism")
    s = GaugeScenario(CHART, SU2, LabConnection(SU2, gamma),
                      zero_form(2, 2, "algebra", (3,)), zero_form(2, 1, "algebra", (3,)))
    with pytest.raises(CompatibilityGateError, match="derivation residual"):
        local_field_strength(s)


def test_gate_trips_on_central_form_that_is_nan_at_one_gate_point():
    s = curved_scenario()
    x_bad = s.gate_plan.points(s.chart)[3]

    def batch(X, clean=s.zeta.table):
        rows = np.where((X == x_bad).all(axis=1), np.nan, 1.0)
        return clean(X) * rows[:, None, None]

    zeta = dataclasses.replace(s.zeta, batch=batch, poly=None)
    bad = GaugeScenario(CHART, SU2, s.nabla, zeta, s.gauge_field)
    with pytest.raises(CompatibilityGateError, match="curvature residual nan"):
        bad.require_gate()


def test_gate_report_shared_across_field_change():
    s = curved_scenario()
    first = s.compatibility()
    s2 = s.with_gauge_field(zero_form(2, 1, "algebra", (3,)))
    assert s2.compatibility() is first


# ---------------------------------------------------------------------------
# local field strength
# ---------------------------------------------------------------------------

def test_field_strength_frozen_value():
    # F(d0, d1) = -0.5 e1 + (0.3 - 0.5 x0 x1) e2 + (1 + 0.15 x0 x1) e3
    f = local_field_strength(curved_scenario())
    x = np.array([0.7, -0.4])
    assert np.allclose(f.components(x, (0, 1)), [-0.5, 0.44, 0.958], atol=1e-12)


def test_field_strength_of_vanishing_gauge_field_is_central_form():
    s = curved_scenario().with_gauge_field(zero_form(2, 1, "algebra", (3,)))
    f = local_field_strength(s)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=2)
        assert np.allclose(f.components(x, (0, 1)), s.zeta.components(x, (0, 1)),
                           atol=1e-15)


def test_field_strength_flat_chart_frozen_example():
    # omega = 0, zeta = 0, A = x0 dx1 . e1 + x1 dx0 . e2:
    # F(d0, d1) = e1 - e2 - x0 x1 e3
    a = poly_form(2, 1, (3,), {(1,): [(E1, np.array([1, 0]))],
                               (0,): [(E2, np.array([0, 1]))]})
    s = GaugeScenario(CHART, SU2,
                      LabConnection.from_omega(SU2, zero_form(2, 1, "algebra", (3,))),
                      zero_form(2, 2, "algebra", (3,)), a)
    f = local_field_strength(s)
    x = np.array([0.7, -0.4])
    assert np.allclose(f.components(x, (0, 1)), [1.0, -1.0, 0.28], atol=1e-12)


def test_abelian_field_strength_is_plain_curl():
    s = abelian_scenario(c=0.7)  # A = 0.7 x1 dx0
    f = local_field_strength(s)
    x = np.array([0.2, -0.6])
    assert np.allclose(f.components(x, (0, 1)), [-0.7], atol=1e-13)


# ---------------------------------------------------------------------------
# change of gauge
# ---------------------------------------------------------------------------

def test_change_of_gauge_identity_section_is_identity():
    s = curved_scenario()
    res = change_of_gauge(s, GSection.identity(SU2), SamplePlan(count=6, seed=1))
    x = np.array([0.3, 0.5])
    for k in (0, 1):
        assert np.array_equal(res.a_new.components(x, (k,)),
                              s.gauge_field.components(x, (k,)))
    assert max_gap(res.f_rows) < 1e-12


def test_change_of_gauge_transforms_field_strength():
    s = curved_scenario()
    sigma = exp_section(
        SU2, lambda y: np.array([0.4 * y[1], 0.2 * y[0] * y[1], -0.3 * y[0]]), "generic")
    res = change_of_gauge(s, sigma, SamplePlan(count=8, seed=5))
    assert max_gap(res.f_rows) < 1e-6
    assert len(res.f_rows) == 8


def test_change_of_gauge_abelian_adds_gradient():
    s = abelian_scenario()
    sigma = exp_section(U1, lambda y: np.array([0.4 * y[0] ** 2 - 0.3 * y[1]]), "phase")
    plan = SamplePlan(count=5, seed=2)
    res = change_of_gauge(s, sigma, plan)
    assert max_gap(res.f_rows) < 1e-6
    for x in plan.points(s.chart):
        grad = (0.8 * x[0], -0.3)
        for k in (0, 1):
            want = s.gauge_field.components(x, (k,))[0] + grad[k]
            assert abs(res.a_new.components(x, (k,))[0] - want) < 1e-10


def one_point_plan(x):
    plan = SamplePlan(count=1, seed=0)
    plan.points = lambda chart: x[None]
    return plan


def test_gauge_changed_potential_table_matches_per_point_bit_for_bit():
    s = curved_scenario()
    sigma = exp_section(SU2, lambda y: np.array([0.4 * y[1], 0.2 * y[0] * y[1], -0.3 * y[0]]))
    a_new = gauge_changed_potential(s, sigma)
    X = SamplePlan(count=8, seed=5).points(CHART)
    want = np.array([[a_new.components(x, (k,)) for k in range(2)] for x in X])
    assert np.array_equal(a_new.table(X), want)


@pytest.mark.parametrize("count", [2, 8])
def test_change_of_gauge_rows_match_one_point_plans_bit_for_bit(count):
    bundle = builtin_scenario("bpst")
    plan = SamplePlan(count=count, seed=3)
    for name, sigma in sorted(bundle.sections.items()):
        rows = change_of_gauge(bundle.scenario, sigma, plan).f_rows
        assert rows.tolist() == [
            change_of_gauge(bundle.scenario, sigma, one_point_plan(x)).f_rows[0]
            for x in plan.points(bundle.chart)], name


# ---------------------------------------------------------------------------
# Bianchi identity
# ---------------------------------------------------------------------------

def bianchi_scenario(wrap=False):
    omega = poly_form(3, 1, (3,), {(1,): [(E3, np.array([1, 0, 0]))]})
    zeta = potential_curvature(SU2, omega)
    a = poly_form(3, 1, (3,), {(0,): [(0.5 * E1, np.array([0, 1, 0]))],
                               (2,): [(0.3 * E2, np.array([1, 0, 0]))]})
    if wrap:  # hide the polynomial payload so every derivative is a stencil
        hide = lambda f: LieForm(n=3, degree=f.degree, value_target="algebra",
                                 value_shape=(3,), batch=f.table, fd_step=1e-4)
        omega, zeta, a = hide(omega), hide(zeta), hide(a)
    return GaugeScenario(euclidean_chart(3, half=1.0), SU2,
                         LabConnection.from_omega(SU2, omega), zeta, a)


def test_bianchi_identity_polynomial_route_is_exact():
    assert max_gap(bianchi_rows(bianchi_scenario(), SamplePlan(count=6, seed=3))) == 0.0


def test_bianchi_identity_stencil_route():
    assert max_gap(bianchi_rows(bianchi_scenario(wrap=True),
                                SamplePlan(count=6, seed=3))) < 1e-10


# ---------------------------------------------------------------------------
# Lagrangian density
# ---------------------------------------------------------------------------

def test_density_vanishes_without_field():
    s = GaugeScenario(CHART, SU2,
                      LabConnection.from_omega(SU2, zero_form(2, 1, "algebra", (3,))),
                      zero_form(2, 2, "algebra", (3,)), zero_form(2, 1, "algebra", (3,)))
    dens = lagrangian_density(s)
    assert dens(np.array([0.3, -0.8])) == 0.0


def test_density_abelian_frozen_value():
    # F = 0.8 dx0 ^ dx1: density -c^2/2 = -0.32 on the euclidean chart
    a = poly_form(2, 1, (1,), {(1,): [(np.array([0.8]), np.array([1, 0]))]})
    s = GaugeScenario(CHART, U1,
                      LabConnection.from_omega(U1, zero_form(2, 1, "algebra", (1,))),
                      zero_form(2, 2, "algebra", (1,)), a)
    dens = lagrangian_density(s)
    assert abs(dens(np.array([0.5, 0.5])) - (-0.32)) < 1e-13
    assert abs(dens(np.array([-0.2, 0.9])) - (-0.32)) < 1e-13


def test_density_minkowski_sign_flip():
    # the same F with one index along the timelike axis changes sign
    a4 = poly_form(4, 1, (1,), {(1,): [(np.array([0.8]), np.array([1, 0, 0, 0]))]})
    z4 = zero_form(4, 2, "algebra", (1,))
    nab = LabConnection.from_omega(U1, zero_form(4, 1, "algebra", (1,)))
    dens_m = lagrangian_density(GaugeScenario(minkowski_chart(1.0), U1, nab, z4, a4))
    dens_e = lagrangian_density(GaugeScenario(euclidean_chart(4, 1.0), U1, nab, z4, a4))
    x = np.array([0.3, -0.2, 0.5, 0.1])
    assert abs(dens_m(x) - 0.32) < 1e-13
    assert abs(dens_e(x) + 0.32) < 1e-13


# ---------------------------------------------------------------------------
# invariance residuals
# ---------------------------------------------------------------------------

def test_density_gauge_invariance():
    sigma = exp_section(
        SU2, lambda y: np.array([0.4 * y[1], 0.2 * y[0] * y[1], -0.3 * y[0]]), "generic")
    resid = max_gap(density_gauge_invariance_rows(curved_scenario(), sigma,
                                                  SamplePlan(count=6, seed=6)))
    assert resid < 1e-6


def test_density_infinitesimal_invariance():
    eps = poly_form(2, 0, (3,), {(): [(E3, np.array([1, 0]))]})
    resid = max_gap(density_infinitesimal_rows(curved_scenario(), eps,
                                               SamplePlan(count=6, seed=7)))
    assert resid < 1e-5


def test_field_redef_leaves_field_strength_alone():
    lam = poly_form(2, 1, (3,), {(0,): [(0.2 * E2, np.array([1, 0]))],
                                 (1,): [(0.1 * E1, np.array([0, 1]))]})
    s = curved_scenario()
    shifted = field_redefine(s.nabla, s.zeta, s.gauge_field, lam)
    resid = max_gap(field_redef_rows(s, shifted, SamplePlan(count=6, seed=8)))
    assert resid < 1e-12


def test_self_duality_residual_values():
    def pair_form(sign):
        def comp(x, idx):
            if tuple(idx) == (0, 1):
                return np.array([0.7])
            if tuple(idx) == (2, 3):
                return np.array([0.7 * sign])
            return np.zeros(1)
        return form_from_components(4, 2, "algebra", (1,), comp, fd_step=1e-5)

    chart = euclidean_chart(4, 1.0)
    plan = SamplePlan(count=4, seed=1)
    assert max_gap(self_duality_rows(pair_form(+1), chart, plan)) == 0.0
    assert abs(max_gap(self_duality_rows(pair_form(-1), chart, plan)) - 1.4) < 1e-14


# ---------------------------------------------------------------------------
# topological charge
# ---------------------------------------------------------------------------

def test_charge_requires_four_dimensions():
    with pytest.raises(ValueError, match="four-dimensional"):
        instanton_charge(curved_scenario())


def test_charge_vanishes_without_field():
    s = GaugeScenario(euclidean_chart(4, 1.0), SU2,
                      LabConnection.from_omega(SU2, zero_form(4, 1, "algebra", (3,))),
                      zero_form(4, 2, "algebra", (3,)), zero_form(4, 1, "algebra", (3,)))
    q = instanton_charge(s, radius=3.0, order=6)
    assert q.total == 0.0


def test_charge_vanishes_for_single_component_field():
    # kappa(F ^, F) pairs complementary index blocks, all zero here
    def comp(x, idx):
        if tuple(idx) == (0, 1):
            return np.array([np.exp(-float(x @ x))])
        return np.zeros(1)
    zeta = form_from_components(4, 2, "algebra", (1,), comp, fd_step=1e-5)
    s = GaugeScenario(euclidean_chart(4, 5.0), U1,
                      LabConnection.from_omega(U1, zero_form(4, 1, "algebra", (1,))),
                      zeta, zero_form(4, 1, "algebra", (1,)), gate_tol=1e9)
    q = instanton_charge(s, radius=5.0, order=8)
    assert q.total == 0.0


def test_charge_warns_when_integrand_does_not_decay():
    def comp(x, idx):
        if tuple(idx) in ((0, 1), (2, 3)):
            return float(x @ x) ** 2 * E1
        return np.zeros(3)
    grow = form_from_components(4, 2, "algebra", (3,), comp, fd_step=1e-3)
    s = GaugeScenario(euclidean_chart(4, 1.0), SU2,
                      LabConnection.from_omega(SU2, zero_form(4, 1, "algebra", (3,))),
                      grow, zero_form(4, 1, "algebra", (3,)), gate_tol=1e9)
    with pytest.warns(UserWarning, match="decay"):
        instanton_charge(s, radius=20.0, order=4)


def test_charge_result_totals():
    q = ChargeResult(box_value=0.75, tail=0.25, radius=20.0, order=24)
    assert q.total == 1.0


def top_coefficient(form, x):
    return float(form.components(x, tuple(range(form.n))))


def per_node_charge(s, radius, order):
    """Reference: the charge read one node at a time, as a quadruple loop."""
    paired = kappa_wedge_top(s.algebra, local_field_strength(s), local_field_strength(s))
    t, w = leggauss(order)
    nodes = t * (1.0 + (radius - 1.0) * t ** 4)
    weights = w * (1.0 + 5.0 * (radius - 1.0) * t ** 4)
    box = 0.0
    for i in itertools.product(range(order), repeat=4):
        box += np.prod(weights[list(i)]) * top_coefficient(paired, nodes[list(i)])
    dirs = [sign * e for e in np.eye(4) for sign in (1.0, -1.0)]
    dirs += [0.5 * np.array(signs, dtype=float) for signs in
             ([1, 1, 1, 1], [1, -1, 1, -1], [-1, 1, 1, -1], [-1, -1, 1, 1])]
    u = 1.0 + radius ** 2
    c_fit = np.mean([top_coefficient(paired, radius * d / np.linalg.norm(d)) * u ** 4
                     for d in dirs])
    tail = c_fit * 2 * np.pi ** 2 * (1.0 / (4 * u ** 2) - 1.0 / (6 * u ** 3))
    scale = s.chart.orientation / (16 * np.pi ** 2)
    return scale * box, scale * tail


def bpst_with_gauge_field():
    """bpst with a polynomial A, so F sums a covariant derivative, a half
    bracket square and the central form."""
    s = builtin_scenario("bpst").scenario
    a = poly_form(4, 1, (3,), {(0,): [(0.2 * E1, np.array([0, 1, 0, 0]))],
                               (2,): [(-0.1 * E3, np.array([0, 0, 0, 1]))],
                               (3,): [(0.3 * E2, np.zeros(4, dtype=int))]})
    return s.with_gauge_field(a)


@pytest.mark.parametrize("build, order", [
    (lambda: builtin_scenario("bpst").scenario, 6),
    (lambda: builtin_scenario("bpst").scenario, 8),
    (bpst_with_gauge_field, 6),
])
def test_charge_matches_per_node_reference(build, order):
    s = build()
    q = instanton_charge(s, radius=20.0, order=order)
    box, tail = per_node_charge(s, 20.0, order)
    assert abs(q.box_value - box) <= 1e-13
    assert abs(q.tail - tail) <= 1e-13


def test_charge_makes_no_per_point_component_calls():
    s = builtin_scenario("bpst").scenario
    s.require_gate()
    zeta = s.zeta
    calls = []
    inner = zeta.components

    def counted(x, idx):
        calls.append(idx)
        return inner(x, idx)

    zeta.components = counted
    assert local_field_strength(s) is zeta
    q = instanton_charge(s, radius=20.0, order=6)
    assert np.isfinite(q.total)
    assert calls == []
