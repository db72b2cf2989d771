"""Principal-bundle layer: connection form, modified pushforward, action
differential, total field strength, and automorphism pullbacks."""
import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from cym.algebra import ReexpansionError, ad_matrix_of_group, expm, su2, u1
from cym.connection import GaugeScenario, LabConnection, cov_ext_deriv, potential_curvature
from cym.forms import (PolyData, SamplePlan, add_forms, bracket_pairing,
                       euclidean_chart, form_from_components, form_from_poly,
                       graded_product, max_gap, scale_form, zero_form)
from cym.harness import builtin_scenario
from cym.lgb import GSection, dexp_body, mu_tot, total_form_rows
from cym.principal import (_body_stencil4,
                           action_differential_rows, connection_one_form,
                           equivariance_rows, field_strength_type_rows,
                           gauge_transform_total, kernel_invariance_rows,
                           mixed_bracket_rows, modified_pushforward,
                           projection_commutation_rows,
                           pushforward_via_section, total_field_strength)

ALG = su2()
CHART = euclidean_chart(2, half=1.0)
IDENTITY = np.eye(2, dtype=complex)


def group_sample(alg, rng):
    """exp of normal coefficients: one matrix on the group variety."""
    return expm(alg.rep_of(rng.normal(size=alg.dim)))


def exp_section(coeff_fn, name):
    """The section y -> exp(coeff_fn(y)) on CHART, through the per-point adapter."""
    return GSection.exp_of_form(ALG, form_from_components(
        2, 0, "algebra", (3,), lambda y, idx: coeff_fn(y)), name=name)


def poly_form(n, degree, shape, terms):
    return form_from_poly(n, degree, "algebra", shape, PolyData(n, degree, shape, terms))


def theory(alg, omega, a, zeta=None):
    """The scenario on CHART; zeta is the curvature of omega when None."""
    zeta = potential_curvature(alg, omega) if zeta is None else zeta
    return GaugeScenario(CHART, alg, LabConnection.from_omega(alg, omega), zeta, a)


def make_bundle(with_omega=True, with_a=True, zeta=None):
    omega = poly_form(2, 1, (3,), {(1,): [(np.array([0., 0., 1.]), np.array([1, 0]))]}) \
        if with_omega else zero_form(2, 1, "algebra", (3,))
    a = poly_form(2, 1, (3,), {(0,): [(np.array([0.5, 0., 0.]), np.array([0, 1]))],
                               (1,): [(np.array([0., 0.3, 0.]), np.array([1, 0]))]}) \
        if with_a else zero_form(2, 1, "algebra", (3,))
    return theory(ALG, omega, a, zeta)


# ---------------------------------------------------------------------------
# connection 1-form
# ---------------------------------------------------------------------------

def test_connection_form_identity_on_vertical():
    p = make_bundle()
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, h = rng.uniform(-0.9, 0.9, size=2), group_sample(ALG, rng)
        nu = rng.normal(size=3)
        got = connection_one_form(p, x, h, np.zeros(2), nu)
        assert np.array_equal(got, nu)


def test_connection_form_at_identity_gauge():
    p = make_bundle()
    x, X, V = np.array([0.3, -0.2]), np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3])
    a = p.gauge_field.components(x, (0,)) + 2.0 * p.gauge_field.components(x, (1,))
    assert np.abs(connection_one_form(p, x, IDENTITY, X, V) - (V + a)).max() < 1e-15


def test_connection_form_kernel_without_gauge_field():
    p = make_bundle(with_a=False)
    got = connection_one_form(p, np.array([0.4, 0.1]), IDENTITY, np.array([1.0, -1.0]),
                              np.zeros(3))
    assert np.abs(got).max() == 0.0


def test_connection_form_without_gauge_field_is_mu_tot_bit_for_bit():
    p = make_bundle(with_a=False)
    rng = np.random.default_rng(12)
    x = rng.uniform(-0.9, 0.9, size=(5, 2))
    h = np.array([group_sample(ALG, rng) for _ in range(5)])
    X, V = rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
    assert np.array_equal(connection_one_form(p, x, h, X, V), mu_tot(p, x, h, X, V))


def test_principal_laws_need_a_horizontal_potential():
    p = make_bundle()
    bare = GaugeScenario(CHART, ALG, LabConnection(ALG, p.nabla.gamma), p.zeta, p.gauge_field)
    plan = SamplePlan(count=2, seed=1)
    with pytest.raises(ValueError, match="horizontal potential"):
        equivariance_rows(bare, plan)
    # the action differential reads neither omega nor A
    assert np.array_equal(action_differential_rows(bare, plan), action_differential_rows(p, plan))


# ---------------------------------------------------------------------------
# modified pushforward
# ---------------------------------------------------------------------------

def test_pushforward_classical_on_vertical_inputs():
    p = make_bundle()
    rng = np.random.default_rng(2)
    g = group_sample(ALG, rng)
    group_sample(ALG, rng)  # the fibre point, which the pushforward does not read
    nu = rng.normal(size=3)
    out = modified_pushforward(p, g, np.array([0.2, 0.4]), np.zeros(2), nu)
    want = ad_matrix_of_group(ALG, g.conj().T) @ nu
    assert np.array_equal(out, want)


def test_pushforward_classical_when_omega_vanishes():
    p = make_bundle(with_omega=False)
    rng = np.random.default_rng(3)
    g = group_sample(ALG, rng)
    group_sample(ALG, rng)  # the fibre point, which the pushforward does not read
    X, V = rng.normal(size=2), rng.normal(size=3)
    out = modified_pushforward(p, g, np.array([0.2, 0.4]), X, V)
    want = ad_matrix_of_group(ALG, g.conj().T) @ V
    assert np.abs(out - want).max() < 1e-12


def test_pushforward_section_routes_agree():
    p = make_bundle()
    rng = np.random.default_rng(4)
    g = group_sample(ALG, rng)
    x, h = np.array([0.2, 0.4]), group_sample(ALG, rng)
    X, V = rng.normal(size=2), rng.normal(size=3)
    closed = modified_pushforward(p, g, x, X, V)
    flat = GSection.constant(ALG, g)

    def tilted_stack(Y):  # g tilted along e1, linearly in the offset from x
        c = 0.3 * (Y[..., 0] - x[0]) + 0.1 * (Y[..., 1] - x[1])
        return scipy_expm(ALG.rep_of(c[..., None] * np.eye(3)[0])) @ g

    tilted = GSection(ALG, tilted_stack, name="tilted")
    via_flat = pushforward_via_section(p, flat, x, h, X, V)
    via_tilted = pushforward_via_section(p, tilted, x, h, X, V)
    assert np.abs(via_flat - via_tilted).max() < 1e-8
    assert np.abs(via_flat - closed).max() < 1e-8


def test_pushforward_by_inverse_at_image_inverts_it():
    # the base direction is unchanged, so pushing (X, eta') back by g^{-1}
    # over the same point must return eta
    p = make_bundle()
    rng = np.random.default_rng(6)
    for _ in range(4):
        x, g = rng.uniform(-0.9, 0.9, size=2), group_sample(ALG, rng)
        X, eta = rng.normal(size=2), rng.normal(size=3)
        back = modified_pushforward(p, g.conj().T, x, X, modified_pushforward(p, g, x, X, eta))
        assert np.abs(back - eta).max() < 1e-12


def test_body_stencil_rejects_a_curve_off_the_variety():
    def curve(s):  # (1 + s) I leaves SU(2) at once
        return (1 + s)[..., None, None] * IDENTITY

    with pytest.raises(ReexpansionError, match="drifted off the variety"):
        _body_stencil4(ALG, curve, 0)


# ---------------------------------------------------------------------------
# action differential
# ---------------------------------------------------------------------------

def test_action_differential_su2():
    p = make_bundle()
    plan = SamplePlan(count=8, seed=3, tangent_probes=2)
    assert max_gap(action_differential_rows(p, plan)) < 1e-7


def test_action_differential_abelian():
    alg = u1()
    omega = form_from_poly(2, 1, "algebra", (1,), PolyData(
        2, 1, (1,), {(0,): [(np.array([1.0]), np.array([0, 1]))]}))
    a = form_from_poly(2, 1, "algebra", (1,), PolyData(
        2, 1, (1,), {(1,): [(np.array([0.4]), np.array([1, 0]))]}))
    p = theory(alg, omega, a)
    plan = SamplePlan(count=8, seed=3, tangent_probes=2)
    assert max_gap(action_differential_rows(p, plan)) < 1e-10


# ---------------------------------------------------------------------------
# structural invariants of the connection
# ---------------------------------------------------------------------------

def test_equivariance_of_connection_form():
    plan = SamplePlan(count=10, seed=2, tangent_probes=3)
    assert max_gap(equivariance_rows(make_bundle(), plan)) < 1e-8


def test_kernel_invariance_under_pushforward():
    plan = SamplePlan(count=10, seed=2, tangent_probes=3)
    assert max_gap(kernel_invariance_rows(make_bundle(), plan)) < 1e-8


def test_projection_commutation():
    plan = SamplePlan(count=10, seed=2, tangent_probes=3)
    assert max_gap(projection_commutation_rows(make_bundle(), plan)) < 1e-8


def test_mixed_bracket_of_lift_and_fundamental_field():
    p = make_bundle()
    nu = poly_form(2, 0, (3,), {(): [(np.array([0.4, 0., 0.]), np.array([0, 0])),
                                     (np.array([0., 0.2, 0.]), np.array([1, 0]))]})
    plan = SamplePlan(count=6, seed=6)
    assert max_gap(mixed_bracket_rows(p, nu, plan)) < 1e-4


# ---------------------------------------------------------------------------
# total field strength
# ---------------------------------------------------------------------------

def test_field_strength_vanishes_on_vertical_arguments():
    p = make_bundle()
    rng = np.random.default_rng(7)
    fs = total_field_strength(p, np.array([[0.3, -0.2]]),
                              group_sample(ALG, rng)[None])
    vertical = np.zeros((1, 5))
    vertical[0, 3] = 1.0
    probe = rng.normal(size=(1, 5))
    assert np.abs(fs.evaluate(vertical, probe)).max() < 1e-8
    assert np.abs(fs.evaluate(probe, vertical)).max() < 1e-8


def test_field_strength_reduces_to_central_form_when_flat():
    zeta = poly_form(2, 2, (3,), {(0, 1): [(np.array([0.2, -0.1, 0.4]),
                                            np.array([1, 0]))]})
    p = make_bundle(with_omega=False, with_a=False, zeta=zeta)
    fs = total_field_strength(p, np.array([[0.5, 0.1]]))
    t1 = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
    t2 = np.array([[0.0, 1.0, 0.0, 0.0, 0.0]])
    want = zeta.components(np.array([0.5, 0.1]), (0, 1))
    assert np.abs(fs.evaluate(t1, t2)[0] - want).max() < 1e-9


def test_structure_equation_residual():
    p = make_bundle()
    rng = np.random.default_rng(8)
    fs = total_field_strength(p, np.array([[0.3, -0.2]]),
                              group_sample(ALG, rng)[None])
    t1, t2 = np.random.default_rng(4).normal(size=(2, 1, 8, 5))
    assert np.abs(fs.evaluate(t1, t2) - fs.structure_route(t1, t2)).max() < 1e-6


def test_field_strength_on_horizontal_lifts_matches_local_formula():
    p = make_bundle()
    x = np.array([0.3, -0.2])
    fs = total_field_strength(p, x[None])
    nab = LabConnection.from_omega(ALG, p.omega)
    local = add_forms(add_forms(
        cov_ext_deriv(nab, p.gauge_field),
        scale_form(graded_product(bracket_pairing(ALG), p.gauge_field, p.gauge_field), 0.5)),
        p.zeta)
    l0 = fs.horizontal_project(np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]))
    l1 = fs.horizontal_project(np.array([[0.0, 1.0, 0.0, 0.0, 0.0]]))
    assert np.abs(fs.evaluate(l0, l1)[0] - local.components(x, (0, 1))).max() < 1e-6


def test_field_strength_is_adjoint_type():
    plan = SamplePlan(count=5, seed=5, tangent_probes=2)
    assert max_gap(field_strength_type_rows(make_bundle(), plan)) < 1e-5


@pytest.mark.parametrize("name", ["bpst", "random-curved", "preclassical-u1su2"])
def test_field_strength_on_a_stack_of_anchors_matches_each_anchor_alone(name):
    bundle = builtin_scenario(name)
    alg, N = bundle.algebra, bundle.chart.dim + bundle.algebra.dim
    rng = np.random.default_rng(12)
    x = SamplePlan(count=5, seed=2).points(bundle.chart)
    h = scipy_expm(alg.rep_of(rng.normal(size=(5, alg.dim))))
    t1, t2 = rng.normal(size=(2, 5, 3, N))
    stacked = total_field_strength(bundle.scenario, x, h)
    for i in range(5):
        alone = total_field_strength(bundle.scenario, x[i:i + 1], h[i:i + 1])
        for table in ("a", "cov_da", "zeta", "full"):
            assert np.array_equal(getattr(stacked, table)[i], getattr(alone, table)[0]), table
        assert np.array_equal(stacked.evaluate(t1, t2)[i],
                              alone.evaluate(t1[i:i + 1], t2[i:i + 1])[0])
        assert np.array_equal(stacked.structure_route(t1, t2)[i],
                              alone.structure_route(t1[i:i + 1], t2[i:i + 1])[0])


def test_total_form_rows_are_the_connection_form_and_dexp_at_each_offset():
    bundle = builtin_scenario("random-curved")
    p, alg = bundle.scenario, bundle.algebra
    n, d = p.chart.dim, alg.dim
    rng = np.random.default_rng(5)
    x0 = SamplePlan(count=3, seed=4).points(p.chart)
    h0 = expm(alg.rep_of(rng.normal(size=(3, d))))
    uv = 1e-3 * rng.normal(size=(4, n + d))
    rows = total_form_rows(p, x0, h0, uv, a=p.gauge_field)
    for i in range(3):
        for m, (u, v) in enumerate((row[:n], row[n:]) for row in uv):
            x, h = x0[i] + u, h0[i] @ expm(alg.rep_of(v))
            for k in range(n):
                got = connection_one_form(p, x, h, np.eye(n)[k], np.zeros(d))
                assert np.array_equal(rows[i, m, k], got)
            for j in range(d):
                assert np.array_equal(rows[i, m, n + j], dexp_body(alg, v, np.eye(d)[j]))


# ---------------------------------------------------------------------------
# automorphism pullbacks
# ---------------------------------------------------------------------------

def test_identity_automorphism_fixes_everything():
    ((a_rows, f_rows),) = gauge_transform_total(make_bundle(), [GSection.identity(ALG)],
                                                SamplePlan(count=3, seed=7, tangent_probes=2))
    assert max_gap(a_rows) < 1e-10
    assert max_gap(f_rows) < 1e-10


def test_constant_multiplier_without_omega_twists_by_adjoint():
    p = make_bundle(with_omega=False, zeta=zero_form(2, 2, "algebra", (3,)))
    g = scipy_expm(ALG.rep_of(np.array([0.5, -0.2, 0.9])))
    ((a_rows, f_rows),) = gauge_transform_total(p, [GSection.constant(ALG, g)],
                                                SamplePlan(count=3, seed=9, tangent_probes=2))
    assert max_gap(a_rows) < 1e-9
    assert max_gap(f_rows) < 1e-9
    # the constant multiplier moves (x, identity) to (x, g) with no fibre
    # velocity, so the pulled-back form on base axes is Ad_{g^{-1}} A
    x = np.array([0.4, 0.2])
    ad_inv = ad_matrix_of_group(ALG, g.conj().T)
    for k in range(2):
        got = connection_one_form(p, x, g, np.eye(2)[k], np.zeros(3))
        want = ad_inv @ p.gauge_field.components(x, (k,))
        assert np.abs(got - want).max() < 1e-9


def test_generic_automorphism_dual_routes_agree():
    tau = exp_section(lambda y: np.array([0.3 * y[0], -0.4 * y[1], 0.2]), "tau")
    ((a_rows, f_rows),) = gauge_transform_total(make_bundle(), [tau],
                                                SamplePlan(count=4, seed=8, tangent_probes=2))
    assert max_gap(a_rows) < 1e-5
    assert max_gap(f_rows) < 1e-5
