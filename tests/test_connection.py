"""Fibre connections on the algebra bundle: covariant calculus, curvature,
compatibility residuals, and splitting shifts."""
import numpy as np
import pytest

from cym.algebra import ad_matrix_c, bracket_c, su2, u1, u1_su2
from cym.connection import (CompatibilityReport, GaugeScenario, LabConnection, ad_mapped_form,
                            check_compatibility, cov_ext_deriv, curvature,
                            field_redefine, potential_curvature)
from cym.forms import (PolyData, SamplePlan, euclidean_chart, form_from_components,
                       form_from_poly, increasing_indices, zero_form)

ALG = su2()
CHART = euclidean_chart(2, half=1.0)


def poly_form(n, degree, shape, terms, target="algebra"):
    return form_from_poly(n, degree, target, shape, PolyData(n, degree, shape, terms))


def curved_omega():
    """omega = x0 dx1 . e3."""
    return poly_form(2, 1, (3,), {(1,): [(np.array([0., 0., 1.]), np.array([1, 0]))]})


def theory(nabla, zeta, a=None):
    """The scenario of del and zeta on CHART, with the gauge field a (zero
    when None)."""
    d = nabla.algebra.dim
    a = zero_form(2, 1, "algebra", (d,)) if a is None else a
    return GaugeScenario(CHART, nabla.algebra, nabla, zeta, a)


def const_section(coeffs):
    return poly_form(2, 0, (3,), {(): [(np.asarray(coeffs, dtype=float), np.array([0, 0]))]})


# ---------------------------------------------------------------------------
# construction / covariant derivative
# ---------------------------------------------------------------------------

def test_from_omega_gamma_is_adjoint_pointwise():
    nabla = LabConnection.from_omega(ALG, curved_omega())
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=2)
        for k in range(2):
            got = nabla.gamma.components(x, (k,))
            want = ad_matrix_c(ALG, nabla.omega.components(x, (k,)))
            assert np.array_equal(got, want)


def test_gamma_degree_and_target_validated():
    with pytest.raises(ValueError, match="endomorphism"):
        LabConnection(ALG, zero_form(2, 1, "algebra", (3,)))


def test_cov_ext_deriv_flat_reduces_to_plain_d():
    nabla = LabConnection(ALG, zero_form(2, 1, "endomorphism", (3, 3)))
    alpha = poly_form(2, 1, (3,), {(0,): [(np.array([1., 0., 0.]), np.array([0, 2]))]})
    got = cov_ext_deriv(nabla, alpha)
    want = alpha.poly.d()
    x = np.array([0.4, -0.7])
    assert np.allclose(got.components(x, (0, 1)), want.evaluate(x, (0, 1)), atol=1e-14)


def test_cov_ext_deriv_constant_section_gives_bracket():
    nabla = LabConnection.from_omega(ALG, curved_omega())
    nu = const_section([1.0, 0.0, 0.0])
    out = cov_ext_deriv(nabla, nu)
    x = np.array([0.3, 0.8])
    # along axis 1: [x0 e3, e1] = x0 e2; along axis 0: zero
    assert np.allclose(out.components(x, (1,)), [0.0, 0.3, 0.0], atol=1e-14)
    assert np.allclose(out.components(x, (0,)), 0.0, atol=1e-14)
    want = bracket_c(ALG, nabla.omega.components(x, (1,)), nu.components(x, ()))
    assert np.allclose(out.components(x, (1,)), want, atol=1e-14)


def test_double_cov_deriv_is_curvature_action_analytic():
    nabla = LabConnection.from_omega(ALG, curved_omega())
    r = curvature(nabla)
    nu = const_section([0.0, 1.0, 0.0])
    dd = cov_ext_deriv(nabla, cov_ext_deriv(nabla, nu))
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=2)
        want = r.components(x, (0, 1)) @ nu.components(x, ())
        assert np.abs(dd.components(x, (0, 1)) - want).max() < 1e-7


def test_double_cov_deriv_is_curvature_action_nested_stencils():
    # same law, with the potential handed over opaquely (no polynomial payload,
    # no analytic derivative) so both layers fall back to stencils
    omega = form_from_components(
        2, 1, "algebra", (3,),
        lambda x, idx: np.array([0., 0., np.sin(x[0])]) if idx == (1,) else np.zeros(3),
        fd_step=1e-5, box=CHART.box)
    nabla = LabConnection.from_omega(ALG, omega)
    r = curvature(nabla)
    nu = const_section([0.0, 1.0, 0.0])
    dd = cov_ext_deriv(nabla, cov_ext_deriv(nabla, nu))
    x = np.array([0.2, -0.5])
    want = r.components(x, (0, 1)) @ nu.components(x, ())
    assert np.abs(dd.components(x, (0, 1)) - want).max() < 1e-4


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_flat_is_zero():
    nabla = LabConnection(ALG, zero_form(2, 1, "endomorphism", (3, 3)))
    r = curvature(nabla)
    x = np.array([0.6, -0.2])
    assert np.abs(r.components(x, (0, 1))).max() == 0.0


def test_potential_curvature_single_component_is_plain_d():
    # omega = x0 dx1 . e3: the bracket square vanishes, F = dx0 ^ dx1 . e3
    f = potential_curvature(ALG, curved_omega())
    rng = np.random.default_rng(2)
    for _ in range(4):
        x = rng.uniform(-0.9, 0.9, size=2)
        assert np.allclose(f.components(x, (0, 1)), [0., 0., 1.], atol=1e-14)


def test_potential_curvature_bracket_term():
    # omega = x1 dx0 . e1 + x0 dx1 . e2:
    # d-part on (0,1): d(omega_1)/dx0 - d(omega_0)/dx1 = e2 - e1
    # bracket part: [omega_0, omega_1] = x0 x1 [e1, e2] = x0 x1 e3
    omega = poly_form(2, 1, (3,), {
        (0,): [(np.array([1., 0., 0.]), np.array([0, 1]))],
        (1,): [(np.array([0., 1., 0.]), np.array([1, 0]))]})
    f = potential_curvature(ALG, omega)
    x = np.array([0.7, -0.4])
    want = np.array([-1.0, 1.0, 0.7 * (-0.4)])
    assert np.allclose(f.components(x, (0, 1)), want, atol=1e-14)


def test_curvature_crosscheck_against_potential():
    # R of the adjoint connection is ad of the potential's curvature
    nabla = LabConnection.from_omega(ALG, curved_omega())
    plan = SamplePlan(count=16, seed=4)
    r = curvature(nabla)
    ad_f = ad_mapped_form(ALG, potential_curvature(ALG, nabla.omega))
    for x in plan.points(CHART):
        for idx in increasing_indices(2, 2):
            assert np.abs(r.components(x, idx) - ad_f.components(x, idx)).max() < 1e-9


# ---------------------------------------------------------------------------
# compatibility laws
# ---------------------------------------------------------------------------

def test_compatibility_adjoint_connection_with_its_curvature():
    nabla = LabConnection.from_omega(ALG, curved_omega())
    zeta = potential_curvature(ALG, nabla.omega)
    rep = check_compatibility(theory(nabla, zeta), SamplePlan(count=16, seed=7))
    assert rep.derivation_residual < 1e-7
    assert rep.curvature_residual < 1e-7
    assert rep.passed


def test_compatibility_flat_case_exact():
    nabla = LabConnection(ALG, zero_form(2, 1, "endomorphism", (3, 3)))
    rep = check_compatibility(theory(nabla, zero_form(2, 2, "algebra", (3,))),
                              SamplePlan(count=8, seed=7))
    assert rep.derivation_residual == 0.0
    assert rep.curvature_residual == 0.0


def test_compatibility_blind_to_central_shift():
    alg = u1_su2()
    omega = form_from_poly(2, 1, "algebra", (4,), PolyData(
        2, 1, (4,), {(1,): [(np.array([0., 0., 0., 1.]), np.array([1, 0]))]}))
    nabla = LabConnection.from_omega(alg, omega)
    zeta = potential_curvature(alg, omega)
    central = form_from_poly(2, 2, "algebra", (4,), PolyData(
        2, 2, (4,), {(0, 1): [(np.array([0.9, 0., 0., 0.]), np.array([2, 0]))]}))
    from cym.forms import add_forms
    rep = check_compatibility(theory(nabla, add_forms(zeta, central)),
                              SamplePlan(count=8, seed=7))
    assert rep.curvature_residual < 1e-7


def test_compatibility_flags_non_derivation_gamma():
    bad = np.zeros((3, 3))
    bad[0, 0] = 1.0
    gamma = poly_form(2, 1, (3, 3), {(0,): [(bad, np.array([0, 0]))]},
                      target="endomorphism")
    nabla = LabConnection(ALG, gamma)
    rep = check_compatibility(theory(nabla, zero_form(2, 2, "algebra", (3,))),
                              SamplePlan(count=8, seed=7))
    assert rep.derivation_residual > 0.1
    assert not rep.passed


# ---------------------------------------------------------------------------
# splitting shifts (field redefinitions)
# ---------------------------------------------------------------------------

def test_redefine_zero_shift_is_identity():
    nabla = LabConnection.from_omega(ALG, curved_omega())
    zeta = potential_curvature(ALG, nabla.omega)
    a = poly_form(2, 1, (3,), {(0,): [(np.array([0.2, 0., 0.]), np.array([0, 0]))]})
    out = field_redefine(theory(nabla, zeta, a), zero_form(2, 1, "algebra", (3,)))
    assert isinstance(out, GaugeScenario) and out.chart is CHART and out.algebra is ALG
    x = np.array([0.3, -0.6])
    for k in range(2):
        assert np.allclose(out.gauge_field.components(x, (k,)),
                           a.components(x, (k,)), atol=1e-15)
        assert np.allclose(out.nabla.gamma.components(x, (k,)),
                           nabla.gamma.components(x, (k,)), atol=1e-15)
    assert np.allclose(out.zeta.components(x, (0, 1)),
                       zeta.components(x, (0, 1)), atol=1e-15)


def test_redefine_abelian_shifts_only_zeta_by_exact_d():
    alg = u1()
    omega = form_from_poly(2, 1, "algebra", (1,), PolyData(
        2, 1, (1,), {(0,): [(np.array([1.0]), np.array([0, 1]))]}))
    nabla = LabConnection.from_omega(alg, omega)
    zeta = potential_curvature(alg, omega)
    lam = form_from_poly(2, 1, "algebra", (1,), PolyData(
        2, 1, (1,), {(1,): [(np.array([0.5]), np.array([2, 0]))]}))
    out = field_redefine(theory(nabla, zeta), lam)
    x = np.array([0.4, 0.2])
    for k in range(2):
        assert np.allclose(out.nabla.gamma.components(x, (k,)),
                           nabla.gamma.components(x, (k,)), atol=1e-15)
    want = zeta.components(x, (0, 1)) - lam.poly.d().evaluate(x, (0, 1))
    assert np.allclose(out.zeta.components(x, (0, 1)), want, atol=1e-14)


def test_redefine_requires_degree_one_shift():
    nabla = LabConnection.from_omega(ALG, curved_omega())
    zeta = potential_curvature(ALG, nabla.omega)
    with pytest.raises(ValueError, match="1-form"):
        field_redefine(theory(nabla, zeta), zero_form(2, 2, "algebra", (3,)))


@pytest.mark.parametrize("seed", range(4))
def test_redefinition_closure_preserves_compatibility(seed):
    rng = np.random.default_rng(seed)
    nabla = LabConnection.from_omega(ALG, curved_omega())
    zeta = potential_curvature(ALG, nabla.omega)
    terms = {(k,): [(rng.normal(size=3), np.array(e))]
             for k in range(2) for e in ([1, 0], [0, 1])}
    lam = poly_form(2, 1, (3,), terms)
    out = field_redefine(theory(nabla, zeta), lam)
    rep = check_compatibility(out, SamplePlan(count=12, seed=9))
    assert rep.derivation_residual < 1e-6
    assert rep.curvature_residual < 1e-6


def test_redefine_by_potential_flattens_connection_and_kills_zeta():
    omega = curved_omega()
    nabla = LabConnection.from_omega(ALG, omega)
    zeta = potential_curvature(ALG, omega)
    out = field_redefine(theory(nabla, zeta), omega)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=2)
        for k in range(2):
            assert np.abs(out.nabla.gamma.components(x, (k,))).max() < 1e-10
        assert np.abs(out.zeta.components(x, (0, 1))).max() < 1e-10

