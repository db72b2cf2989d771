"""Group-bundle layer: total 1-form, section derivatives, induced connection,
and the curvature identity on the total space."""
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import cym.algebra
import cym.lgb
from cym.algebra import (ReexpansionError, VarietyError, ad_matrix_c,
                         ad_matrix_of_group, bracket_c, dagger, expand_in_rep,
                         su2, u1, u1_su2)
from cym.connection import GaugeScenario, LabConnection, potential_curvature
from cym.forms import (PolyData, SamplePlan, euclidean_chart,
                       form_from_components, form_from_poly, max_gap, zero_form)
from cym.lgb import (GSection, darboux, darboux_pair_rows, dexp_body, generalized_mc_rows, mu_tot,
                     multiplicativity_rows, nabla_from_darboux, one_form_on,
                     pullback_mc_rows, total_form)
from cym.lgb import _normal_table, _point_draws

ALG = su2()
IDENTITY = np.eye(2, dtype=complex)


def group_sample(alg, rng):
    """exp of normal coefficients: one matrix on the group variety."""
    return cym.algebra.expm(alg.rep_of(rng.normal(size=alg.dim)))


def exp_section(coeff_fn, name="exp", alg=ALG):
    """The section y -> exp(coeff_fn(y)) on a 2-chart, through the per-point adapter."""
    return GSection.exp_of_form(alg, form_from_components(
        2, 0, "algebra", (alg.dim,), lambda y, idx: coeff_fn(y)), name=name)


def poly_form(n, degree, shape, terms):
    return form_from_poly(n, degree, "algebra", shape, PolyData(n, degree, shape, terms))


def theory(chart, alg, omega, zeta=None):
    """The scenario of the horizontal potential omega, with zero gauge field
    and the central form zeta (zero when None)."""
    n, d = chart.dim, alg.dim
    zeta = zero_form(n, 2, "algebra", (d,)) if zeta is None else zeta
    return GaugeScenario(chart, alg, LabConnection.from_omega(alg, omega), zeta,
                         zero_form(n, 1, "algebra", (d,)))


def su2_bundle():
    """omega = x0 dx1 . e3 on a euclidean 2-chart."""
    chart = euclidean_chart(2, half=1.0)
    omega = poly_form(2, 1, (3,), {(1,): [(np.array([0., 0., 1.]), np.array([1, 0]))]})
    return theory(chart, ALG, omega)


def flat_bundle(alg=ALG, dim=2):
    chart = euclidean_chart(dim, half=1.0)
    return theory(chart, alg, zero_form(dim, 1, "algebra", (alg.dim,)))


# ---------------------------------------------------------------------------
# per-point draws
# ---------------------------------------------------------------------------

# (count, dim, groups, width, probes, scale); the widest row needs 72 normals
DRAW_SHAPES = [(5, 3, 2, 7, 4, 0.8), (7, 1, 1, 0, 4, 0.5), (3, 4, 1, 30, 2, 1.0),
               (6, 3, 0, 72, 1, 1.0), (4, 3, 2, 0, 0, 0.8), (9, 4, 1, 11, 3, 0.35)]


def per_point_draws(seed, count, dim, groups, width, probes, scale):
    """The draws as each point's own generator gives them, call by call."""
    rngs = [np.random.default_rng([seed, i]) for i in range(count)]
    coeffs = np.array([rng.normal(scale=scale, size=(groups, dim)) for rng in rngs])
    return coeffs, np.array([rng.normal(size=(probes, width)) for rng in rngs])


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_point_draws_equal_the_per_point_generators_bit_for_bit(order):
    for seed in (11, 12, 11):
        for count, dim, groups, width, probes, scale in DRAW_SHAPES[::order]:
            plan = SamplePlan(count=count, seed=seed)
            got = _point_draws(plan, count, dim, groups, width, probes=probes, scale=scale)
            want = per_point_draws(seed, count, dim, groups, width, probes, scale)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_normal_table_is_read_only():
    table = _normal_table(3, 4, 5)
    assert table.shape == (4, 5) and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0


# ---------------------------------------------------------------------------
# dexp / total 1-form
# ---------------------------------------------------------------------------

def test_dexp_body_at_zero_is_identity():
    w = np.array([0.3, -1.2, 0.7])
    assert np.allclose(dexp_body(ALG, np.zeros(3), w), w)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dexp_body_matches_matrix_stencil(seed):
    rng = np.random.default_rng(seed)
    v, w = rng.normal(size=3), rng.normal(size=3)
    h = 1e-6
    num = np.linalg.inv(expm(ALG.rep_of(v))) @ (
        expm(ALG.rep_of(v + h * w)) - expm(ALG.rep_of(v - h * w))) / (2 * h)
    coeffs, resid = expand_in_rep(ALG, num)
    assert resid < 1e-9
    assert np.abs(dexp_body(ALG, v, w) - coeffs).max() < 1e-9


def test_mu_tot_identity_group_point_passes_tangent_through():
    lgb = su2_bundle()
    eta = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(mu_tot(lgb, np.array([0.3, -0.2]), IDENTITY,
                                 np.array([1.0, -2.0]), eta), eta)


def test_mu_tot_flat_bundle_passes_tangent_through():
    lgb = flat_bundle()
    g = group_sample(ALG, np.random.default_rng(4))
    eta = np.array([0.0, 2.0, -1.0])
    assert np.array_equal(mu_tot(lgb, np.array([0.1, 0.2]), g, np.array([0.5, 0.5]), eta), eta)


def test_mu_tot_vertical_tangent_is_exact_for_any_group_point():
    lgb = su2_bundle()
    rng = np.random.default_rng(9)
    for _ in range(5):
        x, g = rng.uniform(-0.9, 0.9, size=2), group_sample(ALG, rng)
        eta = rng.normal(size=3)
        got = mu_tot(lgb, x, g, np.zeros(2), eta)
        assert np.array_equal(got, eta)


def test_mu_tot_rejects_point_outside_box():
    lgb = su2_bundle()
    with pytest.raises(ValueError, match="outside"):
        mu_tot(lgb, np.array([5.0, 0.0]), IDENTITY, np.zeros(2), np.zeros(3))


def test_connection_rejects_an_omega_that_is_not_an_algebra_valued_1_form():
    gamma = zero_form(2, 1, "endomorphism", (3, 3))
    for omega in (zero_form(2, 2, "algebra", (3,)), gamma):
        with pytest.raises(ValueError, match="algebra-valued 1-form"):
            LabConnection(ALG, omega=omega)


# ---------------------------------------------------------------------------
# multiplicativity
# ---------------------------------------------------------------------------

def test_multiplicativity_holds_on_curved_su2():
    plan = SamplePlan(count=24, seed=3, tangent_probes=3)
    assert max_gap(multiplicativity_rows(su2_bundle(), plan)) < 1e-9


def test_multiplicativity_exact_on_abelian():
    alg = u1()
    chart = euclidean_chart(2, half=1.0)
    omega = form_from_poly(2, 1, "algebra", (1,), PolyData(
        2, 1, (1,), {(0,): [(np.array([1.0]), np.array([0, 1]))]}))
    plan = SamplePlan(count=16, seed=6, tangent_probes=3)
    assert max_gap(multiplicativity_rows(theory(chart, alg, omega), plan)) == 0.0


def test_multiplicativity_breaks_under_group_dependent_perturbation(monkeypatch):
    rho = poly_form(2, 1, (3,), {(0,): [(np.array([0.2, 0., 0.]), np.array([0, 0]))]})
    plan = SamplePlan(count=24, seed=3, tangent_probes=3)

    def perturbed(s, x, g, X, eta):
        """mu plus (Ad_{g^{-1}} - id) Ad_{g^{-1}} rho(X), which depends on the
        group element and so breaks multiplicativity for any nonzero rho."""
        twisted = ad_matrix_of_group(s.algebra, dagger(g)) @ one_form_on(rho, x, X)[..., None]
        return total_form(s.algebra, g, twisted[..., 0], eta=mu_tot(s, x, g, X, eta))

    monkeypatch.setattr(cym.lgb, "mu_tot", perturbed)
    assert max_gap(multiplicativity_rows(su2_bundle(), plan)) > 0.01


def reference_multiplicativity_rows(lgb, plan):
    """Per-point residuals of the law, one point, group pair and probe at a
    time, with point i drawing from default_rng([plan.seed, i])."""
    rows = []
    for i, x in enumerate(plan.points(lgb.chart)):
        rng = np.random.default_rng([plan.seed, i])
        g, q = group_sample(lgb.algebra, rng), group_sample(lgb.algebra, rng)
        ad_q_inv = ad_matrix_of_group(lgb.algebra, q.conj().T)

        def mu(h, X, eta, x=x):
            return mu_tot(lgb, x, h, X, eta)

        gaps = []
        for _ in range(plan.tangent_probes):
            X = rng.normal(size=lgb.chart.dim)
            eta, theta = rng.normal(size=lgb.algebra.dim), rng.normal(size=lgb.algebra.dim)
            lhs = mu(g @ q, X, ad_q_inv @ eta + theta)
            gaps.append(lhs - (ad_q_inv @ mu(g, X, eta) + mu(q, X, theta)))
        rows.append(float(np.abs(gaps).max()))
    return rows


def test_multiplicativity_rows_match_a_per_point_reference():
    plan = SamplePlan(count=9, seed=3, tangent_probes=3)
    got = multiplicativity_rows(su2_bundle(), plan)
    want = reference_multiplicativity_rows(su2_bundle(), plan)
    assert got.shape == (9,) and np.abs(got - want).max() <= 1e-15


# ---------------------------------------------------------------------------
# logarithmic derivative of sections
# ---------------------------------------------------------------------------

def test_darboux_identity_section_vanishes():
    lgb = su2_bundle()
    ds = darboux(lgb, GSection.identity(ALG))
    x = np.array([0.4, -0.6])
    for k in range(2):
        assert np.abs(ds.components(x, (k,))).max() == 0.0


def test_darboux_flat_bundle_is_plain_log_derivative():
    lgb = flat_bundle()
    s = exp_section(lambda y: np.array([0.7 * y[0], 0., 0.]), "s")
    ds = darboux(lgb, s)
    x = np.array([0.2, 0.1])
    # single-generator path: b^{-1} db = 0.7 e1 along axis 0, zero along axis 1
    assert np.abs(ds.components(x, (0,)) - np.array([0.7, 0., 0.])).max() < 1e-9
    assert np.abs(ds.components(x, (1,))).max() < 1e-12


def test_darboux_constant_section_reduces_to_conjugation_defect():
    lgb = su2_bundle()
    g = expm(ALG.rep_of(np.array([0.4, -0.8, 1.1])))
    ds = darboux(lgb, GSection.constant(ALG, g))
    x = np.array([0.5, -0.3])
    ad_inv = ad_matrix_of_group(ALG, g.conj().T)
    for k in range(2):
        w = lgb.omega.components(x, (k,))
        assert np.abs(ds.components(x, (k,)) - (ad_inv @ w - w)).max() < 1e-12


def test_darboux_leibniz_rule():
    lgb = su2_bundle()
    s1 = exp_section(lambda y: np.array([0.3 * y[0], -0.2 * y[1], 0.1 * y[0] * y[1]]), "s1")
    s2 = exp_section(lambda y: np.array([0., 0.4 * y[0], -0.1]), "s2")
    plan = SamplePlan(count=12, seed=5)
    (leibniz,), _ = darboux_pair_rows(lgb, [(s1, s2)], plan)
    assert max_gap(leibniz) < 1e-6


def test_dexp_body_on_a_stack_matches_the_series_row_by_row():
    def reference(v, w):  # the series of one row, stopped by that row's own term
        adv = ad_matrix_c(ALG, v)
        term, out = w, w.copy()
        for k in range(1, 40):
            term = -(adv @ term) / (k + 1)
            out += term
            if np.abs(term).max() < 1e-18:
                break
        return out

    rng = np.random.default_rng(3)
    v = np.concatenate([rng.normal(size=(4, 3)), 1e-5 * rng.normal(size=(4, 3)), np.zeros((1, 3))])
    w = np.concatenate([rng.normal(size=(5, 3)), np.eye(3)[[0, 1, 2, 0]]])
    want = np.array([reference(a, b) for a, b in zip(v, w)])
    assert np.array_equal(dexp_body(ALG, v, w), want)
    assert np.array_equal(dexp_body(ALG, v[:, None, :], np.eye(3)),
                          np.array([[reference(a, e) for e in np.eye(3)] for a in v]))


def test_darboux_inverse_rule():
    lgb = su2_bundle()
    s = exp_section(lambda y: np.array([0.3 * y[0], -0.2 * y[1], 0.1 * y[0] * y[1]]), "s")
    plan = SamplePlan(count=12, seed=5)
    _, (inverse,) = darboux_pair_rows(lgb, [(s, s)], plan)
    assert max_gap(inverse) < 1e-6


def test_darboux_table_matches_stacked_per_point_components_bit_for_bit():
    from cym.harness import builtin_scenario
    bpst = builtin_scenario("bpst")
    lgb = su2_bundle()
    s1 = exp_section(lambda y: np.array([0.3 * y[0], -0.2 * y[1], 0.1 * y[0] * y[1]]), "s1")
    s2 = exp_section(lambda y: np.array([0., 0.4 * y[0], -0.1]), "s2")
    generic, twist = bpst.sections["generic"], bpst.sections["twist"]
    for bundle, sections in ((lgb, (s1, s1.product(s2), s1.inverse())),
                             (bpst.scenario, (generic, generic.product(twist),
                                         twist.inverse()))):
        X = SamplePlan(count=8, seed=5).points(bundle.chart)
        h, n = bundle.chart.default_step(), bundle.chart.dim
        for sec in sections:
            form = darboux(bundle, sec)
            got = form.table(X)
            assert np.array_equal(got, np.array(
                [[form.components(x, (k,)) for k in range(n)] for x in X])), sec.name
            # the law applied one point and one axis at a time
            assert np.array_equal(got, np.array(
                [[total_form(ALG, sec(x), bundle.omega.components(x, (k,)),
                             eta=sec.body_derivative(x, h)[k]) for k in range(n)]
                 for x in X])), sec.name


def test_section_stack_checks_every_row_on_the_variety():
    bad = np.array([0.2, 0.1])

    def stack(Y):  # finite, but twice a group matrix at one point
        return np.where((Y == bad).all(axis=-1), 2.0, 1.0)[..., None, None] * IDENTITY

    s = GSection(ALG, stack, "scaled")
    assert np.array_equal(s(np.array([[0.0, 0.0], [0.5, 0.5]])), np.stack([np.eye(2)] * 2))
    with pytest.raises(VarietyError, match="off the group variety"):
        s(np.array([[0.0, 0.0], bad]))
    # a non-finite row passes through as NaN, the others stay finite
    nan = exp_section(lambda y: np.full(3, np.nan) if np.array_equal(y, bad) else np.ones(3))
    got = nan(np.array([[0.0, 0.0], bad]))
    assert np.isfinite(got[0]).all() and np.isnan(got[1]).all()


def test_constant_section_checks_its_matrix_when_built():
    with pytest.raises(VarietyError, match="off the group variety"):
        GSection.constant(ALG, 2.0 * IDENTITY)
    g = expm(ALG.rep_of(np.array([0.4, -0.8, 1.1])))
    got = GSection.constant(ALG, g)(np.zeros((3, 4, 2)))
    assert np.array_equal(got, np.broadcast_to(g, (3, 4, 2, 2)))


def test_section_variety_drift_detection():
    # a violently oscillating section makes the matrix stencil pick up an
    # out-of-span (trace) component beyond the watchdog threshold
    s = exp_section(lambda y: np.array([np.sin(50.0 * y[0]) * 40.0, 0., 0.]), "wild")
    with pytest.raises(ReexpansionError, match="drift"):
        s.body_derivative(np.array([0.3, 0.0]), 1e-2)


def test_section_memo_is_keyed_by_point_content():
    calls = []

    def coeffs(y):
        calls.append(y.copy())
        return np.array([y[0], 0.0, 0.0])

    s = exp_section(coeffs, "first-axis")
    x = np.array([0.3, -0.2])
    first = s(x)
    assert s(x.copy()) is first and len(calls) == 1
    # mutate the point in place, as the charge quadrature does with its node
    x[0] = -0.6
    second = s(x)
    assert len(calls) == 2
    want = expm(ALG.rep_of(np.array([-0.6, 0.0, 0.0])))
    assert np.abs(second - want).max() < 1e-14
    assert np.abs(first - second).max() > 0.1


def test_exp_of_form_is_the_exp_section_of_its_table():
    nu = poly_form(2, 0, (3,), {(): [(np.array([0.5, 0., 0.]), np.array([1, 0])),
                                     (np.array([0., 0.3, -0.2]), np.array([0, 1]))]})
    X = SamplePlan(count=6, seed=2).points(euclidean_chart(2, half=1.0))
    stack = np.stack([X, X[::-1]])  # a (2, 6, n) stack of points
    got = GSection.exp_of_form(ALG, nu, -0.7)(stack)
    want = exp_section(lambda y: -0.7 * nu.poly.evaluate(y, ()))(stack)
    assert got.shape == (2, 6, 2, 2)
    assert np.array_equal(got, want)


def test_an_exp_section_reads_its_form_and_scale_from_its_stack():
    nu = poly_form(2, 0, (3,), {(): [(np.array([0.5, 0., 0.]), np.array([1, 0]))]})
    section = GSection.exp_of_form(ALG, nu, -0.7)
    assert section.form is nu and section.scale == -0.7
    for name in ("form", "scale"):
        with pytest.raises(AttributeError):
            setattr(section, name, None)
    plain = GSection(ALG, section, "plain")  # a stack that is no exp-section's
    assert plain.form is None and plain.scale is None
    assert GSection.identity(ALG).form is None


def test_section_product_requires_same_algebra():
    s1 = GSection.identity(ALG)
    s2 = GSection.identity(u1())
    with pytest.raises(ValueError, match="different algebras"):
        s1.product(s2)


# ---------------------------------------------------------------------------
# induced fibre connection
# ---------------------------------------------------------------------------

def test_fibre_connection_constant_flat_vanishes():
    lgb = flat_bundle()
    nu = poly_form(2, 0, (3,), {(): [(np.array([1., 0., 0.]), np.array([0, 0]))]})
    got = nabla_from_darboux(lgb, nu, np.array([0.3, 0.1]))[0]
    assert np.abs(got).max() < 1e-8


def test_fibre_connection_constant_generator_gives_bracket():
    # omega = dx1 . e3, nu = e1 (constant): derivative along axis 1 is [e3, e1] = e2
    chart = euclidean_chart(2, half=1.0)
    omega = poly_form(2, 1, (3,), {(1,): [(np.array([0., 0., 1.]), np.array([0, 0]))]})
    lgb = theory(chart, ALG, omega)
    nu = poly_form(2, 0, (3,), {(): [(np.array([1., 0., 0.]), np.array([0, 0]))]})
    got = nabla_from_darboux(lgb, nu, np.array([0.2, -0.4]))[1]
    assert np.abs(got - np.array([0., 1., 0.])).max() < 1e-6


def test_fibre_connection_linear_coefficient_gives_plain_derivative():
    lgb = flat_bundle()
    nu = poly_form(2, 0, (3,), {(): [(np.array([1., 0., 0.]), np.array([0, 1]))]})
    got = nabla_from_darboux(lgb, nu, np.array([0.5, 0.2]))[1]
    assert np.abs(got - np.array([1., 0., 0.])).max() < 1e-6


def test_fibre_connection_matches_closed_form_on_generic_data():
    lgb = su2_bundle()
    nu = poly_form(2, 0, (3,), {(): [(np.array([0.5, 0., 0.]), np.array([1, 0])),
                                     (np.array([0., 0.3, 0.]), np.array([0, 1]))]})
    x = np.array([0.4, -0.3])
    got_all = nabla_from_darboux(lgb, nu, x)
    for k in range(2):
        got = got_all[k]
        want = nu.poly.d().evaluate(x, (k,)) + bracket_c(
            ALG, lgb.omega.components(x, (k,)), nu.components(x, ()))
        assert np.abs(got - want).max() < 1e-7


def reference_nabla(lgb, nu, x, t_step=1e-5):
    """The stencil route at one point, one axis at a time, through the
    `darboux` forms of the sections exp(+-t_step nu)."""
    def delta(t, k):
        sec = exp_section(lambda y: t * nu.components(y, ()), alg=lgb.algebra)
        return darboux(lgb, sec).components(x, (k,))

    return np.array([(delta(t_step, k) - delta(-t_step, k)) / (2 * t_step)
                     for k in range(lgb.chart.dim)])


def test_fibre_connection_on_a_batch_matches_the_per_point_route():
    lgb = su2_bundle()
    nu = poly_form(2, 0, (3,), {(): [(np.array([0.5, 0., 0.2]), np.array([1, 0])),
                                     (np.array([0., 0.3, 0.]), np.array([1, 1]))]})
    X = SamplePlan(count=7, seed=4).points(lgb.chart)
    got = nabla_from_darboux(lgb, nu, X)
    assert got.shape == (7, 2, 3)
    for x, row in zip(X, got):
        assert np.abs(row - reference_nabla(lgb, nu, x)).max() <= 1e-12



# ---------------------------------------------------------------------------
# curvature identity on the total space
# ---------------------------------------------------------------------------

def test_total_curvature_identity_flat_case():
    plan = SamplePlan(count=6, seed=11)
    assert max_gap(generalized_mc_rows(flat_bundle(), plan)) < 1e-6


def test_total_curvature_identity_with_potential_curvature():
    lgb = su2_bundle()
    zeta = potential_curvature(ALG, lgb.omega)
    plan = SamplePlan(count=6, seed=11)
    assert max_gap(generalized_mc_rows(replace(lgb, zeta=zeta), plan)) < 1e-5


def test_total_curvature_identity_detects_wrong_zeta():
    plan = SamplePlan(count=6, seed=11)  # su2_bundle() is curved; its zeta is zero
    assert max_gap(generalized_mc_rows(su2_bundle(), plan)) > 0.1


def test_total_curvature_identity_blind_to_central_shift():
    alg = u1_su2()
    chart = euclidean_chart(2, half=1.0)
    omega = form_from_poly(2, 1, "algebra", (4,), PolyData(
        2, 1, (4,), {(1,): [(np.array([0., 0., 0., 1.]), np.array([1, 0]))]}))
    zeta = potential_curvature(alg, omega)
    central = form_from_poly(2, 2, "algebra", (4,), PolyData(
        2, 2, (4,), {(0, 1): [(np.array([0.7, 0., 0., 0.]), np.array([1, 1]))]}))
    from cym.forms import add_forms
    plan = SamplePlan(count=6, seed=13)
    lgb = theory(chart, alg, omega, add_forms(zeta, central))
    assert max_gap(generalized_mc_rows(lgb, plan)) < 1e-5


def test_pullback_identity_along_identity_section_is_exact():
    lgb = su2_bundle()
    lgb = replace(lgb, zeta=potential_curvature(ALG, lgb.omega))
    plan = SamplePlan(count=6, seed=2)
    assert max_gap(pullback_mc_rows(lgb, GSection.identity(ALG), plan)) < 1e-12


def test_pullback_identity_classical_case():
    lgb = flat_bundle()
    s = exp_section(lambda y: np.array([0.4 * y[0], 0.3 * y[1], -0.2 * y[0] * y[1]]), "s")
    plan = SamplePlan(count=6, seed=2)
    assert max_gap(pullback_mc_rows(lgb, s, plan)) < 1e-6


def test_pullback_identity_curved_case():
    lgb = su2_bundle()
    lgb = replace(lgb, zeta=potential_curvature(ALG, lgb.omega))
    s = exp_section(lambda y: np.array([0.3 * y[0], -0.2 * y[1], 0.1 * y[0] * y[1]]), "s")
    plan = SamplePlan(count=6, seed=2)
    assert max_gap(pullback_mc_rows(lgb, s, plan)) < 1e-4
