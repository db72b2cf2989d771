"""Differential-form engine checks: evaluation, graded products, d, star."""
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import mark

import cym.algebra as alg
import cym.forms as fm
import cym.gauge as gauge
from cym.connection import (LabConnection, cov_ext_deriv, curvature,
                            potential_curvature)
from cym.harness import bpst_central_form, bpst_potential, builtin_scenario

SU2 = alg.su2()
CH = fm.euclidean_chart(4)
X0 = np.array([0.7, -0.4, 0.1, 0.2])

coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def poly_1form(entries):
    """Helper: entries maps axis -> list of (coeff vec, exponent vec)."""
    terms = {(k,): v for k, v in entries.items()}
    return fm.form_from_poly(4, 1, "algebra", (3,),
                             fm.PolyData(4, 1, (3,), terms), box=CH.box)


def constant_form(n, degree, value_target, table, box=None):
    """Helper: a form with constant components; table maps idx -> value."""
    shape = np.asarray(next(iter(table.values()))).shape
    terms = {idx: [(np.asarray(v, dtype=float), np.zeros(n, dtype=int))]
             for idx, v in table.items()}
    return fm.form_from_poly(n, degree, value_target, shape,
                             fm.PolyData(n, degree, shape, terms), box=box)


def top_coefficient(form, x):
    """Helper: the coefficient of a top form on (0, ..., n-1) at x."""
    return float(form.components(x, tuple(range(form.n))))


def eval_on(form, x, vectors):
    """Helper: the form at x on tangent vectors, the sum over increasing
    indices I of its component on I times det(rows of the vectors on I)."""
    V = np.array(vectors, dtype=float)
    row = form.table(np.asarray(x, dtype=float)[None])[0]
    return sum(value * np.linalg.det(V[:, I]) for value, I in
               zip(row, fm.increasing_indices(form.n, form.degree)))


A_FORM = poly_1form({
    1: [(np.array([1.0, 0, 0]), np.array([1, 0, 0, 0]))],   # x0 dx1 e1
    0: [(np.array([0, 1.0, 0]), np.array([0, 1, 0, 0]))],   # x1 dx0 e2
})


# -- evaluation -------------------------------------------------------------

def test_eval_antisymmetry_and_multilinearity():
    rng = np.random.default_rng(3)
    f = fm.graded_product(fm.bracket_pairing(SU2), A_FORM, A_FORM)
    X, Y = rng.normal(size=4), rng.normal(size=4)
    def f_at(*vectors):
        return eval_on(f, X0, vectors)

    np.testing.assert_allclose(f_at(X, Y), -f_at(Y, X), atol=1e-14)
    np.testing.assert_allclose(f_at(X, X), 0.0, atol=1e-14)
    np.testing.assert_allclose(f_at(2.0 * X, Y), 2.0 * f_at(X, Y), atol=1e-13)


# -- graded products --------------------------------------------------------

def test_half_square_bracket_identity():
    # (1/2)[A ^, A](X, Y) = [A(X), A(Y)], expected value from the
    # representation-commutator route
    rng = np.random.default_rng(5)
    sq = fm.scale_form(fm.graded_product(fm.bracket_pairing(SU2), A_FORM, A_FORM), 0.5)
    for _ in range(10):
        X, Y = rng.normal(size=4), rng.normal(size=4)
        ax, ay = eval_on(A_FORM, X0, (X,)), eval_on(A_FORM, X0, (Y,))
        comm = SU2.rep_of(ax) @ SU2.rep_of(ay) - SU2.rep_of(ay) @ SU2.rep_of(ax)
        want, resid = alg.expand_in_rep(SU2, comm)
        assert resid < 1e-12
        np.testing.assert_allclose(eval_on(sq, X0, (X, Y)), want, atol=1e-12)


@mark.parametrize("ka km".split(), ((1, 1), (1, 2), (2, 1), (2, 2)))
def test_graded_antisymmetry(ka, km):
    rng = np.random.default_rng(ka * 7 + km)
    fa = constant_form(4, ka, "algebra", {
        idx: rng.normal(size=3) for idx in fm.increasing_indices(4, ka)}, box=CH.box)
    fb = constant_form(4, km, "algebra", {
        idx: rng.normal(size=3) for idx in fm.increasing_indices(4, km)}, box=CH.box)
    br = fm.bracket_pairing(SU2)
    ab = fm.graded_product(br, fa, fb)
    ba = fm.graded_product(br, fb, fa)
    sign = -((-1.0) ** (ka * km))
    for K in fm.increasing_indices(4, ka + km):
        np.testing.assert_allclose(ab.components(X0, K),
                                   sign * ba.components(X0, K), atol=1e-12)


def test_product_beyond_top_degree_is_zero():
    f3 = constant_form(4, 3, "algebra", {
        idx: np.ones(3) for idx in fm.increasing_indices(4, 3)}, box=CH.box)
    out = fm.graded_product(fm.bracket_pairing(SU2), f3, f3)
    assert out.degree == 4
    np.testing.assert_allclose(out.components(X0, (0, 1, 2, 3)), 0.0)


def test_kappa_wedge_frozen_coefficient():
    e = alg.u1()
    w1 = constant_form(4, 2, "algebra", {(0, 1): np.array([1.0])}, box=CH.box)
    w2 = constant_form(4, 2, "algebra", {(2, 3): np.array([1.0])}, box=CH.box)
    top = fm.kappa_wedge_top(e, w1, w2)
    assert abs(top_coefficient(top, X0) - 1.0) < 1e-14
    z = fm.zero_form(4, 2, "algebra", (1,), box=CH.box)
    assert top_coefficient(fm.kappa_wedge_top(e, z, z), X0) == 0.0


def test_kappa_wedge_degree_check():
    w1 = constant_form(4, 2, "algebra", {(0, 1): np.array([1.0])}, box=CH.box)
    w3 = constant_form(4, 1, "algebra", {(0,): np.array([1.0])}, box=CH.box)
    with pytest.raises(ValueError):
        fm.kappa_wedge_top(alg.u1(), w1, w3)


def _closure_form(degree, dim):
    """Helper: a per-point closure with a distinct transcendental value on
    each index and slot."""
    def comp(x, idx):
        phase = sum(k * x[i] for k, i in enumerate(idx, 1))
        return np.array([np.cos(phase + a) * np.exp(-0.1 * float(x @ x)) for a in range(dim)])
    return fm.form_from_components(4, degree, "algebra", (dim,), comp, box=CH.box)


# u(1)+su(2) with a pairing that is not the identity: any scale on each summand
WEIGHTED = replace(alg.u1_su2(), kappa=np.diag([-1.7, 0.6, 0.6, 0.6]))
# an abelian algebra takes any symmetric pairing, so its kappa blocks are dense
DENSE = replace(alg.direct_sum(alg.direct_sum(alg.u1(), alg.u1()), alg.u1()),
                kappa=[[2.0, 0.7, -0.3], [0.7, 1.3, 0.2], [-0.3, 0.2, 0.9]])

KAPPA_WEDGES = {
    "bpst-central-squared": lambda: (SU2, bpst_central_form(), bpst_central_form()),
    "star-stereographic": lambda: (SU2, _closure_form(2, 3), fm.hodge_star(
        fm.stereographic_chart(), _closure_form(2, 3))),
    "closure-central": lambda: (SU2, _closure_form(2, 3), bpst_central_form()),
    "u1-1-3": lambda: (alg.u1(), _closure_form(1, 1), _closure_form(3, 1)),
    "su2-3-1": lambda: (SU2, _closure_form(3, 3), _closure_form(1, 3)),
    "weighted-sum-2-2": lambda: (WEIGHTED, _closure_form(2, 4), _closure_form(2, 4)),
    "weighted-sum-1-3": lambda: (WEIGHTED, _closure_form(1, 4), _closure_form(3, 4)),
    "dense-kappa-2-2": lambda: (DENSE, _closure_form(2, 3), _closure_form(2, 3)),
    # one form paired with itself takes each symmetric pair of entries once
    "su2-self-2-2": lambda: _self_pair(SU2, _closure_form(2, 3)),
    "dense-kappa-self-2-2": lambda: _self_pair(DENSE, _closure_form(2, 3)),
    # polynomial forms take the same contraction, not a polynomial product
    "poly-2-2": lambda: (SU2, _poly_form(2, [[0.5, 0.0, -0.2], [0.1, 0.3, 0.0]]),
                         _poly_form(2, [[0.0, -0.4, 0.2], [0.6, 0.0, 0.1]])),
}


def _poly_form(degree, coeffs):
    """Helper: a polynomial su(2)-valued form on every increasing index,
    one linear and one constant term each, with coefficient rows `coeffs`."""
    terms = {idx: [(np.roll(coeffs[0], i), np.eye(4, dtype=int)[i % 4]),
                   (np.roll(coeffs[1], i), np.zeros(4, dtype=int))]
             for i, idx in enumerate(fm.increasing_indices(4, degree))}
    return fm.form_from_poly(4, degree, "algebra", (3,), fm.PolyData(4, degree, (3,), terms),
                             box=CH.box)


def _self_pair(algebra, form):
    return algebra, form, form


@mark.parametrize("name", sorted(KAPPA_WEDGES))
def test_kappa_wedge_top_matches_the_shuffle_sum(name):
    # the bilinear matrix against the graded product's sum over shuffles
    algebra, f, g = KAPPA_WEDGES[name]()
    top = fm.kappa_wedge_top(algebra, f, g)
    assert top.poly is None and top.degree == 4 and top.value_shape == ()
    got = top.table(BATCH)
    want = fm.graded_product(fm.kappa_pairing(algebra), f, g).table(BATCH)
    assert got.shape == want.shape == (len(BATCH), 1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


# -- exterior derivative ----------------------------------------------------

def test_fd_matches_analytic_derivative():
    # polynomial and transcendental components, unit box, h = 1e-5
    def comp(x, idx):
        k = idx[0]
        return np.array([np.sin(x[k] + 0.5 * x[(k + 1) % 4]),
                         x[0] * x[k] ** 2, np.cos(x[2]) * x[k]])

    f_fd = fm.form_from_components(4, 1, "algebra", (3,), comp, fd_step=1e-5, box=CH.box)
    rng = np.random.default_rng(11)
    worst = 0.0
    d_fd = fm.exterior_derivative(f_fd)
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9, size=4)
        for K in fm.increasing_indices(4, 2):
            i, j = K

            def part(axis, kidx, xx):
                h = 1e-6
                e = np.zeros(4)
                e[axis] = h
                return (comp(xx + e, (kidx,)) - comp(xx - e, (kidx,))) / (2 * h)

            want = part(i, j, x) - part(j, i, x)
            got = d_fd.components(x, K)
            worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-7


@pytest.mark.parametrize("N", [1, 2, 3])
def test_central_offsets_are_the_origin_then_plus_and_minus_each_axis(N):
    want = [np.zeros(N)] + [sign * 0.25 * e for e in np.eye(N) for sign in (1, -1)]
    np.testing.assert_array_equal(fm._central_offsets(N, 0.25), want)


def test_central_quotient_along_a_later_axis_is_the_gradient_of_a_quadratic():
    rng = np.random.default_rng(4)
    N, h = 3, 1e-3
    Q, b = rng.normal(size=(N, N)), rng.normal(size=N)
    x = rng.normal(size=(5, N))
    y = x[:, None, :] + fm._central_offsets(N, h)              # (5, 2N + 1, N)
    f = np.einsum("pki,ij,pkj->pk", y, Q, y) + y @ b
    got = fm._central_quotient(f[:, 1:], h, axis=1)            # (5, N)
    np.testing.assert_allclose(got, x @ (Q + Q.T) + b, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n, degree", [(n, k) for n in (2, 3, 4) for k in (0, 1, 2) if k < n])
def test_stencil_d_of_a_payload_table_matches_its_exact_d(n, degree):
    # the same payload read as a batch, so d takes the stencil route
    rng = np.random.default_rng([n, degree])
    terms = {I: [(rng.normal(size=2), rng.integers(0, 3, size=n)) for _ in range(3)]
             for I in fm.increasing_indices(n, degree)}
    poly = fm.PolyData(n, degree, (2,), terms)
    box = fm.euclidean_chart(n).box
    stencil = fm.LieForm(n=n, degree=degree, value_target="algebra", value_shape=(2,),
                         batch=poly.table, box=box)
    X = rng.uniform(-0.9, 0.9, size=(6, n))
    got = fm.exterior_derivative(stencil).table(X)
    assert got.shape == (6, len(fm.increasing_indices(n, degree + 1)), 2)
    np.testing.assert_allclose(got, poly.d().table(X), rtol=0, atol=1e-8)


def test_dd_is_zero_polynomial_exact():
    dd = fm.exterior_derivative(fm.exterior_derivative(A_FORM))
    for K in fm.increasing_indices(4, 3):
        np.testing.assert_allclose(dd.components(X0, K), 0.0, atol=0.0)


def test_dd_analytic_path():
    # hand-supplied analytic_d, outer derivative via FD of those components
    def comp(x, idx):
        return np.array(np.exp(0.3 * x[idx[0]]) * np.sin(x[(idx[0] + 2) % 4]))

    def dcomp(x, J):
        i, j = J
        def pi(axis, k):
            v = 0.3 * np.exp(0.3 * x[k]) * np.sin(x[(k + 2) % 4]) if axis == k else 0.0
            if axis == (k + 2) % 4:
                v += np.exp(0.3 * x[k]) * np.cos(x[(k + 2) % 4])
            return v
        return np.array(pi(i, j) - pi(j, i))

    f = fm.form_from_components(4, 1, "scalar", (), comp, d=dcomp, fd_step=1e-5,
                                box=CH.box)
    df = fm.exterior_derivative(f)
    # rebuild without the exactness shortcut to actually measure d(df)
    df_raw = replace(df, analytic_d=None)
    ddf = fm.exterior_derivative(df_raw)
    worst = max(abs(float(ddf.components(X0, K)))
                for K in fm.increasing_indices(4, 3))
    assert worst < 1e-8


def test_dd_nested_fd_path():
    def comp(x, idx):
        return np.array(np.exp(0.3 * x[idx[0]]) * np.sin(x[(idx[0] + 1) % 4])
                        + x[2] * x[idx[0]] ** 2)

    f = fm.form_from_components(4, 1, "scalar", (), comp, fd_step=1e-5, box=CH.box)
    ddf = fm.exterior_derivative(fm.exterior_derivative(f))
    worst = max(abs(float(ddf.components(X0, K)))
                for K in fm.increasing_indices(4, 3))
    assert worst < 1e-4


def test_one_sided_stencil_flags_order_loss():
    f = fm.form_from_components(4, 1, "scalar", (), lambda x, idx: x[idx[0]] ** 2,
                                fd_step=1e-5, box=CH.box)
    df = fm.exterior_derivative(f)
    fm.drain_order_loss_events()
    _ = df.components(X0, (0, 1))
    assert fm.drain_order_loss_events() == []
    edge = np.array([1.0, 0.0, 0.0, 0.0])
    _ = df.components(edge, (0, 1))
    events = fm.drain_order_loss_events()
    assert events and events[0][1] == 0


# -- Hodge star -------------------------------------------------------------

STAR_TABLE = {
    (0, 1): ((2, 3), 1.0), (0, 2): ((1, 3), -1.0), (0, 3): ((1, 2), 1.0),
    (1, 2): ((0, 3), 1.0), (1, 3): ((0, 2), -1.0), (2, 3): ((0, 1), 1.0),
}


@mark.parametrize("pair", sorted(STAR_TABLE))
def test_euclidean_star_table(pair):
    f = constant_form(4, 2, "scalar", {pair: np.array(1.0)}, box=CH.box)
    s = fm.hodge_star(CH, f)
    target, sign = STAR_TABLE[pair]
    for J in fm.increasing_indices(4, 2):
        want = sign if J == target else 0.0
        assert abs(float(s.components(X0, J)) - want) < 1e-14


def test_double_star_identity_on_two_forms():
    rng = np.random.default_rng(17)
    f = constant_form(4, 2, "algebra", {
        idx: rng.normal(size=3) for idx in fm.increasing_indices(4, 2)}, box=CH.box)
    ss = fm.hodge_star(CH, fm.hodge_star(CH, f))
    worst = max(np.abs(ss.components(X0, J) - f.components(X0, J)).max()
                for J in fm.increasing_indices(4, 2))
    assert worst < 1e-10


def test_star_conformal_invariance_mid_degree():
    chart = fm.stereographic_chart()
    flat = fm.Chart(dim=4, box=chart.box, orientation=chart.orientation)
    rng = np.random.default_rng(19)
    f = constant_form(4, 2, "scalar", {
        idx: np.array(rng.normal()) for idx in fm.increasing_indices(4, 2)},
        box=chart.box)
    a = fm.hodge_star(chart, f)
    b = fm.hodge_star(flat, f)
    x = np.array([0.3, 0.1, -0.5, 0.9])
    worst = max(abs(float(a.components(x, J)) - float(b.components(x, J)))
                for J in fm.increasing_indices(4, 2))
    assert worst < 1e-10


def test_star_isometry_sum_of_squares():
    rng = np.random.default_rng(23)
    f = constant_form(4, 2, "algebra", {
        idx: rng.normal(size=3) for idx in fm.increasing_indices(4, 2)}, box=CH.box)
    top = fm.kappa_wedge_top(SU2, f, fm.hodge_star(CH, f))
    want = sum(float(f.components(X0, idx) @ f.components(X0, idx))
               for idx in fm.increasing_indices(4, 2))
    assert abs(top_coefficient(top, X0) - want) < 1e-10


def test_minkowski_star_flips_time_pairs():
    chm = fm.minkowski_chart()
    f = constant_form(4, 2, "scalar", {(0, 1): np.array(1.0)}, box=chm.box)
    s = fm.hodge_star(chm, f)
    assert abs(float(s.components(X0, (2, 3))) + 1.0) < 1e-14


def test_density_reads_each_field_strength_component_once(monkeypatch):
    # the star and the kappa wedge both read the field strength; the table
    # memo must leave one read of its batch per batch of points
    reads = []
    field_strength = gauge.local_field_strength

    def counted_field_strength(s):
        f = field_strength(s)

        def counted(X):
            reads.append(len(X))
            return f.table(X)

        return replace(f, batch=counted)

    monkeypatch.setattr(gauge, "local_field_strength", counted_field_strength)
    density = gauge.lagrangian_density(builtin_scenario("bpst").scenario)
    value = density(X0)
    assert np.isfinite(value) and value != 0.0
    assert reads == [1]
    assert np.isfinite(density(BATCH)).all()
    assert reads == [1, len(BATCH)]


# -- the table memo -------------------------------------------------------------

def _counted_form(calls, value=lambda X: X[:, :1] ** 2):
    """A scalar 1-form on the unit box whose batch records each batch it reads."""
    def batch(X):
        calls.append(X.copy())
        return np.repeat(value(X), 4, axis=1)
    return fm.LieForm(n=4, degree=1, value_target="scalar", value_shape=(),
                      batch=batch, box=CH.box)


def test_component_memo_is_keyed_by_point_content():
    calls = []
    f = _counted_form(calls)
    X = BATCH.copy()
    first = f.table(X)
    assert f.table(X.copy()) is first and len(calls) == 1
    # mutate the batch in place, as a caller reusing its buffer would
    X[0, 0] = -0.25
    assert f.table(X)[0, 0] == 0.0625
    assert first[0, 0] == BATCH[0, 0] ** 2
    assert len(calls) == 2
    # a batch of other shape is another key, even on the same coordinates
    f.table(X[:6])
    assert len(calls) == 3


def test_component_memo_values_are_read_only_and_wrapped_once():
    calls = []
    f = _counted_form(calls, value=lambda X: np.ones((len(X), 1)))
    table = f.table(BATCH)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 2.0
    assert np.all(f.table(BATCH) == 1.0) and len(calls) == 1
    # replace keeps the batch, and a derivative reads the analytic batch as it is
    d = lambda X: np.zeros((len(X), 6))
    g = replace(f, fd_step=1e-4, analytic_d=d)
    assert g.batch is f.batch and fm.exterior_derivative(g).batch is d
    # a components callable rebound after construction leaves the table alone
    f.components = lambda x, idx: np.array(2.0)
    assert np.all(f.table(BATCH[:3]) == 1.0)


def test_form_without_a_batch_is_refused():
    with pytest.raises(ValueError, match="needs a batch"):
        fm.LieForm(n=4, degree=1, value_target="scalar", value_shape=())
    with pytest.raises(ValueError, match="needs a batch"):
        replace(A_FORM, poly=None)
    # a polynomial form is its payload and has no batch to lose
    assert np.array_equal(replace(A_FORM, batch=None).table(BATCH), A_FORM.table(BATCH))


def test_a_polynomial_form_is_its_payload_alone():
    def zeros(X):
        return np.zeros((len(X), 4, 3))

    assert A_FORM.batch is None and A_FORM.analytic_d is None
    for stale in ({"batch": zeros}, {"analytic_d": zeros}):
        with pytest.raises(ValueError, match="a payload and no batch or analytic_d"):
            replace(A_FORM, **stale)
    batch_form = replace(A_FORM, poly=None, batch=zeros)
    assert np.array_equal(batch_form.table(BATCH), zeros(BATCH))


def test_components_adapter_stacks_the_closure_and_its_derivative():
    seen = []

    def comp(x, idx):
        seen.append(idx)
        return np.array([x[idx[0]] ** 2, 1.0])

    def dcomp(x, J):
        i, j = J
        return np.array([-2.0 * x[j] * (i == j), 0.0])  # d(x_k^2 dx^k) = 0

    f = fm.form_from_components(4, 1, "algebra", (2,), comp, d=dcomp, box=CH.box)
    table = f.table(BATCH)
    assert table.shape == (len(BATCH), 4, 2) and len(seen) == 4 * len(BATCH)
    np.testing.assert_array_equal(table[:, :, 0], BATCH ** 2)
    assert f.has_exact_d()
    np.testing.assert_array_equal(fm.exterior_derivative(f).table(BATCH), 0.0)
    plain = fm.form_from_components(4, 1, "algebra", (2,), comp, box=CH.box)
    assert not plain.has_exact_d()
    np.testing.assert_allclose(fm.exterior_derivative(plain).table(BATCH), 0.0, atol=1e-9)


# -- batched component tables -------------------------------------------------

BATCH = np.random.default_rng(11).uniform(-1.5, 1.5, size=(12, 4))


def _closure_2form():
    def comp(x, idx):
        return np.array([np.sin(x[idx[0]]) * x[idx[1]], np.exp(-float(x @ x)), 1.0])
    return fm.form_from_components(4, 2, "algebra", (3,), comp, box=CH.box)


def _curved_1form():
    """A 1-form like random-curved's potential, on four axes: a constant and
    a linear term on each component, so its products repeat monomials."""
    rng = np.random.default_rng(42)
    return poly_1form({k: [(rng.normal(size=3), np.zeros(4, dtype=int)),
                           (rng.normal(size=3), np.eye(4, dtype=int)[rng.integers(0, 4)])]
                       for k in range(4)})


TABLE_FORMS = {
    "polynomial": lambda: fm.exterior_derivative(A_FORM),
    "polynomial-scalar": lambda: fm.graded_product(
        fm.kappa_pairing(SU2), A_FORM, fm.exterior_derivative(A_FORM)),
    "merged-product": lambda: fm.graded_product(
        fm.bracket_pairing(SU2), _curved_1form(), _curved_1form()),
    "zero": lambda: fm.zero_form(4, 2, "algebra", (3,), box=CH.box),
    "constant": lambda: constant_form(4, 1, "algebra", {
        (k,): np.arange(3.0) + k for k in range(4)}),
    "bpst-central": lambda: bpst_central_form(),
    "bpst-potential": lambda: bpst_potential(),
    "scale": lambda: fm.scale_form(bpst_central_form(), -0.7),
    "add": lambda: fm.add_forms(bpst_central_form(), _closure_2form(), 0.3, -1.2),
    "kappa-product": lambda: fm.kappa_wedge_top(SU2, bpst_central_form(),
                                                _closure_2form()),
    "kappa-square": lambda: fm.kappa_wedge_top(SU2, bpst_central_form(),
                                               bpst_central_form()),
    "bracket-product": lambda: fm.graded_product(
        fm.bracket_pairing(SU2), bpst_potential(), bpst_central_form()),
    "potential-curvature": lambda: potential_curvature(SU2, bpst_potential()),
    "endo-compose": lambda: curvature(LabConnection.from_omega(SU2, bpst_potential())),
    "endo-action": lambda: cov_ext_deriv(
        LabConnection.from_omega(SU2, A_FORM), _closure_2form()),
    "endo-action-curved": lambda: fm.graded_product(
        fm.endo_action_pairing(SU2),
        LabConnection.from_omega(SU2, bpst_potential()).gamma, _closure_2form()),
    # a per-point closure, stacked by the adapter, and its stencil d
    "closure-fallback": _closure_2form,
    "stencil-d": lambda: fm.exterior_derivative(_closure_2form()),
    "star-euclidean": lambda: fm.hodge_star(CH, _closure_2form()),
    "star-round-sphere": lambda: fm.hodge_star(fm.stereographic_chart(), _closure_2form()),
}


@mark.parametrize("name", sorted(TABLE_FORMS))
def test_table_matches_stacked_per_point_components_bit_for_bit(name):
    # a row of a batch's table does not depend on the other rows
    form = TABLE_FORMS[name]()
    indices = fm.increasing_indices(form.n, form.degree)
    got = form.table(BATCH)
    want = np.array([[form.components(x, idx) for idx in indices] for x in BATCH])
    assert got.shape == (len(BATCH), len(indices)) + form.value_shape
    assert np.array_equal(got, want)


@mark.parametrize("name", sorted(KAPPA_WEDGES))
def test_kappa_wedge_batch_rows_match_one_row_reads(name):
    # the dense u(1)^3 kappa too: the contraction sums each row on its own
    algebra, f, g = KAPPA_WEDGES[name]()
    top = fm.kappa_wedge_top(algebra, f, g)
    got = top.table(BATCH)[:, 0]
    want = np.array([top.components(x, (0, 1, 2, 3)) for x in BATCH])
    assert np.array_equal(got, want)


def test_stencil_d_table_takes_the_one_sided_rule_at_the_box_edge():
    # rows 1 and 2 lie within the step of the box edge on axes 0, 1 and 3
    X = np.array([[0.3, -0.2, 0.1, 0.4], [1.0 - 4e-6, 0.2, -0.3, 0.5],
                  [0.1, -1.0 + 2e-6, 0.3, 1.0]])
    df = fm.exterior_derivative(_closure_2form())
    fm.drain_order_loss_events()
    got = df.table(X)
    table_events = fm.drain_order_loss_events()
    want = np.array([[df.components(x, J) for J in fm.increasing_indices(4, 3)] for x in X])
    point_events = fm.drain_order_loss_events()
    assert np.array_equal(got, want)
    # one event per row and axis, read over the batch or a row at a time
    assert point_events == table_events
    assert [(x, axis) for x, axis in table_events] == [
        (tuple(X[1]), 0), (tuple(X[2]), 1), (tuple(X[2]), 3)]


def test_scale_form_scales_the_batch_it_carries():
    zeta = bpst_central_form()
    tripled = fm.scale_form(zeta, 3.0)
    # dataclasses.replace would hand the scaled form zeta's own batch
    assert tripled.batch is not zeta.batch
    np.testing.assert_array_equal(tripled.table(BATCH), 3.0 * zeta.table(BATCH))


def test_replaced_batch_drops_the_old_table():
    zeta = bpst_central_form()
    zeta.table(BATCH)
    doubled = replace(zeta, batch=lambda X: 2.0 * zeta.table(X))
    np.testing.assert_array_equal(doubled.table(BATCH), 2.0 * zeta.table(BATCH))
    assert replace(zeta, fd_step=1e-4).batch is zeta.batch


def test_sum_and_product_build_their_derivatives_on_first_use(monkeypatch):
    built = Counter()
    derivative = fm.exterior_derivative

    def counted(f):
        built[f.degree] += 1
        return derivative(f)

    monkeypatch.setattr(fm, "exterior_derivative", counted)
    omega, zeta = bpst_potential(), bpst_central_form()
    product = fm.graded_product(fm.bracket_pairing(SU2), omega, zeta)
    total = fm.add_forms(zeta, fm.scale_form(zeta, 2.0))
    assert not built
    assert product.has_exact_d() and total.has_exact_d()
    np.testing.assert_allclose(total.analytic_d(BATCH), 3.0 * zeta.analytic_d(BATCH),
                               rtol=1e-15)
    assert built == {2: 2}
    assert product.analytic_d(BATCH).shape == (len(BATCH), 1, 3)
    assert built == {2: 3, 1: 1}


# -- one term per monomial ----------------------------------------------------

def test_poly_data_merges_the_terms_of_one_monomial_in_order():
    e1, e2 = np.array([1, 0, 0, 0]), np.array([0, 2, 0, 1])
    poly = fm.PolyData(4, 1, (3,), {
        (0,): [(np.array([1.0, 0.0, 0.0]), e1), (np.array([0.0, 2.0, 0.0]), e2),
               (np.array([0.5, 0.0, 1.0]), e1)],
        (1,): [(np.array([1.0, 2.0, 3.0]), e2), (np.array([-1.0, -2.0, -3.0]), e2)]})
    assert list(poly.terms) == [(0,)]
    (c1, x1), (c2, x2) = poly.terms[(0,)]
    assert np.array_equal(x1, e1) and np.array_equal(x2, e2)
    assert np.array_equal(c1, [1.5, 0.0, 1.0]) and np.array_equal(c2, [0.0, 2.0, 0.0])
    # x - x leaves no term
    assert fm.add_forms(A_FORM, A_FORM, 1.0, -1.0).poly.terms == {}


def test_poly_products_hold_one_term_per_monomial():
    omega = builtin_scenario("random-curved").omega
    square = fm.graded_product(fm.bracket_pairing(SU2), omega, omega).poly
    # the square on (i, j) pairs the terms of omega on i and on j, both ways
    terms = omega.poly.terms
    given = sum(2 * len(terms[(i,)]) * len(terms[(j,)]) for i, j in fm.increasing_indices(3, 2))
    assert sum(len(rows) for rows in square.terms.values()) < given
    for product in (square, fm.graded_product(fm.bracket_pairing(SU2), _curved_1form(),
                                              _curved_1form()).poly):
        for rows in product.terms.values():
            assert len({e.tobytes() for _, e in rows}) == len(rows)


@mark.parametrize("name", ["merged-product", "polynomial", "polynomial-scalar", "constant"])
def test_poly_table_matches_evaluate_bit_for_bit(name):
    poly = TABLE_FORMS[name]().poly
    want = np.array([[poly.evaluate(x, idx) for idx in fm.increasing_indices(4, poly.degree)]
                     for x in BATCH]).reshape((len(BATCH), -1) + poly.value_shape)
    assert np.array_equal(poly.table(BATCH), want)


# -- serialization and plans --------------------------------------------------

def test_poly_json_round_trip():
    blob = A_FORM.poly.to_json()
    back = fm.PolyData.from_json(4, (3,), blob)
    for idx in fm.increasing_indices(4, 1):
        np.testing.assert_allclose(back.evaluate(X0, idx),
                                   A_FORM.components(X0, idx), atol=0.0)


def test_sample_plan_determinism_and_modes():
    p = fm.SamplePlan(count=16, seed=7)
    pts1 = p.points(CH)
    pts2 = fm.SamplePlan(count=16, seed=7).points(CH)
    np.testing.assert_array_equal(pts1, pts2)
    assert pts1.shape == (16, 4)
    assert np.all(pts1 >= CH.box[:, 0]) and np.all(pts1 <= CH.box[:, 1])
    grid = fm.SamplePlan(mode="grid", count=16, seed=7).points(CH)
    assert grid.shape == (16, 4)
    with pytest.raises(ValueError):
        fm.SamplePlan(tangent_probes=1)
    with pytest.raises(ValueError):
        fm.SamplePlan(mode="sobol")
    for bad in (0, -5, 2.5, True):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            fm.SamplePlan(count=bad)
    for bad in (-1, -5, 2.5, "3", True):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            fm.SamplePlan(seed=bad)
    for bad in (1, 2.5, True):
        with pytest.raises(ValueError, match="tangent_probes must be an integer of at least 2"):
            fm.SamplePlan(tangent_probes=bad)
    assert fm.SamplePlan(seed=np.int64(0), tangent_probes=2).seed == 0


def test_a_grid_plan_of_k_to_the_n_points_is_the_k_to_the_n_grid():
    # 3125 ** (1 / 5) rounds to just above 5
    chart = fm.euclidean_chart(5)
    grid = fm.SamplePlan(mode="grid", count=3125).points(chart)
    margin = 1e-3 * chart.half_width()
    assert grid.shape == (3125, 5)
    for values in grid.T:
        np.testing.assert_allclose(np.unique(values),
                                   np.linspace(-1 + margin, 1 - margin, 5), rtol=0, atol=1e-15)


gap_entry = st.floats(allow_nan=True, allow_infinity=True)


@given(st.lists(st.lists(gap_entry, min_size=1, max_size=4), min_size=1,
                max_size=6))
@settings(max_examples=60, deadline=None)
def test_max_gap_is_the_largest_entry_or_nan(rows):
    gaps = [np.array(r) if len(r) > 1 else r[0] for r in rows]
    flat = [v for r in rows for v in r]
    got = fm.max_gap(gaps)
    assert type(got) is float
    if all(np.isfinite(flat)):
        assert got == max(abs(v) for v in flat)
    else:  # NaN or +-Inf anywhere, in any position, fails the check
        assert np.isnan(got)


def test_max_gap_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="sampled nothing"):
        fm.max_gap([])
    with pytest.raises(ValueError, match="sampled nothing"):
        fm.max_gap(x for x in ())
    with pytest.raises(ValueError, match="sampled nothing"):
        fm.max_gap([np.zeros(0), np.zeros((2, 0))])
    # an empty gap array adds no entry to the others
    assert fm.max_gap([np.zeros(0), np.array([-2.0, 1.0])]) == 2.0


@given(st.lists(st.lists(gap_entry, min_size=6, max_size=6), min_size=1,
                max_size=5))
@settings(max_examples=60, deadline=None)
def test_max_gap_rows_is_max_gap_of_each_row(rows):
    table = np.array(rows).reshape(len(rows), 2, 3)
    got = fm.max_gap_rows(table)
    assert got.shape == (len(rows),)
    for value, row in zip(got, rows):
        if all(np.isfinite(row)):
            assert value == max(abs(v) for v in row)
        else:  # NaN, +Inf or -Inf anywhere in the row
            assert np.isnan(value)
    # NaN only in the rows that hold a non-finite entry, and max_gap of the
    # rows is max_gap over the whole table
    assert np.array_equal(np.isnan(got), ~np.isfinite(table).all(axis=(1, 2)))
    assert np.array_equal(fm.max_gap(got), fm.max_gap(table.ravel()),
                          equal_nan=True)


def test_max_gap_rows_marks_each_non_finite_row():
    table = np.array([[1.0, -3.0], [np.nan, 0.0], [2.0, np.inf],
                      [-np.inf, 5.0], [0.5, -0.25]])
    got = fm.max_gap_rows(table)
    assert np.array_equal(got, [3.0, np.nan, np.nan, np.nan, 0.5], equal_nan=True)


def test_max_gap_rows_refuses_a_table_with_no_rows():
    with pytest.raises(ValueError, match="sampled nothing"):
        fm.max_gap_rows(np.zeros((0, 3, 3)))


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=6, deadline=None)
def test_seeded_plans_differ_across_seeds(seed):
    a = fm.SamplePlan(count=8, seed=seed).points(CH)
    b = fm.SamplePlan(count=8, seed=seed + 1).points(CH)
    assert not np.allclose(a, b)


def test_chart_validation():
    with pytest.raises(ValueError):
        fm.Chart(dim=2, box=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError):
        fm.Chart(dim=2, box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), orientation=0)
    with pytest.raises(ValueError):
        fm.Chart(dim=2, box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
                 metric=lambda x: np.eye(2))  # needs metric_kind="custom"
