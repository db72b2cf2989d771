"""Trivialized principal bundle carrying a structural group bundle.

The bundle is chart x G with two pieces of connection data: the structural
horizontal data omega (shared with the group bundle) and the gauge field in
the identity gauge. Fibre tangents are body coordinates, as in the group
bundle layer. Every transformation law is evaluated along two independent
routes (direct differentiation vs the closed-form right-hand side) and the
disagreement is surfaced as a residual.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .algebra import (GroupElement, LieAlgebraDescriptor, ad_matrix_c,
                      ad_matrix_of_group, expand_in_rep)
from .forms import (LieForm, SamplePlan, add_forms, bracket_pairing,
                    endo_action_pairing, eval_form, exterior_derivative,
                    graded_product, max_gap, max_gap_of, scale_form)
from .lgb import (GSection, TotalPoint, TotalTangent, TrivLgb, darboux,
                  dexp_body, group_sample, induced_connection, one_form_on)

__all__ = [
    "TrivPrincipal", "Automorphism", "connection_one_form",
    "modified_pushforward", "pushforward_matrix", "pushforward_via_section",
    "action_differential_residual", "section_independence_residual",
    "TotalFieldStrength",
    "total_field_strength", "GaugeTransformResult", "gauge_transform_total",
    "equivariance_residual", "kernel_invariance_residual",
    "projection_commutation_residual", "mixed_bracket_residual",
    "field_strength_type_residual",
]


@dataclass
class TrivPrincipal:
    lgb: TrivLgb
    a_local: LieForm  # gauge field in the gauge x -> (x, identity)

    def __post_init__(self):
        if self.a_local.degree != 1 or self.a_local.value_target != "algebra":
            raise ValueError("the gauge field must be an algebra-valued 1-form")

    @property
    def algebra(self) -> LieAlgebraDescriptor:
        return self.lgb.algebra

    @property
    def chart(self):
        return self.lgb.chart


@dataclass
class Automorphism:
    """Bundle automorphism acting by a left multiplier: (x, h) -> (x, tau(x) h)."""

    tau: GSection

    def sigma_conj(self, x, h: GroupElement) -> GroupElement:
        """The conjugation section h^{-1} tau(x) h attached to the automorphism."""
        return GroupElement(h.algebra, h.matrix.conj().T @ self.tau(x) @ h.matrix)


def _dexp_matrix(alg: LieAlgebraDescriptor, v: np.ndarray) -> np.ndarray:
    """Matrix mapping fibre-coordinate velocities at exp(v) to body velocities."""
    return np.column_stack([dexp_body(alg, v, e) for e in np.eye(alg.dim)])


def _body_stencil4(alg: LieAlgebraDescriptor, curve, h: float = 1e-3) -> np.ndarray:
    """Body velocity of a matrix-valued curve at s=0, fourth-order stencil."""
    m0_inv = np.linalg.inv(curve(0.0))
    dm = (curve(-2 * h) - 8 * curve(-h) + 8 * curve(h) - curve(2 * h)) / (12 * h)
    coeffs, _ = expand_in_rep(alg, m0_inv @ dm)
    return coeffs


# ---------------------------------------------------------------------------
# connection 1-form and the modified pushforward
# ---------------------------------------------------------------------------

def connection_one_form(p: TrivPrincipal, pt: TotalPoint, t: TotalTangent) -> np.ndarray:
    """V + Ad_{h^{-1}}(A(X)) + (Ad_{h^{-1}} - id)(omega(X)) in body coordinates.

    Identity on vertical tangents; its kernel at h = identity is the graph
    of -A over the base directions. The omega defect term is what makes the
    form equivariant under the modified pushforward.
    """
    ad_inv = ad_matrix_of_group(p.algebra, pt.g.matrix.conj().T)
    a = one_form_on(p.a_local, pt.x, t.X)
    w = one_form_on(p.lgb.omega, pt.x, t.X)
    return t.eta + ad_inv @ a + (ad_inv @ w - w)


def pushforward_matrix(p: TrivPrincipal, x, g: GroupElement) -> np.ndarray:
    """Matrix of the modified right-pushforward on (X, V) body blocks."""
    alg = p.algebra
    n = p.chart.dim
    ad_inv = ad_matrix_of_group(alg, g.matrix.conj().T)
    out = np.zeros((n + alg.dim, n + alg.dim))
    out[:n, :n] = np.eye(n)
    out[n:, n:] = ad_inv
    for k in range(n):
        w = p.lgb.omega.components(np.asarray(x, dtype=float), (k,))
        out[n:, k] = -(ad_inv @ w - w)
    return out


def pushforward_via_section(p: TrivPrincipal, sigma: GSection, pt: TotalPoint,
                            t: TotalTangent) -> TotalTangent:
    """Defining route: differentiate right translation by the section, then
    subtract the fundamental vector of the section's logarithmic derivative."""
    alg = p.algebra
    x = pt.x
    h_step = p.chart.default_step()

    def curve(s):
        step = x + s * t.X
        return (pt.g.matrix @ expm(s * alg.rep_of(t.eta))) @ sigma(step)

    body_dr = _body_stencil4(alg, curve, h=h_step)
    ds = darboux(p.lgb, sigma)
    return TotalTangent(X=t.X.copy(), eta=body_dr - one_form_on(ds, x, t.X))


def modified_pushforward(p: TrivPrincipal, g: GroupElement, pt: TotalPoint,
                         t: TotalTangent) -> TotalTangent:
    """(X, Ad_{g^{-1}}(V) - (Ad_{g^{-1}} - id)(omega(X))) at the translated point.

    The closed form of the defining section route; the two are compared by
    `section_independence_residual`.
    """
    alg = p.algebra
    ad_inv = ad_matrix_of_group(alg, g.matrix.conj().T)
    w = one_form_on(p.lgb.omega, pt.x, t.X)
    return TotalTangent(X=np.asarray(t.X, dtype=float).copy(),
                        eta=ad_inv @ t.eta - (ad_inv @ w - w))


@max_gap_of
def section_independence_residual(p: TrivPrincipal, plan) -> float:
    """Two sections through the same multiplier must induce the same
    pushforward, and both must agree with the closed form."""
    alg = p.algebra
    n = p.chart.dim
    rng = plan.rng()
    for x in plan.points(p.chart):
        g = group_sample(alg, rng)
        pt = TotalPoint(np.asarray(x, dtype=float), alg.group_identity())
        const = GSection.constant(g)
        slope = 0.2 * np.arange(1, alg.dim + 1)
        weights = np.ones(n) / n

        def tilted_fn(y, x0=np.asarray(x, dtype=float), gg=g):
            c = slope * float((y - x0) @ weights)
            return GroupElement(alg, expm(alg.rep_of(c))) @ gg

        tilted = GSection(alg, tilted_fn, name="tilted")
        for _ in range(plan.tangent_probes):
            t = TotalTangent(rng.normal(size=n), rng.normal(size=alg.dim))
            via_const = pushforward_via_section(p, const, pt, t)
            via_tilted = pushforward_via_section(p, tilted, pt, t)
            closed = modified_pushforward(p, g, pt, t)
            yield via_const.X - via_tilted.X
            yield via_const.eta - via_tilted.eta
            yield via_const.eta - closed.eta


@max_gap_of
def action_differential_residual(p: TrivPrincipal, plan: SamplePlan,
                                 group_scale: float = 1.0) -> float:
    """Differential of the fibrewise action, direct stencil vs assembled law.

    Direct: body velocity of s -> h(s) g(s) for matched curves. Assembled:
    derivative of right translation by a section through g plus the vertical
    (body) part of the group-side tangent relative to that section.
    """
    alg = p.algebra
    n = p.chart.dim
    rng = plan.rng()
    for x in plan.points(p.chart):
        h = group_sample(alg, rng, group_scale)
        g = group_sample(alg, rng, group_scale)
        for _ in range(plan.tangent_probes):
            X = rng.normal(size=n)
            V = rng.normal(size=alg.dim)
            W = rng.normal(size=alg.dim)

            def direct_curve(s):
                return (h.matrix @ expm(s * alg.rep_of(V))) @ (
                    g.matrix @ expm(s * alg.rep_of(W)))

            direct = _body_stencil4(alg, direct_curve)

            # section through g with linear body slope, matched to W at x
            def sec_fn(y, x0=x, g0=g):
                c = (y - x0) @ np.outer(np.full(n, 1.0 / n), W)
                return GroupElement(alg, expm(alg.rep_of(c))) @ g0

            sigma = GSection(alg, sec_fn, name="matched")

            def rsigma_curve(s):
                y = x + s * X
                return (h.matrix @ expm(s * alg.rep_of(V))) @ sigma(y)

            d_rsigma = _body_stencil4(alg, rsigma_curve)
            body_dsigma = _body_stencil4(alg, lambda s: sigma(x + s * X))
            assembled = d_rsigma + (W - body_dsigma)
            yield direct - assembled


# ---------------------------------------------------------------------------
# total-space field strength
# ---------------------------------------------------------------------------

class TotalFieldStrength:
    """Field strength evaluated in product coordinates (u, v) anchored at a
    point (x0, h0); tangents are coordinate vectors at the origin, where the
    fibre coordinate frame coincides with body coordinates."""

    def __init__(self, p: TrivPrincipal, zeta: LieForm, x0, h0: GroupElement):
        alg = p.algebra
        n = p.chart.dim
        d = alg.dim
        self.p = p
        # the closures below read x0, not self: a cycle through self would
        # keep every field strength and its memoised values alive until the
        # cyclic collector runs
        self.x0 = x0 = np.asarray(x0, dtype=float)
        self.h0 = h0
        self.n = n
        self.d = d
        h0m = h0.matrix

        def a_comp(uv, idx):
            i = idx[0]
            v = uv[n:]
            if i >= n:
                return dexp_body(alg, v, np.eye(d)[i - n])
            x = x0 + uv[:n]
            ad_inv = ad_matrix_of_group(alg, (h0m @ expm(alg.rep_of(v))).conj().T)
            a = p.a_local.components(x, (i,))
            w = p.lgb.omega.components(x, (i,))
            return ad_inv @ a + (ad_inv @ w - w)

        def gamma_comp(uv, idx):
            i = idx[0]
            if i >= n:
                return np.zeros((d, d))
            return ad_matrix_c(alg, p.lgb.omega.components(x0 + uv[:n], (i,)))

        def zeta_comp(uv, idx):
            i, j = idx
            if j >= n:
                return np.zeros(d)
            return zeta.components(x0 + uv[:n], (i, j))

        a_tot = LieForm(n=n + d, degree=1, value_target="algebra",
                        value_shape=(d,), components=a_comp, fd_step=1e-5)
        gam = LieForm(n=n + d, degree=1, value_target="endomorphism",
                      value_shape=(d, d), components=gamma_comp, fd_step=1e-5)
        zeta_tot = LieForm(n=n + d, degree=2, value_target="algebra",
                           value_shape=(d,), components=zeta_comp, fd_step=1e-5)
        self._a_tot = a_tot
        self._zeta_tot = zeta_tot
        self._cov_da = add_forms(exterior_derivative(a_tot),
                                 graded_product(endo_action_pairing(alg), gam, a_tot))
        self._full = add_forms(
            add_forms(self._cov_da,
                      scale_form(graded_product(bracket_pairing(alg), a_tot, a_tot), 0.5)),
            zeta_tot)
        self._origin = np.zeros(n + d)

    def connection_value(self, t) -> np.ndarray:
        return eval_form(self._a_tot, self._origin, [np.asarray(t, dtype=float)])

    def horizontal_project(self, t) -> np.ndarray:
        """Drop the vertical (body) component singled out by the connection form."""
        t = np.asarray(t, dtype=float)
        out = t.copy()
        out[self.n:] -= self.connection_value(t)
        return out

    def evaluate(self, t1, t2) -> np.ndarray:
        return eval_form(self._full, self._origin,
                         [np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)])

    def structure_route(self, t1, t2) -> np.ndarray:
        """Covariant differential on horizontal projections plus the pulled-back
        central term — the structure-equation right-hand side."""
        h1 = self.horizontal_project(t1)
        h2 = self.horizontal_project(t2)
        val = eval_form(self._cov_da, self._origin, [h1, h2])
        return val + eval_form(self._zeta_tot, self._origin,
                               [np.asarray(t1, dtype=float),
                                np.asarray(t2, dtype=float)])

    @max_gap_of
    def structure_residual(self, probes: int = 6, seed: int = 0) -> float:
        rng = np.random.default_rng(seed)
        for _ in range(probes):
            t1 = rng.normal(size=self.n + self.d)
            t2 = rng.normal(size=self.n + self.d)
            yield self.evaluate(t1, t2) - self.structure_route(t1, t2)


def total_field_strength(p: TrivPrincipal, zeta: LieForm, x0,
                         h0: GroupElement = None) -> TotalFieldStrength:
    if h0 is None:
        h0 = p.algebra.group_identity()
    return TotalFieldStrength(p, zeta, x0, h0)


# ---------------------------------------------------------------------------
# gauge transformations by automorphisms
# ---------------------------------------------------------------------------

@dataclass
class GaugeTransformResult:
    a_local_new: LieForm
    residual_a: float
    residual_f: float


def _sigma_conj_body_derivative(p: TrivPrincipal, aut: Automorphism,
                                x, h: GroupElement, X, V) -> np.ndarray:
    """Body derivative of the conjugation section along the curve
    s -> (x + sX, h exp(sV))."""
    alg = p.algebra

    def curve(s):
        hs = h.matrix @ expm(s * alg.rep_of(V))
        return np.linalg.inv(hs) @ aut.tau(x + s * X) @ hs

    return _body_stencil4(alg, curve)


def gauge_transform_total(p: TrivPrincipal, aut: Automorphism, zeta: LieForm,
                          plan: SamplePlan, group_scale: float = 1.0):
    """Pull the connection form and field strength back through the automorphism.

    Route one differentiates the automorphism directly; route two assembles
    the transformation law through the conjugation section (adjoint twist of
    the form plus the section's pulled-back logarithmic derivative). The
    maxima of the two disagreements are returned together with the
    transformed identity-gauge field.
    """
    alg = p.algebra
    n = p.chart.dim
    rng = plan.rng()
    h_step = p.chart.default_step()

    def direct_pullback_a(x, h: GroupElement, X, V):
        body_dtau = np.zeros(alg.dim)
        for k in range(n):
            if X[k] != 0.0:
                body_dtau += X[k] * aut.tau.body_derivative(x, k, h_step)
        ad_h_inv = ad_matrix_of_group(alg, h.matrix.conj().T)
        image_pt = TotalPoint(x, GroupElement(alg, aut.tau(x) @ h.matrix))
        image_t = TotalTangent(X, V + ad_h_inv @ body_dtau)
        return connection_one_form(p, image_pt, image_t)

    def formula_pullback_a(x, h: GroupElement, X, V):
        sig = aut.sigma_conj(x, h)
        ad_sig_inv = ad_matrix_of_group(alg, sig.matrix.conj().T)
        base = connection_one_form(p, TotalPoint(x, h), TotalTangent(X, V))
        dsig = _sigma_conj_body_derivative(p, aut, x, h, X, V)
        w = one_form_on(p.lgb.omega, x, X)
        return ad_sig_inv @ base + dsig + (ad_sig_inv @ w - w)

    gaps_a, gaps_f = [], []
    for x in plan.points(p.chart):
        h = group_sample(alg, rng, group_scale)
        fs_here = total_field_strength(p, zeta, x, h)
        fs_image = total_field_strength(p, zeta, x, GroupElement(alg, aut.tau(x) @ h.matrix))
        ad_h_inv = ad_matrix_of_group(alg, h.matrix.conj().T)
        sig = aut.sigma_conj(x, h)
        ad_sig_inv = ad_matrix_of_group(alg, sig.matrix.conj().T)
        body_dtau = [aut.tau.body_derivative(x, k, h_step) for k in range(n)]
        for _ in range(plan.tangent_probes):
            X = rng.normal(size=n)
            V = rng.normal(size=alg.dim)
            direct = direct_pullback_a(x, h, X, V)
            gaps_a.append(direct - formula_pullback_a(x, h, X, V))

            t1 = rng.normal(size=n + alg.dim)
            t2 = rng.normal(size=n + alg.dim)

            def push_through_h(t):
                out = t.copy()
                shift = np.zeros(alg.dim)
                for k in range(n):
                    if t[k] != 0.0:
                        shift += t[k] * body_dtau[k]
                out[n:] = t[n:] + ad_h_inv @ shift
                return out

            lhs = fs_image.evaluate(push_through_h(t1), push_through_h(t2))
            gaps_f.append(lhs - ad_sig_inv @ fs_here.evaluate(t1, t2))

    def new_a_comp(x, idx):
        k = idx[0]
        X = np.eye(n)[k]
        return direct_pullback_a(np.asarray(x, dtype=float),
                                 alg.group_identity(), X, np.zeros(alg.dim))

    a_new = LieForm(n=n, degree=1, value_target="algebra",
                    value_shape=(alg.dim,), components=new_a_comp,
                    fd_step=10 * h_step, box=p.chart.box)
    return GaugeTransformResult(a_local_new=a_new, residual_a=max_gap(gaps_a),
                                residual_f=max_gap(gaps_f))


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

@max_gap_of
def equivariance_residual(p: TrivPrincipal, plan: SamplePlan,
                          group_scale: float = 1.0) -> float:
    """Pullback of the connection form along the modified pushforward must be
    its adjoint twist: A(r-hat(t)) = Ad_{g^{-1}} A(t)."""
    alg = p.algebra
    rng = plan.rng()
    for x in plan.points(p.chart):
        g = group_sample(alg, rng, group_scale)
        h = group_sample(alg, rng, group_scale)
        ad_g_inv = ad_matrix_of_group(alg, g.matrix.conj().T)
        pt = TotalPoint(x, h)
        for _ in range(plan.tangent_probes):
            t = TotalTangent(rng.normal(size=p.chart.dim), rng.normal(size=alg.dim))
            pushed = modified_pushforward(p, g, pt, t)
            lhs = connection_one_form(p, TotalPoint(x, h @ g), pushed)
            yield lhs - ad_g_inv @ connection_one_form(p, pt, t)


@max_gap_of
def kernel_invariance_residual(p: TrivPrincipal, plan: SamplePlan,
                               group_scale: float = 1.0) -> float:
    """The pushforward must map the connection kernel into itself."""
    alg = p.algebra
    n = p.chart.dim
    rng = plan.rng()
    for x in plan.points(p.chart):
        g = group_sample(alg, rng, group_scale)
        h = group_sample(alg, rng, group_scale)
        pt = TotalPoint(x, h)
        for k in range(n):
            X = np.eye(n)[k]
            probe = TotalTangent(X, np.zeros(alg.dim))
            ker = TotalTangent(X, -connection_one_form(p, pt, probe))
            pushed = modified_pushforward(p, g, pt, ker)
            yield connection_one_form(p, TotalPoint(x, h @ g), pushed)


@max_gap_of
def projection_commutation_residual(p: TrivPrincipal, plan: SamplePlan,
                                    group_scale: float = 1.0) -> float:
    """Horizontal/vertical projectors commute with the modified pushforward."""
    alg = p.algebra
    rng = plan.rng()

    def vert(pt, t):
        return TotalTangent(np.zeros_like(t.X), connection_one_form(p, pt, t))

    def horiz(pt, t):
        v = vert(pt, t)
        return TotalTangent(t.X - v.X, t.eta - v.eta)

    for x in plan.points(p.chart):
        g = group_sample(alg, rng, group_scale)
        h = group_sample(alg, rng, group_scale)
        pt = TotalPoint(x, h)
        pt_img = TotalPoint(x, h @ g)
        for _ in range(plan.tangent_probes):
            t = TotalTangent(rng.normal(size=p.chart.dim), rng.normal(size=alg.dim))
            for proj in (vert, horiz):
                a = modified_pushforward(p, g, pt, proj(pt, t))
                b = proj(pt_img, modified_pushforward(p, g, pt, t))
                yield a.eta - b.eta
                yield a.X - b.X


@max_gap_of
def mixed_bracket_residual(p: TrivPrincipal, nu: LieForm, plan: SamplePlan,
                           fd_step: float = 1e-5) -> float:
    """Connection form applied to the bracket of a horizontal lift with a
    fundamental field equals the fibre covariant derivative of the generator.

    The bracket is taken with coordinate stencils in the product
    parametrization (u, v); fibre coordinate frames are converted to body
    coordinates through the exponential differential.
    """
    alg = p.algebra
    n = p.chart.dim
    d = alg.dim
    rng = plan.rng()
    for x0 in plan.points(p.chart):
        h0 = group_sample(alg, rng)
        X = rng.normal(size=n)

        def lift_field(uv):
            x = x0 + uv[:n]
            v = uv[n:]
            hm = h0.matrix @ expm(alg.rep_of(v))
            ad_inv = ad_matrix_of_group(alg, hm.conj().T)
            a, w = one_form_on(p.a_local, x, X), one_form_on(p.lgb.omega, x, X)
            body = -(ad_inv @ a + (ad_inv @ w - w))
            out = np.zeros(n + d)
            out[:n] = X
            out[n:] = np.linalg.solve(_dexp_matrix(alg, v), body)
            return out

        def fund_field(uv):
            x = x0 + uv[:n]
            v = uv[n:]
            body = nu.components(x, ())
            out = np.zeros(n + d)
            out[n:] = np.linalg.solve(_dexp_matrix(alg, v), body)
            return out

        origin = np.zeros(n + d)
        jl = np.zeros((n + d, n + d))
        jf = np.zeros((n + d, n + d))
        for k in range(n + d):
            step = np.zeros(n + d)
            step[k] = fd_step
            jl[:, k] = (lift_field(step) - lift_field(-step)) / (2 * fd_step)
            jf[:, k] = (fund_field(step) - fund_field(-step)) / (2 * fd_step)
        lv = lift_field(origin)
        fv = fund_field(origin)
        bracket = jf @ lv - jl @ fv

        pt = TotalPoint(x0, h0)
        got = connection_one_form(p, pt, TotalTangent(bracket[:n], bracket[n:]))
        yield got - X @ induced_connection(p.lgb, nu, x0[None])[0]


@max_gap_of
def field_strength_type_residual(p: TrivPrincipal, zeta: LieForm,
                                 plan: SamplePlan, group_scale: float = 1.0) -> float:
    """Adjoint type of the field strength under the modified pushforward:
    F(r-hat t1, r-hat t2) = Ad_{g^{-1}} F(t1, t2)."""
    alg = p.algebra
    n = p.chart.dim
    rng = plan.rng()
    for x in plan.points(p.chart):
        g = group_sample(alg, rng, group_scale)
        h = alg.group_identity()
        mat = pushforward_matrix(p, x, g)
        ad_g_inv = ad_matrix_of_group(alg, g.matrix.conj().T)
        fs_here = total_field_strength(p, zeta, x, h)
        fs_image = total_field_strength(p, zeta, x, h @ g)
        for _ in range(plan.tangent_probes):
            t1 = rng.normal(size=n + alg.dim)
            t2 = rng.normal(size=n + alg.dim)
            lhs = fs_image.evaluate(mat @ t1, mat @ t2)
            yield lhs - ad_g_inv @ fs_here.evaluate(t1, t2)
