"""Trivialized principal bundle carrying a structural group bundle.

The bundle is chart x G with two pieces of connection data: the structural
horizontal data omega (shared with the group bundle) and the gauge field in
the identity gauge. Fibre tangents are body coordinates, as in the group
bundle layer. Every transformation law is evaluated along two independent
routes (direct differentiation vs the closed-form right-hand side) and the
disagreement is surfaced as a residual, at every point of a sample plan at
once: the laws act on stacks of points, group matrices and tangents.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (LieAlgebraDescriptor, ad_matrix_of_group, dagger,
                      expand_in_rep, expm)
from .forms import LieForm, SamplePlan, increasing_indices, max_gap_rows
from .lgb import (GSection, TotalPoint, TotalTangent, TrivLgb, _act,
                  _base_pairs, _darboux_rows, _point_draws, _table_at, base_rows,
                  dexp_body, induced_connection, one_form_on,
                  product_curvature)

__all__ = [
    "TrivPrincipal", "Automorphism", "connection_one_form",
    "modified_pushforward", "pushforward_matrix", "pushforward_via_section",
    "action_differential_rows", "section_independence_rows",
    "TotalFieldStrength", "total_field_strength", "structure_equation_rows",
    "GaugeTransformResult", "gauge_transform_total", "equivariance_rows",
    "kernel_invariance_rows", "projection_commutation_rows",
    "mixed_bracket_rows", "field_strength_type_rows",
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

    def sigma_conj(self, x, h) -> np.ndarray:
        """The conjugation section h^{-1} tau(x) h attached to the
        automorphism, for (..., n) points and (..., r, r) matrices h."""
        return dagger(h) @ self.tau(x) @ h


_STENCIL4 = np.array([0.0, -2.0, -1.0, 1.0, 2.0])


def _body_stencil4(alg: LieAlgebraDescriptor, curve, lead: int, h: float = 1e-3) -> np.ndarray:
    """Body velocity at s = 0 of a stack of matrix-valued curves, by the
    fourth-order stencil: curve(s) maps the (5, 1, ..., 1) stack of s, with
    `lead` unit axes, to its (5, ..., r, r) matrices."""
    m = curve((h * _STENCIL4).reshape((5,) + (1,) * lead))
    dm = (m[1] - 8 * m[2] + 8 * m[3] - m[4]) / (12 * h)
    return expand_in_rep(alg, np.linalg.inv(m[0]) @ dm)[0]


def _exp_rep(alg: LieAlgebraDescriptor, s, coeffs) -> np.ndarray:
    """exp(s X) for the (..., dim) coefficients of X, s broadcast."""
    return expm(s[..., None, None] * alg.rep_of(coeffs))


def _groups(alg: LieAlgebraDescriptor, coeffs) -> np.ndarray:
    """The (groups, P, r, r) matrices of (P, groups, dim) drawn coefficients."""
    return np.moveaxis(expm(alg.rep_of(coeffs)), 1, 0)


def _sample(p: TrivPrincipal, plan: SamplePlan, groups: int, width: int,
            scale: float = 1.0):
    """The plan's points as (P, 1, n), the `groups` group matrices of each
    point as (groups, P, 1, r, r) and its tangent probes (P, probes, width),
    drawn by `_point_draws`."""
    x = plan.points(p.chart)
    coeffs, probes = _point_draws(plan, len(x), p.algebra.dim, groups, width, scale=scale)
    return x[:, None, :], _groups(p.algebra, coeffs)[:, :, None], probes


# ---------------------------------------------------------------------------
# connection 1-form and the modified pushforward
# ---------------------------------------------------------------------------
#
# These act on stacks: the leading axes of the points, group matrices and
# tangents broadcast.

def connection_one_form(p: TrivPrincipal, pt: TotalPoint, t: TotalTangent) -> np.ndarray:
    """V + Ad_{h^{-1}}(A(X)) + (Ad_{h^{-1}} - id)(omega(X)) in body coordinates.

    Identity on vertical tangents; its kernel at h = identity is the graph
    of -A over the base directions. The omega defect term is what makes the
    form equivariant under the modified pushforward.
    """
    ad_inv = ad_matrix_of_group(p.algebra, dagger(pt.g))
    a = one_form_on(p.a_local, pt.x, t.X)
    w = one_form_on(p.lgb.omega, pt.x, t.X)
    return t.eta + _act(ad_inv, a) + (_act(ad_inv, w) - w)


def pushforward_matrix(p: TrivPrincipal, x, g) -> np.ndarray:
    """Matrix of the modified right-pushforward on (X, V) body blocks, at
    (..., n) points x for (..., r, r) matrices g: (..., n + dim, n + dim)."""
    n = p.chart.dim
    ad_inv = ad_matrix_of_group(p.algebra, dagger(g))
    out = np.zeros(ad_inv.shape[:-2] + (n + p.algebra.dim,) * 2)
    out[..., :n, :n] = np.eye(n)
    out[..., n:, n:] = ad_inv
    out[..., n:, :n] = -np.swapaxes(base_rows(p.lgb, x, g), -1, -2)
    return out


def pushforward_via_section(p: TrivPrincipal, sigma, pt: TotalPoint,
                            t: TotalTangent) -> TotalTangent:
    """Defining route: differentiate right translation by the section, then
    subtract the fundamental vector of the section's logarithmic derivative.
    `sigma` maps (..., n) points to (..., r, r) matrices, as a `GSection`
    does, broadcast against the leading axes of pt."""
    alg, x = p.algebra, np.asarray(pt.x, dtype=float)
    h_step = p.chart.default_step()

    def curve(s):
        return (pt.g @ _exp_rep(alg, s, t.eta)) @ sigma(x + s[..., None] * t.X)

    body_dr = _body_stencil4(alg, curve, np.ndim(t.X) - 1, h=h_step)
    ds = _darboux_rows(p.lgb, x, h_step, sigma, "section")
    return TotalTangent(X=np.array(t.X, dtype=float),
                        eta=body_dr - sum(t.X[..., k, None] * ds[k] for k in range(len(ds))))


def modified_pushforward(p: TrivPrincipal, g, pt: TotalPoint,
                         t: TotalTangent) -> TotalTangent:
    """(X, Ad_{g^{-1}}(V) - (Ad_{g^{-1}} - id)(omega(X))) at the translated point.

    The closed form of the defining section route; the two are compared by
    `section_independence_rows`.
    """
    ad_inv = ad_matrix_of_group(p.algebra, dagger(g))
    w = one_form_on(p.lgb.omega, pt.x, t.X)
    return TotalTangent(X=np.array(t.X, dtype=float),
                        eta=_act(ad_inv, t.eta) - (_act(ad_inv, w) - w))


# ---------------------------------------------------------------------------
# checks over a plan: point i draws its group elements and tangent probes
# from default_rng([plan.seed, i]) and gives row i of a (P,) residual array
# ---------------------------------------------------------------------------

def section_independence_rows(p: TrivPrincipal, plan: SamplePlan) -> np.ndarray:
    """Two sections through the same multiplier must induce the same
    pushforward, and both must agree with the closed form."""
    alg, n, d = p.algebra, p.chart.dim, p.algebra.dim
    x, (g,), probes = _sample(p, plan, 1, n + d)
    pt = TotalPoint(x, np.broadcast_to(np.eye(alg.rep_dim), g.shape))
    t = TotalTangent(*np.split(probes, [n], axis=-1))
    slope = 0.2 * np.arange(1, d + 1)

    def const(Y):
        return np.broadcast_to(g, Y.shape[:-1] + g.shape[-2:])

    def tilted(Y):
        return expm(alg.rep_of(slope * ((Y - x) @ np.full(n, 1.0 / n))[..., None])) @ g

    via_const, via_tilted = (pushforward_via_section(p, s, pt, t) for s in (const, tilted))
    closed = modified_pushforward(p, g, pt, t)
    return max_gap_rows(np.concatenate([via_const.X - via_tilted.X,
                                        via_const.eta - via_tilted.eta,
                                        via_const.eta - closed.eta], axis=-1))


def action_differential_rows(p: TrivPrincipal, plan: SamplePlan,
                             group_scale: float = 1.0) -> np.ndarray:
    """Differential of the fibrewise action, direct stencil vs assembled law.

    Direct: body velocity of s -> h(s) g(s) for matched curves. Assembled:
    derivative of right translation by a section through g plus the vertical
    (body) part of the group-side tangent relative to that section.
    """
    alg, n, d = p.algebra, p.chart.dim, p.algebra.dim
    x, (h, g), probes = _sample(p, plan, 2, n + 2 * d, group_scale)
    X, V, W = np.split(probes, [n, n + d], axis=-1)

    def sigma(Y):  # section through g with linear body slope, matched to W at x
        return expm(alg.rep_of(((Y - x) @ np.full(n, 1.0 / n))[..., None] * W)) @ g

    direct = _body_stencil4(alg, lambda s: (h @ _exp_rep(alg, s, V)) @ (
        g @ _exp_rep(alg, s, W)), 2)
    d_rsigma = _body_stencil4(alg, lambda s: (h @ _exp_rep(alg, s, V)) @ sigma(
        x + s[..., None] * X), 2)
    body_dsigma = _body_stencil4(alg, lambda s: sigma(x + s[..., None] * X), 2)
    return max_gap_rows(direct - (d_rsigma + (W - body_dsigma)))


def equivariance_rows(p: TrivPrincipal, plan: SamplePlan,
                      group_scale: float = 1.0) -> np.ndarray:
    """Pullback of the connection form along the modified pushforward must be
    its adjoint twist: A(r-hat(t)) = Ad_{g^{-1}} A(t)."""
    alg, n, d = p.algebra, p.chart.dim, p.algebra.dim
    x, (g, h), probes = _sample(p, plan, 2, n + d, group_scale)
    pt, t = TotalPoint(x, h), TotalTangent(*np.split(probes, [n], axis=-1))
    lhs = connection_one_form(p, TotalPoint(x, h @ g), modified_pushforward(p, g, pt, t))
    ad_g_inv = ad_matrix_of_group(alg, dagger(g))
    return max_gap_rows(lhs - _act(ad_g_inv, connection_one_form(p, pt, t)))


def kernel_invariance_rows(p: TrivPrincipal, plan: SamplePlan,
                           group_scale: float = 1.0) -> np.ndarray:
    """The pushforward must map the connection kernel into itself."""
    n, d = p.chart.dim, p.algebra.dim
    x, (g, h), _ = _sample(p, plan, 2, 0, group_scale)
    pt, X = TotalPoint(x, h), np.broadcast_to(np.eye(n), (len(x), n, n))
    ker = TotalTangent(X, -connection_one_form(p, pt, TotalTangent(X, np.zeros(d))))
    return max_gap_rows(connection_one_form(p, TotalPoint(x, h @ g),
                                            modified_pushforward(p, g, pt, ker)))


def projection_commutation_rows(p: TrivPrincipal, plan: SamplePlan,
                                group_scale: float = 1.0) -> np.ndarray:
    """Horizontal/vertical projectors commute with the modified pushforward."""
    n, d = p.chart.dim, p.algebra.dim
    x, (g, h), probes = _sample(p, plan, 2, n + d, group_scale)
    pt, pt_img = TotalPoint(x, h), TotalPoint(x, h @ g)
    t = TotalTangent(*np.split(probes, [n], axis=-1))

    def vert(pt, t):
        return TotalTangent(np.zeros_like(t.X), connection_one_form(p, pt, t))

    def horiz(pt, t):
        v = vert(pt, t)
        return TotalTangent(t.X - v.X, t.eta - v.eta)

    gaps = []
    for proj in (vert, horiz):
        a = modified_pushforward(p, g, pt, proj(pt, t))
        b = proj(pt_img, modified_pushforward(p, g, pt, t))
        gaps += [a.eta - b.eta, a.X - b.X]
    return max_gap_rows(np.concatenate(gaps, axis=-1))


def mixed_bracket_rows(p: TrivPrincipal, nu: LieForm, plan: SamplePlan,
                       fd_step: float = 1e-5) -> np.ndarray:
    """Connection form applied to the bracket of a horizontal lift with a
    fundamental field equals the fibre covariant derivative of the generator.

    The bracket is taken with coordinate stencils in the product
    parametrization (u, v), on one stack of the offsets 0, +- fd_step e_k per
    point; fibre coordinate frames are converted to body coordinates through
    the exponential differential.
    """
    alg, n, d = p.algebra, p.chart.dim, p.algebra.dim
    N = n + d
    x0 = plan.points(p.chart)
    coeffs, X = _point_draws(plan, len(x0), d, 1, n, probes=1)
    (h0,), X = _groups(alg, coeffs), X[:, 0]
    steps = np.eye(N) * fd_step
    uv = np.concatenate([np.zeros((1, N)), steps, -steps])
    x = x0[:, None, :] + uv[:, :n]
    ad_inv = ad_matrix_of_group(alg, dagger(h0[:, None] @ expm(alg.rep_of(uv[:, n:]))))
    a, w = (one_form_on(f, x, X[:, None, :]) for f in (p.a_local, p.lgb.omega))
    dexp = np.swapaxes(dexp_body(alg, uv[:, None, n:], np.eye(d)), -1, -2)

    def field(base, body):  # coordinate field with body-coordinate fibre part
        return np.concatenate([base, np.linalg.solve(dexp, body[..., None])[..., 0]], axis=-1)

    lift = field(np.broadcast_to(X[:, None, :], x.shape),
                 -(_act(ad_inv, a) + (_act(ad_inv, w) - w)))
    fund = field(np.zeros(x.shape), _table_at(nu, x)[..., 0, :])

    def jacobian(f):  # columns k: the central stencil along axis k
        return np.swapaxes((f[:, 1:N + 1] - f[:, N + 1:]) / (2 * fd_step), -1, -2)

    bracket = _act(jacobian(fund), lift[:, 0]) - _act(jacobian(lift), fund[:, 0])
    got = connection_one_form(p, TotalPoint(x0, h0), TotalTangent(bracket[:, :n], bracket[:, n:]))
    return max_gap_rows(got - (X[:, None, :] @ induced_connection(p.lgb, nu, x0))[:, 0])


# ---------------------------------------------------------------------------
# total-space field strength
# ---------------------------------------------------------------------------

def _on_probes(table, t) -> np.ndarray:
    """sum_c t_c table_c for a (P, C, dim) table and (P, ..., C) weights."""
    P, C = table.shape[:2]
    return (t.reshape(P, -1, C) @ table).reshape(t.shape[:-1] + table.shape[2:])


def _two_form_on(table, t1, t2) -> np.ndarray:
    """A 2-form from its (P, C(N, 2), dim) component table on (P, ..., N)
    probe stacks: sum over increasing (i, j) of table_ij (t1_i t2_j - t1_j t2_i)."""
    i, j = np.array(increasing_indices(t1.shape[-1], 2)).T
    return _on_probes(table, t1[..., i] * t2[..., j] - t1[..., j] * t2[..., i])


class TotalFieldStrength:
    """Field strength F + zeta in product coordinates (u, v) around each
    anchor (x0, h0) of a stack; tangents are coordinate vectors at the
    origin, where the fibre coordinate frame coincides with body coordinates.

    It holds, per anchor, the connection rows and the component tables of
    the two-forms at the origin (`product_curvature`: one stack of the
    stencil offsets for all anchors). Probes are (P, ..., n + dim) stacks,
    row p for anchor p.
    """

    def __init__(self, p: TrivPrincipal, zeta: LieForm, x0, h0):
        n = p.chart.dim
        self.n = n
        self.a, self.cov_da, sq = product_curvature(p.lgb, x0, h0, a=p.a_local)
        self.zeta = np.zeros_like(sq)
        self.zeta[:, _base_pairs(n, n + p.algebra.dim)] = zeta.table(x0)
        self.full = self.cov_da + sq + self.zeta

    def connection_value(self, t) -> np.ndarray:
        return _on_probes(self.a, np.asarray(t, dtype=float))

    def horizontal_project(self, t) -> np.ndarray:
        """Drop the vertical (body) component singled out by the connection form."""
        out = np.array(t, dtype=float)
        out[..., self.n:] -= self.connection_value(t)
        return out

    def evaluate(self, t1, t2) -> np.ndarray:
        return _two_form_on(self.full, np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))

    def structure_route(self, t1, t2) -> np.ndarray:
        """Covariant differential on horizontal projections plus the pulled-back
        central term — the structure-equation right-hand side."""
        t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
        return (_two_form_on(self.cov_da, self.horizontal_project(t1), self.horizontal_project(t2))
                + _two_form_on(self.zeta, t1, t2))


def total_field_strength(p: TrivPrincipal, zeta: LieForm, x0,
                         h0=None) -> TotalFieldStrength:
    """The field strength at the (P, n) anchors x0 with (P, r, r) group
    matrices h0 (the identity when None)."""
    x0 = np.asarray(x0, dtype=float)
    if h0 is None:
        h0 = np.broadcast_to(np.eye(p.algebra.rep_dim, dtype=complex),
                             x0.shape[:-1] + (p.algebra.rep_dim,) * 2)
    return TotalFieldStrength(p, zeta, x0, h0)


def field_strength_type_rows(p: TrivPrincipal, zeta: LieForm, plan: SamplePlan,
                             group_scale: float = 1.0) -> np.ndarray:
    """Adjoint type of the field strength under the modified pushforward:
    F(r-hat t1, r-hat t2) = Ad_{g^{-1}} F(t1, t2), anchored at (x, identity)
    and (x, g) in one stack."""
    alg, N = p.algebra, p.chart.dim + p.algebra.dim
    x = plan.points(p.chart)
    P = len(x)
    coeffs, probes = _point_draws(plan, P, alg.dim, 1, 2 * N, scale=group_scale)
    (g,) = _groups(alg, coeffs)
    mat = pushforward_matrix(p, x, g)[:, None]
    t1, t2 = np.split(probes, 2, axis=-1)
    identity = np.broadcast_to(np.eye(alg.rep_dim, dtype=complex), g.shape)
    fs = total_field_strength(p, zeta, np.concatenate([x, x]), np.concatenate([identity, g]))
    f = fs.evaluate(np.concatenate([t1, _act(mat, t1)]), np.concatenate([t2, _act(mat, t2)]))
    return max_gap_rows(f[P:] - _act(ad_matrix_of_group(alg, dagger(g))[:, None], f[:P]))


def structure_equation_rows(p: TrivPrincipal, zeta: LieForm, plan: SamplePlan):
    """The (dual-path, horizontality, adjoint-type) rows of the structure
    equation over the plan, (P,) each, at the anchors (x, identity):
    F against its covariant assembly `structure_route` on probes from
    `default_rng(hash((plan.seed, i)) % 2**32)`, F on a vertical and an
    arbitrary probe, and `field_strength_type_rows`."""
    n, d = p.chart.dim, p.algebra.dim
    x = plan.points(p.chart)
    fs = total_field_strength(p, zeta, x)
    dual = np.array([np.random.default_rng(hash((plan.seed, i)) % (2 ** 32)).normal(
        size=(plan.tangent_probes, 2, n + d)) for i in range(len(x))])
    t1, t2 = dual[:, :, 0], dual[:, :, 1]
    _, probes = _point_draws(plan, len(x), d, 0, d + n + d)
    vert = np.concatenate([np.zeros(probes.shape[:-1] + (n,)), probes[..., :d]], axis=-1)
    return (max_gap_rows(fs.evaluate(t1, t2) - fs.structure_route(t1, t2)),
            max_gap_rows(fs.evaluate(vert, probes[..., d:])),
            field_strength_type_rows(p, zeta, plan))


# ---------------------------------------------------------------------------
# gauge transformations by automorphisms
# ---------------------------------------------------------------------------

@dataclass
class GaugeTransformResult:
    a_local_new: LieForm
    a_rows: np.ndarray  # (P,) potential-law residual at each plan point
    f_rows: np.ndarray  # (P,) field-strength-law residual at each plan point


def gauge_transform_total(p: TrivPrincipal, aut: Automorphism, zeta: LieForm,
                          plan: SamplePlan, group_scale: float = 1.0) -> GaugeTransformResult:
    """Pull the connection form and field strength back through the automorphism.

    Route one differentiates the automorphism directly; route two assembles
    the transformation law through the conjugation section (adjoint twist of
    the form plus the section's pulled-back logarithmic derivative). Point i
    draws h and its probes from `default_rng([plan.seed, i])`; the rows of
    both disagreements are returned with the transformed identity-gauge field.
    """
    alg, n, d = p.algebra, p.chart.dim, p.algebra.dim
    h_step = p.chart.default_step()
    x = plan.points(p.chart)
    P = len(x)
    coeffs, probes = _point_draws(plan, P, d, 1, 3 * n + 3 * d, scale=group_scale)
    (h,) = _groups(alg, coeffs)
    X, V, t1, t2 = np.split(probes, [n, n + d, 2 * n + 2 * d], axis=-1)
    image, body_dtau = aut.tau(x) @ h, aut.tau.body_derivative(x, h_step)
    ad_h_inv = ad_matrix_of_group(alg, dagger(h))[:, None]
    ad_sig_inv = ad_matrix_of_group(alg, dagger(aut.sigma_conj(x, h)))[:, None]
    x1 = x[:, None, :]

    def dtau(base):  # the fibre velocity tau adds along base directions at h
        return _act(ad_h_inv, base @ body_dtau)

    def push_through_h(t):
        return np.concatenate([t[..., :n], t[..., n:] + dtau(t[..., :n])], axis=-1)

    direct = connection_one_form(p, TotalPoint(x1, image[:, None]), TotalTangent(X, V + dtau(X)))

    def conj_curve(s):  # the conjugation section along s -> (x + sX, h exp(sV))
        hs = h[:, None] @ _exp_rep(alg, s, V)
        return np.linalg.inv(hs) @ aut.tau(x1 + s[..., None] * X) @ hs

    w = one_form_on(p.lgb.omega, x1, X)
    base = connection_one_form(p, TotalPoint(x1, h[:, None]), TotalTangent(X, V))
    formula = _act(ad_sig_inv, base) + _body_stencil4(alg, conj_curve, 2) + (
        _act(ad_sig_inv, w) - w)

    fs = total_field_strength(p, zeta, np.concatenate([x, x]), np.concatenate([h, image]))
    f = fs.evaluate(np.concatenate([t1, push_through_h(t1)]),
                    np.concatenate([t2, push_through_h(t2)]))

    def new_a(Y):  # the direct pullback at h = identity along each axis
        return aut.tau.body_derivative(Y, h_step) + base_rows(p.lgb, Y, aut.tau(Y), p.a_local)

    a_new = LieForm(n=n, degree=1, value_target="algebra", value_shape=(d,),
                    batch=new_a, fd_step=10 * h_step, box=p.chart.box)
    return GaugeTransformResult(a_new, max_gap_rows(direct - formula),
                                max_gap_rows(f[P:] - _act(ad_sig_inv, f[:P])))
