"""Trivialized principal bundle carrying a structural group bundle.

The bundle is chart x G with two pieces of connection data, both read from
the one `GaugeScenario`: the structural horizontal data omega (shared with
the group bundle, `GaugeScenario.omega`) and the gauge field A in the
identity gauge; the field-strength laws read its central form zeta too.
Fibre tangents are body coordinates, as in the group bundle layer. Every
transformation law is evaluated along two independent routes (direct
differentiation vs the closed-form right-hand side) and the disagreement is
surfaced as a residual, at every point of a sample plan at once: the laws
act on stacks of points, group matrices and tangents.

The connection form is the group bundle's `total_form` with the gauge
field. Right translation moves only the fibre, so the modified pushforward
keeps the base direction and returns the new fibre velocity alone. A
bundle automorphism (x, h) -> (x, tau(x) h) is its section tau.
"""
from __future__ import annotations

import numpy as np

from .algebra import LieAlgebraDescriptor, ad_matrix_of_group, dagger, group_exp
from .connection import GaugeScenario
from .forms import (FD_STEP, LieForm, SamplePlan, _central_offsets, _central_quotient,
                    increasing_indices, max_gap_rows)
from .lgb import (GSection, _act, _base_pairs, _body_coeffs,
                  _darboux_rows, _point_draws, _table_at, dexp_body,
                  induced_connection, one_form_on, product_curvature, total_form)

__all__ = [
    "connection_one_form", "modified_pushforward",
    "pushforward_via_section", "action_differential_rows",
    "section_independence_rows", "TotalFieldStrength", "total_field_strength",
    "structure_equation_rows", "gauge_transform_total", "equivariance_rows",
    "kernel_invariance_rows", "projection_commutation_rows",
    "mixed_bracket_rows", "field_strength_type_rows",
]


_STENCIL4 = np.array([0.0, -2.0, -1.0, 1.0, 2.0])


def _body_stencil4(alg: LieAlgebraDescriptor, curve, lead: int, h: float = 1e-3) -> np.ndarray:
    """Body velocity at t = 0 of a stack of matrix-valued curves, by the
    fourth-order stencil: curve(t) maps the (5, 1, ..., 1) stack of t, with
    `lead` unit axes, to its (5, ..., r, r) matrices. A curve off the group
    variety raises ReexpansionError (the watchdog of `_body_coeffs`)."""
    m = curve((h * _STENCIL4).reshape((5,) + (1,) * lead))
    dm = (m[1] - 8 * m[2] + 8 * m[3] - m[4]) / (12 * h)
    return _body_coeffs(alg, np.linalg.inv(m[0]), dm, "curve")


def _groups(alg: LieAlgebraDescriptor, coeffs) -> np.ndarray:
    """The (groups, P, r, r) matrices of (P, groups, dim) drawn coefficients."""
    return np.moveaxis(group_exp(alg, coeffs), 1, 0)


def _sample(s: GaugeScenario, plan: SamplePlan, groups: int, width: int):
    """The plan's points as (P, 1, n), the `groups` group matrices of each
    point as (groups, P, 1, r, r) and its tangent probes (P, probes, width),
    drawn by `_point_draws`."""
    x = plan.points(s.chart)
    coeffs, probes = _point_draws(plan, len(x), s.algebra.dim, groups, width)
    return x[:, None, :], _groups(s.algebra, coeffs)[:, :, None], probes


# ---------------------------------------------------------------------------
# connection 1-form and the modified pushforward
# ---------------------------------------------------------------------------
#
# These act on stacks: the leading axes of the points, group matrices and
# tangents broadcast.

def connection_one_form(s: GaugeScenario, x, h, X, V) -> np.ndarray:
    """V + Ad_{h^{-1}}(A(X)) + (Ad_{h^{-1}} - id)(omega(X)) in body
    coordinates at the total-space points (x, h), for the base directions X
    and fibre velocities V: `total_form` with the gauge field A.

    Identity on vertical tangents; its kernel at h = identity is the graph
    of -A over the base directions. The omega defect term is what makes the
    form equivariant under the modified pushforward.
    """
    return total_form(s.algebra, h, one_form_on(s.omega, x, X), eta=V,
                      a=one_form_on(s.gauge_field, x, X))


def modified_pushforward(s: GaugeScenario, g, x, X, V) -> np.ndarray:
    """The fibre velocity Ad_{g^{-1}}(V) - (Ad_{g^{-1}} - id)(omega(X)) that
    right translation by g gives a tangent (X, V) over the points x; the
    base direction X is unchanged. It is `total_form` at g with V in the
    gauge-field slot and -omega(X) for omega(X).

    The closed form of the defining section route; the two are compared by
    `section_independence_rows`.
    """
    return total_form(s.algebra, g, -one_form_on(s.omega, x, X), a=V)


def pushforward_via_section(s: GaugeScenario, sigma, x, g, X, V) -> np.ndarray:
    """Defining route of the pushed fibre velocity: differentiate right
    translation by the section, then subtract the fundamental vector of the
    section's logarithmic derivative, for the tangent (X, V) at (x, g).
    `sigma` maps (..., n) points to (..., r, r) matrices, as a `GSection`
    does, broadcast against the leading axes of x."""
    alg, x = s.algebra, np.asarray(x, dtype=float)
    h_step = s.chart.default_step()

    def curve(t):
        return (g @ group_exp(alg, t[..., None] * V)) @ sigma(x + t[..., None] * X)

    body_dr = _body_stencil4(alg, curve, np.ndim(X) - 1, h=h_step)
    _, ds = _darboux_rows(s, x, h_step, sigma, "section")
    return body_dr - sum(X[..., k, None] * ds[k] for k in range(len(ds)))


# ---------------------------------------------------------------------------
# checks over a plan: point i draws its group elements and tangent probes
# from default_rng([plan.seed, i]) and gives row i of a (P,) residual array
# ---------------------------------------------------------------------------

def section_independence_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Two sections through the same multiplier must induce the same
    pushforward, and both must agree with the closed form."""
    alg, n, d = s.algebra, s.chart.dim, s.algebra.dim
    x, (g,), probes = _sample(s, plan, 1, n + d)
    identity = np.broadcast_to(np.eye(alg.rep_dim), g.shape)
    X, V = np.split(probes, [n], axis=-1)
    slope = 0.2 * np.arange(1, d + 1)

    def const(Y):
        return np.broadcast_to(g, Y.shape[:-1] + g.shape[-2:])

    def tilted(Y):
        return group_exp(alg, slope * ((Y - x) @ np.full(n, 1.0 / n))[..., None]) @ g

    via = [pushforward_via_section(s, sec, x, identity, X, V) for sec in (const, tilted)]
    closed = modified_pushforward(s, g, x, X, V)
    return max_gap_rows(np.concatenate([via[0] - via[1], via[0] - closed], axis=-1))


def action_differential_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Differential of the fibrewise action, direct stencil vs assembled law.

    Direct: body velocity of t -> h(t) g(t) for matched curves. Assembled:
    derivative of right translation by a section through g plus the vertical
    (body) part of the group-side tangent relative to that section.
    """
    alg, n, d = s.algebra, s.chart.dim, s.algebra.dim
    x, (h, g), probes = _sample(s, plan, 2, n + 2 * d)
    X, V, W = np.split(probes, [n, n + d], axis=-1)

    def sigma(Y):  # section through g with linear body slope, matched to W at x
        return group_exp(alg, ((Y - x) @ np.full(n, 1.0 / n))[..., None] * W) @ g

    direct = _body_stencil4(alg, lambda t: (h @ group_exp(alg, t[..., None] * V)) @ (
        g @ group_exp(alg, t[..., None] * W)), 2)
    d_rsigma = _body_stencil4(alg, lambda t: (h @ group_exp(alg, t[..., None] * V)) @ sigma(
        x + t[..., None] * X), 2)
    body_dsigma = _body_stencil4(alg, lambda t: sigma(x + t[..., None] * X), 2)
    return max_gap_rows(direct - (d_rsigma + (W - body_dsigma)))


def equivariance_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Pullback of the connection form along the modified pushforward must be
    its adjoint twist: A(r-hat(t)) = Ad_{g^{-1}} A(t)."""
    alg, n, d = s.algebra, s.chart.dim, s.algebra.dim
    x, (g, h), probes = _sample(s, plan, 2, n + d)
    X, V = np.split(probes, [n], axis=-1)
    lhs = connection_one_form(s, x, h @ g, X, modified_pushforward(s, g, x, X, V))
    ad_g_inv = ad_matrix_of_group(alg, dagger(g))
    return max_gap_rows(lhs - _act(ad_g_inv, connection_one_form(s, x, h, X, V)))


def kernel_invariance_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """The pushforward must map the connection kernel into itself."""
    n, d = s.chart.dim, s.algebra.dim
    x, (g, h), _ = _sample(s, plan, 2, 0)
    X = np.broadcast_to(np.eye(n), (len(x), n, n))
    ker = -connection_one_form(s, x, h, X, np.zeros(d))
    pushed = modified_pushforward(s, g, x, X, ker)
    return max_gap_rows(connection_one_form(s, x, h @ g, X, pushed))


def projection_commutation_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Horizontal/vertical projectors commute with the modified pushforward.
    The vertical part of (X, V) is (0, A(X, V)) and the horizontal part
    (X, V - A(X, V)); the pushforward keeps X, so the gaps are in V alone."""
    n, d = s.chart.dim, s.algebra.dim
    x, (g, h), probes = _sample(s, plan, 2, n + d)
    X, V = np.split(probes, [n], axis=-1)
    pushed = modified_pushforward(s, g, x, X, V)
    v, v_img = (connection_one_form(s, x, h, X, V),
                connection_one_form(s, x, h @ g, X, pushed))
    vert = modified_pushforward(s, g, x, np.zeros_like(X), v) - v_img
    horiz = modified_pushforward(s, g, x, X, V - v) - (pushed - v_img)
    return max_gap_rows(np.concatenate([vert, horiz], axis=-1))


def mixed_bracket_rows(s: GaugeScenario, nu: LieForm, plan: SamplePlan,
                       fd_step: float = FD_STEP) -> np.ndarray:
    """Connection form applied to the bracket of a horizontal lift with a
    fundamental field equals the fibre covariant derivative of the generator.

    The bracket is taken with coordinate stencils in the product
    parametrization (u, v), on one stack of the central offsets of step
    fd_step per point (`_central_offsets`); fibre coordinate frames are
    converted to body coordinates through the exponential differential.
    """
    alg, n, d = s.algebra, s.chart.dim, s.algebra.dim
    x0 = plan.points(s.chart)
    coeffs, X = _point_draws(plan, len(x0), d, 1, n, probes=1)
    (h0,), X = _groups(alg, coeffs), X[:, 0]
    uv = _central_offsets(n + d, fd_step)
    x = x0[:, None, :] + uv[:, :n]
    a, w = (one_form_on(f, x, X[:, None, :]) for f in (s.gauge_field, s.omega))
    dexp = np.swapaxes(dexp_body(alg, uv[:, None, n:], np.eye(d)), -1, -2)

    def field(base, body):  # coordinate field with body-coordinate fibre part
        return np.concatenate([base, np.linalg.solve(dexp, body[..., None])[..., 0]], axis=-1)

    lift = field(np.broadcast_to(X[:, None, :], x.shape),
                 -total_form(alg, h0[:, None] @ group_exp(alg, uv[:, n:]), w, a=a))
    fund = field(np.zeros(x.shape), _table_at(nu, x)[..., 0, :])

    def jacobian(f):  # columns k: the central quotient along axis k
        return np.swapaxes(_central_quotient(f[:, 1:], fd_step, axis=1), -1, -2)

    bracket = _act(jacobian(fund), lift[:, 0]) - _act(jacobian(lift), fund[:, 0])
    got = connection_one_form(s, x0, h0, bracket[:, :n], bracket[:, n:])
    return max_gap_rows(got - (X[:, None, :] @ induced_connection(s, nu, x0))[:, 0])


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

    def __init__(self, s: GaugeScenario, x0, h0):
        n = s.chart.dim
        self.n = n
        self.a, self.cov_da, sq = product_curvature(s, x0, h0, a=s.gauge_field)
        self.zeta = np.zeros_like(sq)
        self.zeta[:, _base_pairs(n, n + s.algebra.dim)] = s.zeta.table(x0)
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


def total_field_strength(s: GaugeScenario, x0, h0=None) -> TotalFieldStrength:
    """The field strength at the (P, n) anchors x0 with (P, r, r) group
    matrices h0 (the identity when None)."""
    x0 = np.asarray(x0, dtype=float)
    if h0 is None:
        h0 = np.broadcast_to(np.eye(s.algebra.rep_dim, dtype=complex),
                             x0.shape[:-1] + (s.algebra.rep_dim,) * 2)
    return TotalFieldStrength(s, x0, h0)


def field_strength_type_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Adjoint type of the field strength under the modified pushforward:
    F(r-hat t1, r-hat t2) = Ad_{g^{-1}} F(t1, t2), anchored at (x, identity)
    and (x, g) in one stack."""
    alg, n = s.algebra, s.chart.dim
    x = plan.points(s.chart)
    P = len(x)
    coeffs, probes = _point_draws(plan, P, alg.dim, 1, 2 * (n + alg.dim))
    (g,) = _groups(alg, coeffs)
    t1, t2 = np.split(probes, 2, axis=-1)

    def push(t):
        X = t[..., :n]
        return np.concatenate([X, modified_pushforward(
            s, g[:, None], x[:, None], X, t[..., n:])], axis=-1)

    identity = np.broadcast_to(np.eye(alg.rep_dim, dtype=complex), g.shape)
    fs = total_field_strength(s, np.concatenate([x, x]), np.concatenate([identity, g]))
    f = fs.evaluate(np.concatenate([t1, push(t1)]), np.concatenate([t2, push(t2)]))
    return max_gap_rows(f[P:] - _act(ad_matrix_of_group(alg, dagger(g))[:, None], f[:P]))


def structure_equation_rows(s: GaugeScenario, plan: SamplePlan):
    """The (dual-path, horizontality, adjoint-type) rows of the structure
    equation over the plan, (P,) each, at the anchors (x, identity):
    F against its covariant assembly `structure_route` on probes from
    `default_rng(hash((plan.seed, i)) % 2**32)`, F on a vertical and an
    arbitrary probe, and `field_strength_type_rows`."""
    n, d = s.chart.dim, s.algebra.dim
    x = plan.points(s.chart)
    fs = total_field_strength(s, x)
    dual = np.array([np.random.default_rng(hash((plan.seed, i)) % (2 ** 32)).normal(
        size=(plan.tangent_probes, 2, n + d)) for i in range(len(x))])
    t1, t2 = dual[:, :, 0], dual[:, :, 1]
    _, probes = _point_draws(plan, len(x), d, 0, d + n + d)
    vert = np.concatenate([np.zeros(probes.shape[:-1] + (n,)), probes[..., :d]], axis=-1)
    return (max_gap_rows(fs.evaluate(t1, t2) - fs.structure_route(t1, t2)),
            max_gap_rows(fs.evaluate(vert, probes[..., d:])),
            field_strength_type_rows(s, plan))


# ---------------------------------------------------------------------------
# gauge transformations by automorphisms
# ---------------------------------------------------------------------------

def gauge_transform_total(s: GaugeScenario, taus, plan: SamplePlan) -> list:
    """Pull the connection form and field strength back through the bundle
    automorphism (x, h) -> (x, tau(x) h) of each section tau of `taus`.

    Route one differentiates the automorphism directly; route two assembles
    the transformation law through the conjugation section h^{-1} tau h
    (adjoint twist of the form plus the section's pulled-back logarithmic
    derivative). Point i draws h and its probes from
    `default_rng([plan.seed, i])`, the same for every tau. The E sections
    run as one stack of E P rows, block e for taus[e]; returns one pair of
    (P,) rows, of the potential law and of the field-strength law, per tau.
    """
    alg, n, d, E = s.algebra, s.chart.dim, s.algebra.dim, len(taus)
    x = plan.points(s.chart)
    P = len(x)
    coeffs, probes = _point_draws(plan, P, d, 1, 3 * n + 3 * d)
    (h,) = _groups(alg, coeffs)
    tau_x = np.concatenate([tau(x) for tau in taus])
    body_dtau = np.concatenate([tau.body_derivative(x, s.chart.default_step()) for tau in taus])
    x, h, probes = (np.concatenate([a] * E) for a in (x, h, probes))
    X, V, t1, t2 = np.split(probes, [n, n + d, 2 * n + 2 * d], axis=-1)
    image = tau_x @ h
    ad_h_inv = ad_matrix_of_group(alg, dagger(h))[:, None]
    sigma = dagger(h) @ tau_x @ h
    x1 = x[:, None, :]

    def dtau(base):  # the fibre velocity tau adds along base directions at h
        return _act(ad_h_inv, base @ body_dtau)

    def push_through_h(t):
        return np.concatenate([t[..., :n], t[..., n:] + dtau(t[..., :n])], axis=-1)

    direct = connection_one_form(s, x1, image[:, None], X, V + dtau(X))

    def conj_curve(t):  # the conjugation section along t -> (x + tX, h exp(tV))
        hs = h[:, None] @ group_exp(alg, t[..., None] * V)
        y = x1 + t[..., None] * X
        return np.linalg.inv(hs) @ np.concatenate(
            [tau(y[:, e * P:(e + 1) * P]) for e, tau in enumerate(taus)], axis=1) @ hs

    base = connection_one_form(s, x1, h[:, None], X, V)
    formula = total_form(alg, sigma[:, None], one_form_on(s.omega, x1, X),
                         eta=_body_stencil4(alg, conj_curve, 2), a=base)

    fs = total_field_strength(s, np.concatenate([x, x]), np.concatenate([h, image]))
    f = fs.evaluate(np.concatenate([t1, push_through_h(t1)]),
                    np.concatenate([t2, push_through_h(t2)]))
    ad_sig_inv = ad_matrix_of_group(alg, dagger(sigma))[:, None]
    return list(zip(max_gap_rows(direct - formula).reshape(E, P),
                    max_gap_rows(f[E * P:] - _act(ad_sig_inv, f[:E * P])).reshape(E, P)))
