"""Trivialized group bundles over a chart: total Maurer-Cartan form,
group-valued logarithmic derivatives of sections, the induced fibre
connection, and the curvature identity on the total space.

Fibre tangent vectors are kept in body coordinates throughout: the velocity
of a curve through g is recorded as g^{-1} (d/dt) g, expanded in the algebra
basis. Sections differentiate by finite differences on their matrix entries;
the result is projected back onto the algebra span and the out-of-span drift
is watched, so a section wandering off the group variety raises rather than
silently corrupting downstream residuals.

The multiplicativity law and the induced fibre connection run over a whole
plan on stacks of group matrices (see `cym.algebra`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (LieAlgebraDescriptor, ReexpansionError,
                      ad_matrix_c, ad_matrix_of_group, ad_twist, bracket_c,
                      dagger, expand_in_rep, expm, on_variety, require_within)
from .connection import LabConnection, cov_ext_deriv
from .forms import (Chart, LieForm, SamplePlan, bracket_pairing,
                    exterior_derivative, graded_product, increasing_indices,
                    max_gap_rows, scale_form)

__all__ = [
    "TotalPoint", "TotalTangent", "TrivLgb", "GSection", "dexp_body",
    "InconsistencyError", "one_form_on", "darboux", "darboux_leibniz_rows",
    "darboux_inverse_rows", "nabla_from_darboux", "induced_connection",
    "multiplicativity_rows", "base_rows", "total_form_rows", "product_curvature",
    "generalized_mc_rows", "pullback_mc_rows",
]

DRIFT_TOL = 1e-9


class InconsistencyError(RuntimeError):
    """Two routes to the same quantity disagree beyond tolerance —
    usually a sign-convention mismatch in caller-supplied data."""


@dataclass
class TotalPoint:
    x: np.ndarray
    g: np.ndarray  # (..., r, r) group matrices, for the (..., n) points x


@dataclass
class TotalTangent:
    """Base direction X plus fibre velocity in body coordinates."""

    X: np.ndarray
    eta: np.ndarray


def dexp_body(alg: LieAlgebraDescriptor, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Body velocity of s -> exp(v + s w) at s = 0, for (..., dim) stacks of
    v and w (broadcast):

    exp(-v) d/ds exp(v + s w) = sum_k (-ad_v)^k w / (k+1)!.

    Each row sums its series until its own term drops below 1e-18, so it
    gets the value a call on that row alone gives.
    """
    adv = ad_matrix_c(alg, v)
    term = np.asarray(w, dtype=float)
    out = np.array(np.broadcast_to(term, np.broadcast_shapes(adv.shape[:-1], term.shape)))
    live = np.ones(out.shape[:-1], dtype=bool)
    for k in range(1, 40):
        term = -_act(adv, term) / (k + 1)
        out[live] += term[live]
        live &= ~(np.abs(term).max(axis=-1) < 1e-18)
        if not live.any():
            break
    return out


def _act(m, v) -> np.ndarray:
    """m @ v for (..., k, k) matrices on (..., k) vectors, leading axes broadcast."""
    return (m @ v[..., None])[..., 0]


_draws_seed, _draws = None, np.empty((0, 0))


def _normal_table(seed, count: int, width: int) -> np.ndarray:
    """Read-only (count, width) view of a table whose row i holds the first
    `width` standard normals of `default_rng([seed, i])`.

    The table of the last seed asked for is kept for the process; a call
    that needs more rows or columns redraws it whole at the larger size, at
    least 64 columns wide so the usual widths need one draw."""
    global _draws_seed, _draws
    rows, cols = _draws.shape if seed == _draws_seed else (0, 0)
    if count > rows or width > cols:
        rows, cols = max(count, rows), max(width, cols, 64)
        _draws = np.array([np.random.default_rng([seed, i]).standard_normal(cols)
                           for i in range(rows)]).reshape(rows, cols)
        _draws.flags.writeable = False
        _draws_seed = seed
    return _draws[:count, :width]


def _point_draws(plan: SamplePlan, count: int, dim: int, groups: int, width: int,
                 probes: int = None, scale: float = 1.0):
    """The random draws of each plan point, point i from
    `default_rng([plan.seed, i])`: `groups` group coefficient vectors of
    scale `scale`, then `probes` rows of `width` normals (the plan's tangent
    probes by default); as (count, groups, dim) and (count, probes, width).
    They are the values `rng.normal(scale=scale, size=(groups, dim))` and
    then `rng.normal(size=(probes, width))` give, read from one shared table."""
    probes = plan.tangent_probes if probes is None else probes
    head = groups * dim
    z = _normal_table(plan.seed, count, head + probes * width)
    return (scale * z[:, :head].reshape(count, groups, dim),
            z[:, head:].copy().reshape(count, probes, width))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

class GSection:
    """A group-valued section b: chart -> G, on stacks of points.

    `stack` maps a (..., n) stack of points to the (..., r, r) stack of
    their group matrices, and `section(X)` reads it. A per-point closure of
    algebra coefficients becomes a section through `exp_of_form` of
    `form_from_components`. Every finite row must lie on the group variety
    (VarietyError otherwise); a non-finite row passes through as NaN.
    A section must be a pure function of the point: the last stack is
    memoised by its coordinates and its matrices come back read-only.
    """

    def __init__(self, alg: LieAlgebraDescriptor, stack, name: str = ""):
        self.algebra, self.name, self._stack = alg, name, stack
        self._key = self._value = None

    def __call__(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        key = (X.shape, X.tobytes())
        if key != self._key:
            value = on_variety(self.algebra, np.asarray(self._stack(X))).view()
            value.setflags(write=False)
            self._key, self._value = key, value
        return self._value

    @classmethod
    def identity(cls, alg: LieAlgebraDescriptor) -> "GSection":
        return cls.constant(alg, np.eye(alg.rep_dim, dtype=complex), name="id")

    @classmethod
    def constant(cls, alg: LieAlgebraDescriptor, matrix, name: str = "const") -> "GSection":
        """b(x) = matrix at every point, for an (r, r) group matrix; a finite
        matrix off the variety raises VarietyError here."""
        matrix = on_variety(alg, np.asarray(matrix, dtype=complex))
        return cls(alg, lambda X: np.broadcast_to(matrix, X.shape[:-1] + matrix.shape), name)

    @classmethod
    def exp_of_form(cls, alg: LieAlgebraDescriptor, form: LieForm, scale: float = 1.0,
                    name: str = "exp") -> "GSection":
        """b(x) = exp(scale form(x)) of an algebra-valued 0-form: one table of
        the form on the stack, then one exponential."""
        return cls(alg, lambda X: expm(alg.rep_of(scale * _table_at(form, X)[..., 0, :])), name)

    def product(self, other: "GSection") -> "GSection":
        if other.algebra is not self.algebra:
            raise ValueError("sections live in different algebras")
        return GSection(self.algebra, lambda X: self(X) @ other(X), f"{self.name}*{other.name}")

    def inverse(self) -> "GSection":
        # on a unitary variety the inverse is the conjugate transpose
        return GSection(self.algebra, lambda X: dagger(self(X)), f"{self.name}^-1")

    def body_derivative(self, X, h: float) -> np.ndarray:
        """b^{-1} d_k b along every axis k at each point of a (..., n) stack,
        (..., n, dim): a central matrix-entry stencil on one stack of the
        section at X and X +- h e_k, re-expanded in the basis. Raises when
        the out-of-span drift exceeds the watchdog."""
        body = _body_rows(self.algebra, self, np.asarray(X, dtype=float), h,
                          f"section {self.name!r}")[1]
        return np.moveaxis(body, 0, -2)


def _body_velocity(alg: LieAlgebraDescriptor, b, b_plus, b_minus, h: float,
                   what: str) -> np.ndarray:
    """b^{-1} (b_plus - b_minus) / 2h in the basis, the central-stencil body
    velocity, for (..., r, r) stacks, with the drift watchdog (DRIFT_TOL,
    relative to its size) on every row."""
    db = (b_plus - b_minus) / (2 * h)
    coeffs, resid = expand_in_rep(alg, dagger(b) @ db)
    require_within(resid, DRIFT_TOL * np.maximum(1.0, np.linalg.norm(coeffs, axis=-1)),
                   ReexpansionError, what + " drifted off the variety: residual {:.3e}")
    return coeffs


def _mu_rows(alg: LieAlgebraDescriptor, g, eta, w) -> np.ndarray:
    """eta + (Ad_{g^{-1}} - id)(w): the total 1-form at g on body velocity eta
    and horizontal value w, for (..., r, r) stacks g with eta and w broadcast.
    The Darboux derivative of a section b is this at g = b, eta = b^{-1} db."""
    return eta + (_act(ad_matrix_of_group(alg, dagger(g)), w) - w)


def _body_rows(alg: LieAlgebraDescriptor, matrices, X, h: float, what: str):
    """(b, b^{-1} d_k b) at each point of a (..., n) stack X, shapes
    (E..., ..., r, r) and (n, E..., ..., dim), from one stack: matrices(Y)
    gives the (E..., 2n + 1, ..., r, r) matrices on the stack Y of X, then
    X + h e_k and X - h e_k for each axis k in turn."""
    n = X.shape[-1]
    steps = np.concatenate([np.zeros((1, n)), np.kron(np.eye(n), [[h], [-h]])])
    b = np.moveaxis(matrices(X + steps.reshape((-1,) + (1,) * (X.ndim - 1) + (n,))),
                    -X.ndim - 2, 0)
    return b[0], _body_velocity(alg, b[0], b[1::2], b[2::2], h, what)


def _darboux_rows(lgb: TrivLgb, X, h: float, matrices, what: str) -> np.ndarray:
    """The Darboux derivative b^{-1} d_k b + (Ad_{b^{-1}} - id)(omega_k) along
    every axis at each point of a (..., n) stack X, shape (n, E..., ..., dim),
    from the matrices of `_body_rows`."""
    b0, body = _body_rows(lgb.algebra, matrices, X, h, what)
    w = np.moveaxis(_table_at(lgb.omega, X), -2, 0)  # (n, ..., dim), against (n, E..., ..., dim)
    return _mu_rows(lgb.algebra, b0, body, w.reshape(w.shape[:1] + (1,) * (
        body.ndim - w.ndim) + w.shape[1:]))


def _table_at(form: LieForm, x) -> np.ndarray:
    """form.table at each point of a (..., n) stack, (..., C, *value_shape)."""
    x = np.asarray(x, dtype=float)
    return form.table(x.reshape(-1, form.n)).reshape(x.shape[:-1] + (-1,) + form.value_shape)


def one_form_on(form: LieForm, x, X) -> np.ndarray:
    """form_x(X) of a vector-valued 1-form, summed over the axes in order;
    the leading axes of x and X broadcast."""
    table = _table_at(form, x)
    X = np.asarray(X, dtype=float)
    return sum(X[..., k, None] * table[..., k, :] for k in range(form.n))


# ---------------------------------------------------------------------------
# the bundle
# ---------------------------------------------------------------------------

@dataclass
class TrivLgb:
    """Group bundle in a trivialized chart, with horizontal data omega."""

    chart: Chart
    algebra: LieAlgebraDescriptor
    omega: LieForm

    def __post_init__(self):
        if self.omega.degree != 1 or self.omega.value_target != "algebra":
            raise ValueError("omega must be an algebra-valued 1-form")
        self._nabla = None

    @property
    def nabla(self) -> LabConnection:
        if self._nabla is None:
            self._nabla = LabConnection.from_omega(self.algebra, self.omega)
        return self._nabla

    def mu_tot(self, p: TotalPoint, t: TotalTangent) -> np.ndarray:
        """eta + (Ad_{g^{-1}} - id)(omega_x(X)) in body coordinates, with the
        leading axes of p.x, p.g, t.X and t.eta broadcast."""
        if not self.chart.contains(p.x):
            raise ValueError(f"point {p.x} is outside the chart box")
        return _mu_rows(self.algebra, p.g, t.eta, one_form_on(self.omega, p.x, t.X))


# ---------------------------------------------------------------------------
# group-valued logarithmic derivative and the induced connection
# ---------------------------------------------------------------------------

def darboux(lgb: TrivLgb, section: GSection, h: float = None) -> LieForm:
    """Logarithmic derivative of a section relative to the horizontal data:
    components b^{-1} d_k b + (Ad_{b^{-1}} - id)(omega_k), read over a batch
    from one stack of the section at X and X +- h e_k (`_darboux_rows`).

    The output is finite-difference data; downstream exterior derivatives use
    a wider step (nested stencil)."""
    h = h or lgb.chart.default_step()

    def batch(X):
        what = f"section {section.name!r}"
        return np.swapaxes(_darboux_rows(lgb, X, h, section, what), 0, 1)

    return LieForm(n=lgb.chart.dim, degree=1, value_target="algebra",
                   value_shape=(lgb.algebra.dim,), batch=batch,
                   fd_step=10 * lgb.chart.default_step(), box=lgb.chart.box)


def darboux_leibniz_rows(lgb: TrivLgb, s1: GSection, s2: GSection,
                         plan: SamplePlan) -> np.ndarray:
    """|Delta(s1 s2) - Ad_{s2^{-1}} Delta(s1) - Delta(s2)| at each point of
    the plan, as a (P,) array."""
    X = plan.points(lgb.chart)
    d1, d2, d12 = (darboux(lgb, s).table(X) for s in (s1, s2, s1.product(s2)))
    return max_gap_rows(d12 - (ad_twist(lgb.algebra, dagger(s2(X)), d1) + d2))


def darboux_inverse_rows(lgb: TrivLgb, s: GSection, plan: SamplePlan) -> np.ndarray:
    """|Delta(s^{-1}) + Ad_s Delta(s)| at each point of the plan, (P,)."""
    X = plan.points(lgb.chart)
    d, dinv = (darboux(lgb, sec).table(X) for sec in (s, s.inverse()))
    return max_gap_rows(dinv + ad_twist(lgb.algebra, s(X), d))


def nabla_from_darboux(lgb: TrivLgb, nu: LieForm, X, t_step: float = 1e-5,
                       tol: float = 1e-6) -> np.ndarray:
    """Derivative of the family t -> Delta(exp(t nu)) at t = 0 along every
    axis at each point of X, (..., n) -> (..., n, dim): the Darboux derivative
    of the sections exp(+-t_step nu) by the stencil and law of `darboux`, on
    their matrices at X and X +- h e_k from one exponential. A finite
    disagreement beyond `tol` with the closed form `induced_connection`
    raises, since it indicates inconsistent sign conventions in the inputs;
    `tol=np.inf` skips that gate.
    """
    alg, n = lgb.algebra, lgb.chart.dim
    X = np.asarray(X, dtype=float)
    pts = X.reshape(-1, n)

    def matrices(shifted):  # exp(+-t_step nu) on the (2n + 1, P, n) stack
        values = _table_at(nu, shifted)[..., 0, :]
        return on_variety(alg, expm(alg.rep_of(np.stack([t_step * values, -t_step * values]))))

    delta = _darboux_rows(lgb, pts, lgb.chart.default_step(), matrices,
                          "section exp(t nu)")             # (n, 2, P, dim)
    got = np.moveaxis((delta[:, 0] - delta[:, 1]) / (2 * t_step), 0, 1)
    if tol < np.inf:
        gap = max_gap_rows(got - induced_connection(lgb, nu, pts))
        require_within(gap, tol, InconsistencyError,
                       "fibre-connection routes disagree by {:.3e}" + f" (tol {tol:.1e})")
    return got.reshape(X.shape + (alg.dim,))


def induced_connection(lgb: TrivLgb, nu: LieForm, X) -> np.ndarray:
    """The induced fibre connection in closed form, d nu + [omega, nu], along
    every axis at each point of the (P, n) batch X: shape (P, n, dim)."""
    return exterior_derivative(nu).table(X) + bracket_c(
        lgb.algebra, lgb.omega.table(X), nu.table(X))


# ---------------------------------------------------------------------------
# multiplicativity and the curvature identity on the total space
# ---------------------------------------------------------------------------

def multiplicativity_rows(lgb: TrivLgb, plan: SamplePlan, perturbation: LieForm = None,
                         group_scale: float = 1.0) -> np.ndarray:
    """Deviation of the total 1-form from the multiplication-compatibility
    law at each point of the plan, as a (P,) array.

    For (g, q) over the same point and matched tangents, the pulled-back form
    along fibrewise multiplication must equal Ad_{q^{-1}} of the first slot
    plus the second slot; point i draws g, q and its tangent probes from
    `default_rng([plan.seed, i])`. `perturbation` (the negative control)
    adds (Ad_{g^{-1}} - id) Ad_{g^{-1}} rho(X), which any nonzero rho breaks.
    """
    alg, n, d = lgb.algebra, lgb.chart.dim, lgb.algebra.dim
    x = plan.points(lgb.chart)
    group_coeffs, probes = _point_draws(plan, len(x), d, 2, n + 2 * d, scale=group_scale)
    # (P, 1, ...): one point and group pair per row, against (P, probes, ...)
    g, q = np.moveaxis(on_variety(alg, expm(alg.rep_of(group_coeffs))), 1, 0)[:, :, None]
    gq = on_variety(alg, g @ q)
    X, eta, theta = np.split(probes, [n, n + d], axis=-1)
    x = x[:, None, :]

    def mu(gm, eta):
        out = lgb.mu_tot(TotalPoint(x, gm), TotalTangent(X, eta))
        if perturbation is not None:
            ad_inv = ad_matrix_of_group(alg, dagger(gm))
            r = _act(ad_inv, one_form_on(perturbation, x, X))
            out = out + (_act(ad_inv, r) - r)
        return out

    ad_q_inv = ad_matrix_of_group(alg, dagger(q))
    lhs = mu(gq, _act(ad_q_inv, eta) + theta)
    rhs = _act(ad_q_inv, mu(g, eta)) + mu(q, theta)
    return max_gap_rows(lhs - rhs)


# ---------------------------------------------------------------------------
# product coordinates around a stack of anchors
# ---------------------------------------------------------------------------

def base_rows(lgb: TrivLgb, x, g, a: LieForm = None) -> np.ndarray:
    """Ad_{g^{-1}} a_k + (Ad_{g^{-1}} - id) omega_k on every base axis k at
    each total-space point (x, g) of a stack: (..., n) points and (..., r, r)
    matrices give (..., n, dim). `a` is a gauge field, zero when None; one
    Ad stack and one table each of omega and `a` cover the stack."""
    ad_inv = ad_matrix_of_group(lgb.algebra, dagger(g))[..., None, :, :]
    w = _table_at(lgb.omega, x)
    out = _act(ad_inv, w) - w
    return out if a is None else _act(ad_inv, _table_at(a, x)) + out


def total_form_rows(lgb: TrivLgb, x0, h0, uv, a: LieForm = None) -> np.ndarray:
    """The total connection form in product coordinates (u, v) around each
    anchor (x0, h0) of a stack, where (u, v) is the point (x0 + u, h0 exp(v)):
    its rows on every axis at each offset of the (m, n + dim) stack uv, for
    (P, n) anchors x0 and (P, r, r) matrices h0, shape (P, m, n + dim, dim).
    Base axes carry `base_rows` (the gauge field `a`, zero when None), fibre
    axes dexp_v of the basis; one exponential covers the offsets."""
    alg, n = lgb.algebra, lgb.chart.dim
    v = uv[:, n:]
    base = base_rows(lgb, x0[:, None, :] + uv[:, :n], h0[:, None] @ expm(alg.rep_of(v)), a)
    fibre = dexp_body(alg, v[:, None, :], np.eye(alg.dim))
    return np.concatenate([base, np.broadcast_to(fibre, base.shape[:2] + fibre.shape[1:])],
                          axis=-2)


def product_curvature(lgb: TrivLgb, x0, h0, a: LieForm = None, step: float = 1e-5):
    """The total connection form A at the origin of product coordinates
    around each anchor of a stack (see `total_form_rows`), and its two
    curvature parts there: dA + Gamma ^ A, with Gamma the base connection
    pulled back (fibre axes act trivially), and (1/2)[A ^ A]. Shapes
    (P, N, dim) and twice (P, C(N, 2), dim), N = n + dim. dA is the central
    stencil of `step` on one stack of the offsets 0, +- step e_k."""
    alg, n, d = lgb.algebra, lgb.chart.dim, lgb.algebra.dim
    N = n + d
    uv = np.zeros((2 * N + 1, N))
    uv[1::2][range(N), range(N)] = step
    uv[2::2][range(N), range(N)] = -step
    rows = total_form_rows(lgb, x0, h0, uv, a)
    partial = (rows[:, 1::2] - rows[:, 2::2]) / (2 * step)  # (P, axis, row, dim)
    a0 = rows[:, 0]
    gamma = np.zeros(a0.shape + (d,))
    gamma[:, :n] = ad_matrix_c(alg, lgb.omega.table(x0))
    i, j = np.array(increasing_indices(N, 2)).T
    cov = (partial[:, i, j] - partial[:, j, i]) + (
        _act(gamma[:, i], a0[:, j]) - _act(gamma[:, j], a0[:, i]))
    return a0, cov, 0.5 * (bracket_c(alg, a0[:, i], a0[:, j]) - bracket_c(alg, a0[:, j], a0[:, i]))


def _base_pairs(n: int, N: int) -> np.ndarray:
    """Mask of the increasing index pairs on N axes that lie in the first n;
    they come in the order of the pairs on n axes."""
    return np.array(increasing_indices(N, 2)).reshape(-1, 2)[:, 1] < n


def generalized_mc_rows(lgb: TrivLgb, zeta: LieForm, plan: SamplePlan,
                        group_scale: float = 1.0) -> np.ndarray:
    """Residual of the curvature identity for the total 1-form at each point
    of the plan, (P,), anchored at (x, g0) with g0 from `default_rng([plan.seed, i])`.

    In product coordinates the covariant differential (with the base
    connection pulled back, fibre directions acting trivially) plus the
    half-bracket square must reproduce (Ad_{g^{-1}} - id) of zeta on base
    pairs and vanish on mixed/fibre pairs.
    """
    alg = lgb.algebra
    x0 = plan.points(lgb.chart)
    coeffs, _ = _point_draws(plan, len(x0), alg.dim, 1, 0, scale=group_scale)
    g0 = on_variety(alg, expm(alg.rep_of(coeffs[:, 0])))
    _, cov, sq = product_curvature(lgb, x0, g0)
    lhs = cov + sq
    z = zeta.table(x0)
    lhs[:, _base_pairs(lgb.chart.dim, lgb.chart.dim + alg.dim)] -= (
        ad_twist(alg, dagger(g0), z) - z)
    return max_gap_rows(lhs)


def pullback_mc_rows(lgb: TrivLgb, section: GSection, zeta: LieForm,
                     plan: SamplePlan) -> np.ndarray:
    """Residual of the pulled-back curvature identity along one section at
    each point of the plan, (P,):
    del(Delta s) + (1/2)[Delta s ^, Delta s] + zeta - Ad_{s^{-1}} zeta = 0."""
    alg = lgb.algebra
    X = plan.points(lgb.chart)
    ds = darboux(lgb, section)
    lhs = cov_ext_deriv(lgb.nabla, ds)
    sq = scale_form(graded_product(bracket_pairing(alg), ds, ds), 0.5)
    z = zeta.table(X)
    return max_gap_rows(lhs.table(X) + sq.table(X) + z - ad_twist(alg, dagger(section(X)), z))
