"""Trivialized group bundles over a chart: total Maurer-Cartan form,
group-valued logarithmic derivatives of sections, the induced fibre
connection, and the curvature identity on the total space.

Each law takes the theory as one `GaugeScenario` and reads its chart, its
algebra, the horizontal potential omega of its connection
(`GaugeScenario.omega`) and, where the law has it, its central form zeta.

The total 1-form mu, the Darboux derivative of a section (mu pulled back
along it) and the connection form of the principal bundle (mu plus the
adjoint twist of the gauge field) are one kernel, `total_form`.

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

import numpy as np

from .algebra import (LieAlgebraDescriptor, ReexpansionError,
                      ad_matrix_c, ad_matrix_of_group, ad_twist, bracket_c,
                      dagger, expand_in_rep, group_exp, on_variety, require_within)
from .connection import GaugeScenario, cov_ext_deriv
from .forms import (FD_STEP, LieForm, SamplePlan, _central_offsets, _central_quotient,
                    bracket_pairing, exterior_derivative, graded_product,
                    increasing_indices, max_gap_rows, scale_form)

__all__ = [
    "GSection", "dexp_body", "total_form", "mu_tot", "one_form_on", "darboux",
    "darboux_leibniz_rows", "darboux_inverse_rows", "nabla_from_darboux",
    "induced_connection", "multiplicativity_rows", "base_rows", "total_form_rows",
    "product_curvature", "generalized_mc_rows", "pullback_mc_rows",
]

DRIFT_TOL = 1e-9


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

class _ExpStack:
    """exp(scale form(x)) at a (..., n) stack: one table of the 0-form, one exponential."""

    def __init__(self, alg: LieAlgebraDescriptor, form: LieForm, scale: float):
        self.algebra, self.form, self.scale = alg, form, scale

    def __call__(self, X):
        return group_exp(self.algebra, self.scale * _table_at(self.form, X)[..., 0, :])


class GSection:
    """A group-valued section b: chart -> G, on stacks of points.

    `stack` maps a (..., n) stack of points to the (..., r, r) stack of
    their group matrices, and `section(X)` reads it. A per-point closure of
    algebra coefficients becomes a section through `exp_of_form` of
    `form_from_components`; its stack is computed from the 0-form and scale
    that `form` and `scale` read (None otherwise) and cannot assign. Every
    finite row must lie on the group variety (VarietyError otherwise); a
    non-finite row passes through as NaN.
    A section must be a pure function of the point: the last stack is
    memoised by its coordinates and its matrices come back read-only.
    """

    def __init__(self, alg: LieAlgebraDescriptor, stack, name: str = ""):
        self.algebra, self.name, self._stack = alg, name, stack
        self._key = self._value = None

    # the 0-form and scale of an exp-section, read from its stack; None otherwise
    form = property(lambda self: self._stack.form if isinstance(self._stack, _ExpStack) else None)
    scale = property(lambda self: None if self.form is None else self._stack.scale)

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
        """b(x) = exp(scale form(x)) of an algebra-valued 0-form (`_ExpStack`)."""
        return cls(alg, _ExpStack(alg, form, scale), name)

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


def _body_coeffs(alg: LieAlgebraDescriptor, b_inv, db, what: str) -> np.ndarray:
    """b^{-1} db in the basis, the body velocity, for (..., r, r) stacks of
    b^{-1} and of the velocity db, with the drift watchdog (DRIFT_TOL,
    relative to its size) on every row."""
    coeffs, resid = expand_in_rep(alg, b_inv @ db)
    require_within(resid, DRIFT_TOL * np.maximum(1.0, np.linalg.norm(coeffs, axis=-1)),
                   ReexpansionError, what + " drifted off the variety: residual {:.3e}")
    return coeffs


def total_form(alg: LieAlgebraDescriptor, g, w, eta=None, a=None) -> np.ndarray:
    """(eta + Ad_{g^{-1}} a) + (Ad_{g^{-1}} w - w) in body coordinates, for
    (..., r, r) stacks g with the body velocity eta, the gauge-field value a
    and the omega value w broadcast; eta and a are zero when None.

    With a = None this is the total 1-form mu of the group bundle, and the
    Darboux derivative of a section b is mu at g = b, eta = b^{-1} db; with
    a gauge field it is the connection form of the principal bundle."""
    ad_inv = ad_matrix_of_group(alg, dagger(g))
    if a is not None:
        a = _act(ad_inv, a)
        eta = a if eta is None else eta + a
    defect = _act(ad_inv, w) - w
    return defect if eta is None else eta + defect


def _body_rows(alg: LieAlgebraDescriptor, matrices, X, h: float, what: str):
    """(b, b^{-1} d_k b) at each point of a (..., n) stack X, shapes
    (E..., ..., r, r) and (n, E..., ..., dim), from one stack: matrices(Y)
    gives the (E..., 2n + 1, ..., r, r) matrices on the stack Y of X shifted
    by the central offsets of step h, whose central quotient is d_k b."""
    offsets = _central_offsets(X.shape[-1], h).reshape((-1,) + (1,) * (X.ndim - 1) + X.shape[-1:])
    b = np.moveaxis(matrices(X + offsets), -X.ndim - 2, 0)
    return b[0], _body_coeffs(alg, dagger(b[0]), _central_quotient(b[1:], h), what)


def _darboux_rows(s: GaugeScenario, X, h: float, matrices, what: str) -> np.ndarray:
    """The Darboux derivative b^{-1} d_k b + (Ad_{b^{-1}} - id)(omega_k) along
    every axis at each point of a (..., n) stack X, shape (n, E..., ..., dim),
    from the matrices of `_body_rows`."""
    b0, body = _body_rows(s.algebra, matrices, X, h, what)
    w = np.moveaxis(_table_at(s.omega, X), -2, 0)  # (n, ..., dim), against (n, E..., ..., dim)
    return total_form(s.algebra, b0, w.reshape(w.shape[:1] + (1,) * (
        body.ndim - w.ndim) + w.shape[1:]), eta=body)


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


def mu_tot(s: GaugeScenario, x, g, X, eta) -> np.ndarray:
    """The total 1-form of the group bundle, eta + (Ad_{g^{-1}} - id)(omega_x(X))
    in body coordinates at the total-space points (x, g), for (..., n)
    points, (..., r, r) matrices, base directions X and body velocities eta,
    leading axes broadcast."""
    if not s.chart.contains(x):
        raise ValueError(f"point {x} is outside the chart box")
    return total_form(s.algebra, g, one_form_on(s.omega, x, X), eta=eta)


# ---------------------------------------------------------------------------
# group-valued logarithmic derivative and the induced connection
# ---------------------------------------------------------------------------

def darboux(s: GaugeScenario, section: GSection) -> LieForm:
    """Logarithmic derivative of a section relative to the horizontal data:
    components b^{-1} d_k b + (Ad_{b^{-1}} - id)(omega_k), read over a batch
    from one stack of the section at X and X +- h e_k (`_darboux_rows`), h
    the chart's default step.

    The output is finite-difference data; downstream exterior derivatives use
    a wider step (nested stencil)."""
    h, what = s.chart.default_step(), f"section {section.name!r}"

    def batch(X):
        return np.swapaxes(_darboux_rows(s, X, h, section, what), 0, 1)

    return LieForm(n=s.chart.dim, degree=1, value_target="algebra",
                   value_shape=(s.algebra.dim,), batch=batch, fd_step=10 * h,
                   box=s.chart.box)


def darboux_leibniz_rows(s: GaugeScenario, s1: GSection, s2: GSection,
                         plan: SamplePlan) -> np.ndarray:
    """|Delta(s1 s2) - Ad_{s2^{-1}} Delta(s1) - Delta(s2)| at each point of
    the plan, as a (P,) array."""
    X = plan.points(s.chart)
    d1, d2, d12 = (darboux(s, sec).table(X) for sec in (s1, s2, s1.product(s2)))
    return max_gap_rows(d12 - (ad_twist(s.algebra, dagger(s2(X)), d1) + d2))


def darboux_inverse_rows(s: GaugeScenario, section: GSection, plan: SamplePlan) -> np.ndarray:
    """|Delta(b^{-1}) + Ad_b Delta(b)| for the section b at each point of the
    plan, (P,)."""
    X = plan.points(s.chart)
    d, dinv = (darboux(s, sec).table(X) for sec in (section, section.inverse()))
    return max_gap_rows(dinv + ad_twist(s.algebra, section(X), d))


def nabla_from_darboux(s: GaugeScenario, nu: LieForm, X, t_step: float = FD_STEP) -> np.ndarray:
    """Derivative of the family t -> Delta(exp(t nu)) at t = 0 along every
    axis at each point of X, (..., n) -> (..., n, dim): the Darboux derivative
    of the sections exp(+-t_step nu) by the stencil and law of `darboux`, on
    their matrices at X and X +- h e_k from one exponential. The
    fibre-connection suite compares it with the closed form
    `induced_connection`.
    """
    alg, n = s.algebra, s.chart.dim
    X = np.asarray(X, dtype=float)
    pts = X.reshape(-1, n)

    def matrices(shifted):  # exp(+-t_step nu) on the (2n + 1, P, n) stack
        values = _table_at(nu, shifted)[..., 0, :]
        return on_variety(alg, group_exp(alg, np.stack([t_step * values, -t_step * values])))

    delta = _darboux_rows(s, pts, s.chart.default_step(), matrices,
                          "section exp(t nu)")             # (n, 2, P, dim)
    got = np.moveaxis((delta[:, 0] - delta[:, 1]) / (2 * t_step), 0, 1)
    return got.reshape(X.shape + (alg.dim,))


def induced_connection(s: GaugeScenario, nu: LieForm, X) -> np.ndarray:
    """The induced fibre connection in closed form, d nu + [omega, nu], along
    every axis at each point of the (P, n) batch X: shape (P, n, dim)."""
    return exterior_derivative(nu).table(X) + bracket_c(
        s.algebra, s.omega.table(X), nu.table(X))


# ---------------------------------------------------------------------------
# multiplicativity and the curvature identity on the total space
# ---------------------------------------------------------------------------

def multiplicativity_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Deviation of the total 1-form from the multiplication-compatibility
    law at each point of the plan, as a (P,) array.

    For (g, q) over the same point and matched tangents, the pulled-back form
    along fibrewise multiplication must equal Ad_{q^{-1}} of the first slot
    plus the second slot; point i draws g, q and its tangent probes from
    `default_rng([plan.seed, i])`.
    """
    alg, n, d = s.algebra, s.chart.dim, s.algebra.dim
    x = plan.points(s.chart)
    group_coeffs, probes = _point_draws(plan, len(x), d, 2, n + 2 * d)
    # (P, 1, ...): one point and group pair per row, against (P, probes, ...)
    g, q = np.moveaxis(on_variety(alg, group_exp(alg, group_coeffs)), 1, 0)[:, :, None]
    gq = on_variety(alg, g @ q)
    X, eta, theta = np.split(probes, [n, n + d], axis=-1)
    x = x[:, None, :]

    ad_q_inv = ad_matrix_of_group(alg, dagger(q))
    lhs = mu_tot(s, x, gq, X, _act(ad_q_inv, eta) + theta)
    rhs = _act(ad_q_inv, mu_tot(s, x, g, X, eta)) + mu_tot(s, x, q, X, theta)
    return max_gap_rows(lhs - rhs)


# ---------------------------------------------------------------------------
# product coordinates around a stack of anchors
# ---------------------------------------------------------------------------

def base_rows(s: GaugeScenario, x, g, a: LieForm = None) -> np.ndarray:
    """`total_form` on every base axis k at each total-space point (x, g) of
    a stack, no fibre velocity: (..., n) points and (..., r, r) matrices give
    (..., n, dim). `a` is a gauge field, zero when None; one Ad stack and one
    table each of omega and `a` cover the stack."""
    return total_form(s.algebra, g[..., None, :, :], _table_at(s.omega, x),
                      a=None if a is None else _table_at(a, x))


def total_form_rows(s: GaugeScenario, x0, h0, uv, a: LieForm = None) -> np.ndarray:
    """The total connection form in product coordinates (u, v) around each
    anchor (x0, h0) of a stack, where (u, v) is the point (x0 + u, h0 exp(v)):
    its rows on every axis at each offset of the (m, n + dim) stack uv, for
    (P, n) anchors x0 and (P, r, r) matrices h0, shape (P, m, n + dim, dim).
    Base axes carry `base_rows` (the gauge field `a`, zero when None), fibre
    axes dexp_v of the basis; one exponential covers the offsets."""
    alg, n = s.algebra, s.chart.dim
    v = uv[:, n:]
    base = base_rows(s, x0[:, None, :] + uv[:, :n], h0[:, None] @ group_exp(alg, v), a)
    fibre = dexp_body(alg, v[:, None, :], np.eye(alg.dim))
    return np.concatenate([base, np.broadcast_to(fibre, base.shape[:2] + fibre.shape[1:])],
                          axis=-2)


def product_curvature(s: GaugeScenario, x0, h0, a: LieForm = None):
    """The total connection form A at the origin of product coordinates
    around each anchor of a stack (see `total_form_rows`), and its two
    curvature parts there: dA + Gamma ^ A, with Gamma the base connection
    pulled back (fibre axes act trivially), and (1/2)[A ^ A]. Shapes
    (P, N, dim) and twice (P, C(N, 2), dim), N = n + dim. dA is the central
    quotient of A on one stack of the central offsets of step FD_STEP."""
    alg, n, d = s.algebra, s.chart.dim, s.algebra.dim
    N = n + d
    rows = total_form_rows(s, x0, h0, _central_offsets(N, FD_STEP), a)
    partial = _central_quotient(rows[:, 1:], FD_STEP, axis=1)  # (P, axis, row, dim)
    a0 = rows[:, 0]
    gamma = np.zeros(a0.shape + (d,))
    gamma[:, :n] = ad_matrix_c(alg, s.omega.table(x0))
    i, j = np.array(increasing_indices(N, 2)).T
    cov = (partial[:, i, j] - partial[:, j, i]) + (
        _act(gamma[:, i], a0[:, j]) - _act(gamma[:, j], a0[:, i]))
    return a0, cov, 0.5 * (bracket_c(alg, a0[:, i], a0[:, j]) - bracket_c(alg, a0[:, j], a0[:, i]))


def _base_pairs(n: int, N: int) -> np.ndarray:
    """Mask of the increasing index pairs on N axes that lie in the first n;
    they come in the order of the pairs on n axes."""
    return np.array(increasing_indices(N, 2)).reshape(-1, 2)[:, 1] < n


def generalized_mc_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Residual of the curvature identity for the total 1-form at each point
    of the plan, (P,), anchored at (x, g0) with g0 from `default_rng([plan.seed, i])`.

    In product coordinates the covariant differential (with the base
    connection pulled back, fibre directions acting trivially) plus the
    half-bracket square must reproduce (Ad_{g^{-1}} - id) of zeta on base
    pairs and vanish on mixed/fibre pairs.
    """
    alg = s.algebra
    x0 = plan.points(s.chart)
    coeffs, _ = _point_draws(plan, len(x0), alg.dim, 1, 0)
    g0 = on_variety(alg, group_exp(alg, coeffs[:, 0]))
    _, cov, sq = product_curvature(s, x0, g0)
    lhs = cov + sq
    z = s.zeta.table(x0)
    lhs[:, _base_pairs(s.chart.dim, s.chart.dim + alg.dim)] -= (
        ad_twist(alg, dagger(g0), z) - z)
    return max_gap_rows(lhs)


def pullback_mc_rows(s: GaugeScenario, section: GSection, plan: SamplePlan) -> np.ndarray:
    """Residual of the pulled-back curvature identity along one section at
    each point of the plan, (P,):
    del(Delta s) + (1/2)[Delta s ^, Delta s] + zeta - Ad_{s^{-1}} zeta = 0."""
    alg = s.algebra
    X = plan.points(s.chart)
    ds = darboux(s, section)
    lhs = cov_ext_deriv(s.nabla, ds)
    sq = scale_form(graded_product(bracket_pairing(alg), ds, ds), 0.5)
    z = s.zeta.table(X)
    return max_gap_rows(lhs.table(X) + sq.table(X) + z - ad_twist(alg, dagger(section(X)), z))
