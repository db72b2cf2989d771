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
from scipy.linalg import expm

from .algebra import (GroupElement, LieAlgebraDescriptor, ReexpansionError,
                      ad_matrix_c, ad_matrix_of_group, bracket_c, expand_in_rep,
                      on_variety, require_within)
from .connection import LabConnection, cov_ext_deriv
from .forms import (Chart, LieForm, SamplePlan, add_forms, bracket_pairing,
                    endo_action_pairing, exterior_derivative, graded_product,
                    increasing_indices, max_gap, max_gap_of, max_gap_rows,
                    scale_form)

__all__ = [
    "TotalPoint", "TotalTangent", "TrivLgb", "GSection", "dexp_body",
    "InconsistencyError", "one_form_on",
    "group_sample", "darboux", "darboux_leibniz_residual",
    "darboux_inverse_residual", "nabla_from_darboux", "induced_connection",
    "multiplicativity_rows", "multiplicativity_residual",
    "generalized_mc_residual",
    "pullback_mc_residual",
]

DRIFT_TOL = 1e-9


class InconsistencyError(RuntimeError):
    """Two routes to the same quantity disagree beyond tolerance —
    usually a sign-convention mismatch in caller-supplied data."""


@dataclass
class TotalPoint:
    x: np.ndarray
    g: GroupElement  # or a (..., r, r) stack of matrices, for a batch of x


@dataclass
class TotalTangent:
    """Base direction X plus fibre velocity in body coordinates."""

    X: np.ndarray
    eta: np.ndarray


def dexp_body(alg: LieAlgebraDescriptor, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Body velocity of s -> exp(v + s w) at s = 0.

    exp(-v) d/ds exp(v + s w) = sum_k (-ad_v)^k w / (k+1)!.
    """
    adv = ad_matrix_c(alg, v)
    term = np.asarray(w, dtype=float)
    out = term.copy()
    for k in range(1, 40):
        term = -(adv @ term) / (k + 1)
        out += term
        if np.abs(term).max() < 1e-18:
            break
    return out


def group_sample(alg: LieAlgebraDescriptor, rng: np.random.Generator,
                 scale: float = 1.0) -> GroupElement:
    return GroupElement(alg, expm(alg.rep_of(rng.normal(scale=scale, size=alg.dim))))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

class GSection:
    """A group-valued section b: chart -> G, differentiated on matrix entries.

    `fn` must be a pure function of the point: calling the section memoises
    its value at the last point seen, keyed by the point's coordinates (not
    the array's identity), so repeated calls at one point cost one `fn`.
    """

    def __init__(self, alg: LieAlgebraDescriptor, fn, name: str = ""):
        self.algebra = alg
        self.fn = fn
        self.name = name
        self._key = None
        self._value = None

    def __call__(self, x) -> GroupElement:
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key != self._key:
            value = self.fn(x)
            self._key, self._value = key, value
        return self._value

    @classmethod
    def identity(cls, alg: LieAlgebraDescriptor) -> "GSection":
        eye = alg.group_identity()
        return cls(alg, lambda x: eye, name="id")

    @classmethod
    def constant(cls, g: GroupElement, name: str = "const") -> "GSection":
        return cls(g.algebra, lambda x: g, name=name)

    @classmethod
    def from_exp_coeffs(cls, alg: LieAlgebraDescriptor, coeff_fn,
                        name: str = "exp") -> "GSection":
        """b(x) = exp of the algebra element with coefficients coeff_fn(x)."""
        def fn(x):
            return GroupElement(alg, expm(alg.rep_of(coeff_fn(x))))
        return cls(alg, fn, name=name)

    def product(self, other: "GSection") -> "GSection":
        if other.algebra is not self.algebra:
            raise ValueError("sections live in different algebras")
        return GSection(self.algebra, lambda x: self.fn(x) @ other.fn(x),
                        name=f"{self.name}*{other.name}")

    def inverse(self) -> "GSection":
        return GSection(self.algebra, lambda x: self.fn(x).inverse(),
                        name=f"{self.name}^-1")

    def body_derivative(self, x, axis: int, h: float) -> np.ndarray:
        """b(x)^{-1} d_axis b(x) by a central matrix-entry stencil, re-expanded
        in the basis. Raises when the out-of-span drift exceeds the watchdog."""
        x = np.asarray(x, dtype=float)
        step = np.zeros_like(x)
        step[axis] = h
        return _body_velocity(self.algebra, self(x).matrix, self.fn(x + step).matrix,
                              self.fn(x - step).matrix, h,
                              f"section {self.name!r} at axis {axis}")


def _body_velocity(alg: LieAlgebraDescriptor, b, b_plus, b_minus, h: float,
                   what: str) -> np.ndarray:
    """b^{-1} (b_plus - b_minus) / 2h in the basis, the central-stencil body
    velocity, for (..., r, r) stacks, with the drift watchdog (DRIFT_TOL,
    relative to its size) on every row."""
    db = (b_plus - b_minus) / (2 * h)
    coeffs, resid = expand_in_rep(alg, np.conj(np.swapaxes(b, -1, -2)) @ db)
    require_within(resid, DRIFT_TOL * np.maximum(1.0, np.linalg.norm(coeffs, axis=-1)),
                   ReexpansionError, what + " drifted off the variety: residual {:.3e}")
    return coeffs


def _mu_rows(alg: LieAlgebraDescriptor, g, eta, w) -> np.ndarray:
    """eta + (Ad_{g^{-1}} - id)(w): the total 1-form at g on body velocity eta
    and horizontal value w, for (..., r, r) stacks g with eta and w broadcast.
    The Darboux derivative of a section b is this at g = b, eta = b^{-1} db."""
    ad_inv = ad_matrix_of_group(alg, np.conj(np.swapaxes(g, -1, -2)))
    return eta + ((ad_inv @ w[..., None])[..., 0] - w)


def one_form_on(form: LieForm, x, X) -> np.ndarray:
    """form_x(X) of a vector-valued 1-form, summed over the axes in order;
    the leading axes of x and X broadcast."""
    x = np.asarray(x, dtype=float)
    table = form.table(x.reshape(-1, form.n)).reshape(x.shape + form.value_shape)
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
        return _mu_rows(self.algebra, getattr(p.g, "matrix", p.g), t.eta,
                        one_form_on(self.omega, p.x, t.X))


# ---------------------------------------------------------------------------
# group-valued logarithmic derivative and the induced connection
# ---------------------------------------------------------------------------

def darboux(lgb: TrivLgb, section: GSection, h: float = None) -> LieForm:
    """Logarithmic derivative of a section relative to the horizontal data:
    components b^{-1} d_k b + (Ad_{b^{-1}} - id)(omega_k).

    The output is finite-difference data; downstream exterior derivatives use
    a wider step (nested stencil)."""
    alg = lgb.algebra
    h = h or lgb.chart.default_step()

    def comp(x, idx):
        k = idx[0]
        return _mu_rows(alg, section(x).matrix, section.body_derivative(x, k, h),
                        lgb.omega.components(x, (k,)))

    return LieForm(n=lgb.chart.dim, degree=1, value_target="algebra",
                   value_shape=(alg.dim,), components=comp,
                   fd_step=10 * lgb.chart.default_step(), box=lgb.chart.box)


@max_gap_of
def darboux_leibniz_residual(lgb: TrivLgb, s1: GSection, s2: GSection,
                             plan: SamplePlan) -> float:
    """max |Delta(s1 s2) - Ad_{s2^{-1}} Delta(s1) - Delta(s2)| over the plan."""
    d1 = darboux(lgb, s1)
    d2 = darboux(lgb, s2)
    d12 = darboux(lgb, s1.product(s2))
    for x in plan.points(lgb.chart):
        ad_inv = ad_matrix_of_group(lgb.algebra, s2(x).matrix.conj().T)
        for k in range(lgb.chart.dim):
            lhs = d12.components(x, (k,))
            rhs = ad_inv @ d1.components(x, (k,)) + d2.components(x, (k,))
            yield lhs - rhs


@max_gap_of
def darboux_inverse_residual(lgb: TrivLgb, s: GSection, plan: SamplePlan) -> float:
    """max |Delta(s^{-1}) + Ad_s Delta(s)| over the plan."""
    d = darboux(lgb, s)
    dinv = darboux(lgb, s.inverse())
    for x in plan.points(lgb.chart):
        ad_s = ad_matrix_of_group(lgb.algebra, s(x).matrix)
        for k in range(lgb.chart.dim):
            yield dinv.components(x, (k,)) + ad_s @ d.components(x, (k,))


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
    h = lgb.chart.default_step()
    steps = np.concatenate([np.zeros((1, n)), np.kron(np.eye(n), [[h], [-h]])])  # 0, +-h e_k
    shifted = pts + steps[:, None, :]                      # (2n + 1, P, n)
    values = nu.table(shifted.reshape(-1, n))[:, 0].reshape(shifted.shape[:2] + (alg.dim,))
    b = on_variety(alg, expm(alg.rep_of(np.stack([t_step * values, -t_step * values]))))
    b0 = b[:, :1]                                          # (2, 1, P, r, r)
    body = _body_velocity(alg, b0, b[:, 1::2], b[:, 2::2], h, "section exp(t nu)")
    w = np.swapaxes(lgb.omega.table(pts), 0, 1)            # (n, P, dim)
    delta = _mu_rows(alg, b0, body, w)                     # (2, n, P, dim)
    got = np.moveaxis((delta[0] - delta[1]) / (2 * t_step), 0, 1)
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
    group_coeffs, probes = [], []
    for i in range(len(x)):
        rng = np.random.default_rng([plan.seed, i])
        group_coeffs.append(rng.normal(scale=group_scale, size=(2, d)))
        probes.append(rng.normal(size=(plan.tangent_probes, n + 2 * d)))
    # (P, 1, ...): one point and group pair per row, against (P, probes, ...)
    g, q = np.moveaxis(on_variety(alg, expm(alg.rep_of(np.array(group_coeffs)))),
                       1, 0)[:, :, None]
    gq = on_variety(alg, g @ q)
    X, eta, theta = np.split(np.array(probes), [n, n + d], axis=-1)
    x = x[:, None, :]

    def mu(gm, eta):
        out = lgb.mu_tot(TotalPoint(x, gm), TotalTangent(X, eta))
        if perturbation is not None:
            ad_inv = ad_matrix_of_group(alg, np.conj(np.swapaxes(gm, -1, -2)))
            r = (ad_inv @ one_form_on(perturbation, x, X)[..., None])[..., 0]
            out = out + ((ad_inv @ r[..., None])[..., 0] - r)
        return out

    ad_q_inv = ad_matrix_of_group(alg, np.conj(np.swapaxes(q, -1, -2)))
    lhs = mu(gq, (ad_q_inv @ eta[..., None])[..., 0] + theta)
    rhs = (ad_q_inv @ mu(g, eta)[..., None])[..., 0] + mu(q, theta)
    return max_gap_rows(lhs - rhs)


def multiplicativity_residual(lgb, plan, perturbation=None, group_scale=1.0) -> float:
    """The largest `multiplicativity_rows` gap over the plan."""
    return max_gap(multiplicativity_rows(lgb, plan, perturbation, group_scale))


def _total_mu_form(lgb: TrivLgb, x0: np.ndarray, g0: GroupElement) -> LieForm:
    """The total 1-form in product coordinates (u, v) centred at (x0, g0):
    the point parametrized by (u, v) is (x0 + u, g0 exp(v))."""
    alg = lgb.algebra
    n = lgb.chart.dim
    d = alg.dim
    g0m = g0.matrix

    def comp(uv, idx):
        i = idx[0]
        v = uv[n:]
        if i >= n:
            return dexp_body(alg, v, np.eye(d)[i - n])
        return _mu_rows(alg, g0m @ expm(alg.rep_of(v)), 0.0,
                        lgb.omega.components(x0 + uv[:n], (i,)))

    return LieForm(n=n + d, degree=1, value_target="algebra", value_shape=(d,),
                   components=comp, fd_step=1e-5)


@max_gap_of
def generalized_mc_residual(lgb: TrivLgb, zeta: LieForm, plan: SamplePlan,
                            group_scale: float = 1.0) -> float:
    """Residual of the curvature identity for the total 1-form.

    In product coordinates the covariant differential (with the base
    connection pulled back, fibre directions acting trivially) plus the
    half-bracket square must reproduce (Ad_{g^{-1}} - id) of zeta on base
    pairs and vanish on mixed/fibre pairs.
    """
    alg = lgb.algebra
    n = lgb.chart.dim
    d = alg.dim
    rng = plan.rng()

    def gamma_comp(x0):
        def comp(uv, idx):
            i = idx[0]
            if i >= n:
                return np.zeros((d, d))
            return ad_matrix_c(alg, lgb.omega.components(x0 + uv[:n], (i,)))
        return comp

    for x0 in plan.points(lgb.chart):
        g0 = group_sample(alg, rng, group_scale)
        mu = _total_mu_form(lgb, x0, g0)
        gam = LieForm(n=n + d, degree=1, value_target="endomorphism",
                      value_shape=(d, d), components=gamma_comp(x0), fd_step=1e-5)
        two_form = add_forms(
            add_forms(exterior_derivative(mu),
                      graded_product(endo_action_pairing(alg), gam, mu)),
            scale_form(graded_product(bracket_pairing(alg), mu, mu), 0.5))
        ad_inv = ad_matrix_of_group(alg, g0.matrix.conj().T)
        origin = np.zeros(n + d)
        for (i, j) in increasing_indices(n + d, 2):
            lhs = two_form.components(origin, (i, j))
            if j < n:
                z = zeta.components(x0, (i, j))
                lhs = lhs - (ad_inv @ z - z)
            yield lhs


@max_gap_of
def pullback_mc_residual(lgb: TrivLgb, section: GSection, zeta: LieForm,
                         plan: SamplePlan) -> float:
    """Residual of the pulled-back curvature identity along one section:
    del(Delta s) + (1/2)[Delta s ^, Delta s] + zeta - Ad_{s^{-1}} zeta = 0."""
    alg = lgb.algebra
    ds = darboux(lgb, section)
    lhs = cov_ext_deriv(lgb.nabla, ds)
    sq = scale_form(graded_product(bracket_pairing(alg), ds, ds), 0.5)
    for x in plan.points(lgb.chart):
        ad_inv = ad_matrix_of_group(alg, section(x).matrix.conj().T)
        for idx in increasing_indices(lgb.chart.dim, 2):
            z = zeta.components(x, idx)
            yield lhs.components(x, idx) + sq.components(x, idx) + z - ad_inv @ z
