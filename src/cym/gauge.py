"""Chart-local gauge theory: field strength, gauge-change laws, the Bianchi
identity, the Lagrangian density, and the topological charge integral.

All Lagrangian-level operations run behind a compatibility gate: the fibre
connection and the central 2-form must satisfy the two pointwise compatibility
laws before any density is trusted (the invariance proofs depend on them).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .algebra import LieAlgebraDescriptor, ad_twist, dagger
from .connection import (COMPATIBILITY_TOL, CompatibilityReport,
                         FieldRedefinition, LabConnection, check_compatibility,
                         cov_ext_deriv)
from .forms import (Chart, LieForm, SamplePlan, add_forms, bracket_pairing,
                    graded_product, hodge_star, kappa_wedge_top, max_gap_rows,
                    scale_form)
from .lgb import GSection, TrivLgb, darboux

__all__ = [
    "GaugeScenario", "CompatibilityGateError", "local_field_strength",
    "ChangeOfGaugeResult", "gauge_changed_potential", "change_of_gauge",
    "bianchi_rows", "lagrangian_density", "ChargeResult", "instanton_charge",
    "density_gauge_invariance_rows", "density_infinitesimal_rows",
    "field_redef_rows", "self_duality_rows",
]


class CompatibilityGateError(RuntimeError):
    """Raised when a Lagrangian-level operation is requested on a scenario
    whose connection/central-form pair fails the compatibility laws."""

    def __init__(self, report: CompatibilityReport):
        self.report = report
        super().__init__(
            "compatibility gate failed: derivation residual "
            f"{report.derivation_residual:.3e}, curvature residual "
            f"{report.curvature_residual:.3e}")


@dataclass
class GaugeScenario:
    chart: Chart
    algebra: LieAlgebraDescriptor
    nabla: LabConnection
    zeta: LieForm
    gauge_field: LieForm
    name: str = ""
    gate_plan: SamplePlan = field(default_factory=lambda: SamplePlan(count=16, seed=0))
    gate_tol: float = COMPATIBILITY_TOL

    def __post_init__(self):
        if self.gauge_field.degree != 1 or self.gauge_field.value_target != "algebra":
            raise ValueError("the gauge field must be an algebra-valued 1-form")
        if self.zeta.degree != 2 or self.zeta.value_target != "algebra":
            raise ValueError("the central form must be an algebra-valued 2-form")
        self._gate_report = None

    def compatibility(self) -> CompatibilityReport:
        if self._gate_report is None:
            self._gate_report = check_compatibility(
                self.nabla, self.zeta, self.chart, self.gate_plan)
        return self._gate_report

    def require_gate(self):
        rep = self.compatibility()
        if not (rep.derivation_residual <= self.gate_tol
                and rep.curvature_residual <= self.gate_tol):
            raise CompatibilityGateError(rep)

    @property
    def lgb(self) -> TrivLgb:
        if self.nabla.omega is None:
            raise ValueError("scenario carries no horizontal potential; "
                             "section-based gauge changes are unavailable")
        return TrivLgb(self.chart, self.algebra, self.nabla.omega)

    def with_gauge_field(self, a: LieForm, name: str = None) -> "GaugeScenario":
        out = GaugeScenario(chart=self.chart, algebra=self.algebra,
                            nabla=self.nabla, zeta=self.zeta, gauge_field=a,
                            name=name or self.name, gate_plan=self.gate_plan,
                            gate_tol=self.gate_tol)
        out._gate_report = self._gate_report
        return out


# ---------------------------------------------------------------------------
# field strength and gauge transformations
# ---------------------------------------------------------------------------

def local_field_strength(s: GaugeScenario, gate: bool = True) -> LieForm:
    """F = covariant d of A plus half its bracket square plus the central form."""
    if gate:
        s.require_gate()
    a = s.gauge_field
    if a.poly is not None and not a.poly.terms:
        return s.zeta  # A is identically zero, so both A-terms vanish
    sq = scale_form(graded_product(bracket_pairing(s.algebra), a, a), 0.5)
    return add_forms(add_forms(cov_ext_deriv(s.nabla, a), sq), s.zeta)


@dataclass
class ChangeOfGaugeResult:
    a_new: LieForm
    f_rows: np.ndarray  # (P,) residual of the field-strength law per point


def _adjoint_twist(alg: LieAlgebraDescriptor, sigma: GSection, f: LieForm) -> LieForm:
    """Ad_{sigma^{-1}} f, read over a batch from one stack of the section."""
    return LieForm(n=f.n, degree=f.degree, value_target="algebra",
                   value_shape=f.value_shape,
                   batch=lambda X: ad_twist(alg, dagger(sigma(X)), f.table(X)),
                   fd_step=f.fd_step, box=f.box)


def gauge_changed_potential(s: GaugeScenario, sigma: GSection) -> LieForm:
    """A' = Ad_{sigma^{-1}} A + Delta sigma."""
    twisted = _adjoint_twist(s.algebra, sigma, s.gauge_field)
    dsig = darboux(s.lgb, sigma)
    return LieForm(n=s.chart.dim, degree=1, value_target="algebra",
                   value_shape=(s.algebra.dim,),
                   batch=lambda X: twisted.table(X) + dsig.table(X),
                   fd_step=dsig.fd_step, box=s.chart.box)


def change_of_gauge(s: GaugeScenario, sigma: GSection,
                    plan: SamplePlan = None) -> ChangeOfGaugeResult:
    """A' = `gauge_changed_potential`, and the residual of the induced
    transformation law F(A') = Ad_{sigma^{-1}} F(A) at each point of the plan."""
    s.require_gate()
    plan = plan or SamplePlan(count=16, seed=1)
    a_new = gauge_changed_potential(s, sigma)
    f_new = local_field_strength(s.with_gauge_field(a_new))
    twisted = _adjoint_twist(s.algebra, sigma, local_field_strength(s))
    X = plan.points(s.chart)
    return ChangeOfGaugeResult(a_new, max_gap_rows(f_new.table(X) - twisted.table(X)))


def bianchi_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Per-point residuals of the differential identity binding F, A and the
    central form: covariant d of F plus the bracket with A must equal
    covariant d of zeta."""
    f = local_field_strength(s)
    lhs = add_forms(cov_ext_deriv(s.nabla, f),
                    graded_product(bracket_pairing(s.algebra), s.gauge_field, f))
    rhs = cov_ext_deriv(s.nabla, s.zeta)
    # below three dimensions both sides are stored as zero top forms (see
    # exterior_derivative), so every point still yields its exact zero gap
    points = plan.points(s.chart)
    return max_gap_rows(lhs.table(points) - rhs.table(points))


# ---------------------------------------------------------------------------
# Lagrangian density and topological charge
# ---------------------------------------------------------------------------

def lagrangian_density(s: GaugeScenario, gate: bool = True):
    """X -> -1/2 kappa(F ^, *F) top coefficient (the scalar Lagrangian) at
    each point of a (..., n) stack, read from the top-degree table."""
    if gate:
        s.require_gate()
    f = local_field_strength(s, gate=False)
    paired = kappa_wedge_top(s.algebra, f, hodge_star(s.chart, f))

    def density(X):
        X = np.asarray(X, dtype=float)
        top = paired.table(X.reshape(-1, s.chart.dim))[:, 0]
        return (-0.5 * top).reshape(X.shape[:-1])[()]

    return density


@dataclass
class ChargeResult:
    box_value: float
    tail: float
    radius: float
    order: int

    @property
    def total(self) -> float:
        return self.box_value + self.tail


def instanton_charge(s: GaugeScenario, radius: float = 20.0,
                     order: int = 24) -> ChargeResult:
    """(1/16 pi^2) times the oriented integral of kappa(F ^, F) over the chart,
    by tensor-product Gauss-Legendre quadrature on [-radius, radius]^4 plus an
    analytic tail for integrands decaying like (1 + r^2)^{-4}.

    The nodes pass through the odd quintic map t -> t (1 + (radius - 1) t^4),
    which keeps unit node density near the origin (where a localized integrand
    concentrates) while still reaching the truncation radius at t = +-1."""
    if s.chart.dim != 4:
        raise ValueError("the charge integral needs a four-dimensional chart")
    s.require_gate()
    f = local_field_strength(s, gate=False)
    paired = kappa_wedge_top(s.algebra, f, f)

    t, w = leggauss(order)
    if radius > 1.0:
        nodes = t * (1.0 + (radius - 1.0) * t ** 4)
        weights = w * (1.0 + 5.0 * (radius - 1.0) * t ** 4)
    else:
        nodes = t * radius
        weights = w * radius
    # one chunk per (x0, x1) node pair: the order^2 nodes of the (x2, x3) plane
    chunk = np.empty((order ** 2, 4))
    chunk[:, 2:] = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    plane_weights = np.outer(weights, weights).ravel()
    box = 0.0
    for i0, i1 in np.ndindex(order, order):
        chunk[:, 0], chunk[:, 1] = nodes[i0], nodes[i1]
        box += weights[i0] * weights[i1] * (plane_weights @ paired.table(chunk)[:, 0])

    # tail: fit the radial model c/(1+r^2)^4 on a sphere of the cutoff radius
    dirs = []
    for k in range(4):
        for sgn in (1.0, -1.0):
            e = np.zeros(4)
            e[k] = sgn
            dirs.append(e)
    diag = np.ones(4) / 2.0
    for signs in ([1, 1, 1, 1], [1, -1, 1, -1], [-1, 1, 1, -1], [-1, -1, 1, 1]):
        dirs.append(diag * np.asarray(signs, dtype=float) * 2.0 / np.sqrt(4))
    u = 1.0 + radius ** 2
    tail_points = np.array([radius * d / np.linalg.norm(d) for d in dirs])
    c_fit = float(np.mean(paired.table(tail_points)[:, 0] * u ** 4))
    if abs(c_fit) > 1e4:
        warnings.warn("charge integrand does not appear to decay; the tail "
                      "estimate (and the charge itself) is unreliable")
    tail = c_fit * 2 * np.pi ** 2 * (1.0 / (4 * u ** 2) - 1.0 / (6 * u ** 3))

    scale = s.chart.orientation / (16 * np.pi ** 2)
    return ChargeResult(box_value=float(scale * box), tail=float(scale * tail),
                        radius=radius, order=order)


# ---------------------------------------------------------------------------
# invariance residuals
# ---------------------------------------------------------------------------

def density_gauge_invariance_rows(s: GaugeScenario, sigma: GSection,
                                  plan: SamplePlan) -> np.ndarray:
    """Difference of the Lagrangian before and after a gauge change at each
    point of the plan, (P,)."""
    X = plan.points(s.chart)
    before = lagrangian_density(s)(X)
    changed = s.with_gauge_field(gauge_changed_potential(s, sigma))
    return max_gap_rows(lagrangian_density(changed, gate=False)(X) - before)


def density_infinitesimal_rows(s: GaugeScenario, eps: LieForm, plan: SamplePlan,
                               t_step: float = 1e-5) -> np.ndarray:
    """Magnitude of the t-derivative of the density along exp(t eps) at
    each point of the plan, (P,)."""
    s.require_gate()
    X = plan.points(s.chart)

    def density_at(t):
        sec = GSection.exp_of_form(s.algebra, eps, t, name="exp(teps)")
        return lagrangian_density(s.with_gauge_field(gauge_changed_potential(s, sec)),
                                  gate=False)(X)

    return max_gap_rows((density_at(t_step) - density_at(-t_step)) / (2 * t_step))


def field_redef_rows(s: GaugeScenario, shifted: FieldRedefinition,
                     plan: SamplePlan) -> np.ndarray:
    """Per-point gap between the field strength before and after a shift of
    the splitting (`field_redefine`); the field strength must not see it."""
    f_before = local_field_strength(s)
    after = GaugeScenario(chart=s.chart, algebra=s.algebra, nabla=shifted.nabla,
                          zeta=shifted.zeta, gauge_field=shifted.gauge_field,
                          name=s.name, gate_plan=s.gate_plan, gate_tol=s.gate_tol)
    f_after = local_field_strength(after, gate=False)
    points = plan.points(s.chart)
    return max_gap_rows(f_after.table(points) - f_before.table(points))


def self_duality_rows(zeta: LieForm, chart: Chart, plan: SamplePlan) -> np.ndarray:
    """Deviation of the central form from its own Hodge dual at each point
    of the plan, (P,)."""
    X = plan.points(chart)
    return max_gap_rows(hodge_star(chart, zeta).table(X) - zeta.table(X))
