"""Connections on the algebra bundle, the theory they belong to, covariant
exterior calculus, curvature, infinitesimal compatibility checks, and field
redefinitions.

A connection has one definition: its algebra-valued potential omega, from
which Gamma = ad(omega) is derived, or an endomorphism-valued 1-form Gamma
given alone (so that deliberately broken inputs can be expressed for
negative tests). The group-bundle and principal laws need omega.

A `GaugeScenario` is the one theory value every law reads: the chart, the
algebra, the connection, the central 2-form zeta and the gauge field A.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import LieAlgebraDescriptor, ad_matrix_c
from .forms import (Chart, LieForm, PolyData, SamplePlan, add_forms,
                    bracket_pairing, endo_action_pairing, endo_compose_pairing,
                    exterior_derivative, form_from_poly, graded_product,
                    max_gap, max_gap_rows, scale_form)

__all__ = [
    "COMPATIBILITY_TOL", "LabConnection", "GaugeScenario", "CompatibilityReport",
    "ad_mapped_form", "cov_ext_deriv", "curvature",
    "potential_curvature", "check_compatibility", "field_redefine",
]

# bound on both compatibility residuals: the report's verdict, the suite, and
# the gate that `cym.harness.run_suite` runs before the suites that need the pair
COMPATIBILITY_TOL = 1e-6


def ad_mapped_form(alg: LieAlgebraDescriptor, omega: LieForm) -> LieForm:
    """Push an algebra-valued form through ad: components become matrices.

    ad is linear in the coefficients, so polynomial payloads and analytic
    derivatives survive exactly.
    """
    if omega.value_target != "algebra":
        raise ValueError("ad_mapped_form expects an algebra-valued form")
    d = alg.dim
    if omega.poly is not None:
        terms = {idx: [(ad_matrix_c(alg, c), e) for c, e in lst]
                 for idx, lst in omega.poly.terms.items()}
        return form_from_poly(omega.n, omega.degree, "endomorphism", (d, d),
                              PolyData(omega.n, omega.degree, (d, d), terms),
                              box=omega.box, fd_step=omega.fd_step)
    d_omega = omega.analytic_d
    return LieForm(n=omega.n, degree=omega.degree, value_target="endomorphism",
                   value_shape=(d, d), batch=lambda X: ad_matrix_c(alg, omega.table(X)),
                   analytic_d=None if d_omega is None else (
                       lambda X: ad_matrix_c(alg, d_omega(X))),
                   fd_step=omega.fd_step, box=omega.box)


@dataclass
class LabConnection:
    """del = d + Gamma on sections of the algebra bundle, defined by exactly
    one of: its potential `omega` (`from_omega`), with Gamma = ad(omega)
    derived from it, or a Gamma given alone (`given_gamma`)."""

    algebra: LieAlgebraDescriptor
    given_gamma: LieForm = None
    omega: LieForm = None

    def __post_init__(self):
        if (self.given_gamma is None) == (self.omega is None):
            raise ValueError("a connection is its potential omega or a Gamma given "
                             "alone: give exactly one")
        if self.omega is None:
            if self.given_gamma.degree != 1 or self.given_gamma.value_target != "endomorphism":
                raise ValueError("gamma must be an endomorphism-valued 1-form")
        elif self.omega.degree != 1 or self.omega.value_target != "algebra":
            raise ValueError("omega must be an algebra-valued 1-form")

    @classmethod
    def from_omega(cls, alg: LieAlgebraDescriptor, omega: LieForm) -> "LabConnection":
        return cls(algebra=alg, omega=omega)

    @cached_property
    def gamma(self) -> LieForm:
        """Gamma: ad(omega) when del has a potential, else the given Gamma."""
        return self.given_gamma if self.omega is None else ad_mapped_form(self.algebra, self.omega)


@dataclass
class GaugeScenario:
    """The data every law is a statement about: the connection del on the
    algebra bundle (with its potential omega when it has one), the central
    2-form zeta with R = ad(zeta), and the gauge field A."""

    chart: Chart
    algebra: LieAlgebraDescriptor
    nabla: LabConnection
    zeta: LieForm
    gauge_field: LieForm

    def __post_init__(self):
        if self.gauge_field.degree != 1 or self.gauge_field.value_target != "algebra":
            raise ValueError("the gauge field must be an algebra-valued 1-form")
        if self.zeta.degree != 2 or self.zeta.value_target != "algebra":
            raise ValueError("the central form must be an algebra-valued 2-form")

    @property
    def omega(self) -> LieForm:
        """The horizontal potential of del, which the group-bundle and
        principal laws read; ValueError when del has none."""
        if self.nabla.omega is None:
            raise ValueError("scenario carries no horizontal potential; the "
                             "group-bundle and principal laws need one")
        return self.nabla.omega


def cov_ext_deriv(nabla: LabConnection, alpha: LieForm) -> LieForm:
    """Covariant exterior derivative d alpha + Gamma ^ alpha (algebra-valued alpha)."""
    if alpha.value_target != "algebra":
        raise ValueError("covariant exterior derivative implemented for "
                         "algebra-valued forms")
    return add_forms(exterior_derivative(alpha),
                     graded_product(endo_action_pairing(nabla.algebra),
                                    nabla.gamma, alpha))


def curvature(nabla: LabConnection) -> LieForm:
    """The endomorphism-valued 2-form R = d Gamma + Gamma ^ Gamma."""
    gg = graded_product(endo_compose_pairing(nabla.algebra), nabla.gamma, nabla.gamma)
    return add_forms(exterior_derivative(nabla.gamma), gg)


def potential_curvature(alg: LieAlgebraDescriptor, omega: LieForm) -> LieForm:
    """F = d omega + (1/2)[omega ^, omega]."""
    sq = scale_form(graded_product(bracket_pairing(alg), omega, omega), 0.5)
    return add_forms(exterior_derivative(omega), sq)


@dataclass
class CompatibilityReport:
    """Residuals of the two infinitesimal compatibility laws at each point of
    the plan, and their largest gaps over it."""

    derivation_rows: np.ndarray  # (P,) per-point residuals
    curvature_rows: np.ndarray

    @property
    def derivation_residual(self) -> float:
        return max_gap((self.derivation_rows,))

    @property
    def curvature_residual(self) -> float:
        return max_gap((self.curvature_rows,))

    @property
    def passed(self) -> bool:
        return (self.derivation_residual <= COMPATIBILITY_TOL
                and self.curvature_residual <= COMPATIBILITY_TOL)


def check_compatibility(s: GaugeScenario, plan: SamplePlan) -> CompatibilityReport:
    """Evaluate both compatibility conditions of the scenario's connection
    and central form on the plan's points.

    Derivation law: Gamma(X) must act as a derivation of the bracket,
    equivalently del[mu,nu] = [del mu,nu] + [mu,del nu] for all sections
    (the exterior-derivative parts cancel by bilinearity, so constant basis
    sections decide it pointwise). Curvature law: R(X,Y) = ad(zeta(X,Y)).
    Both are read from the component tables of the forms over all points.
    """
    nabla, alg = s.nabla, s.nabla.algebra
    c = alg.structure_constants
    points = plan.points(s.chart)
    g = nabla.gamma.table(points)  # (P, n, d, d)
    lhs = np.einsum('abm,...km->...abk', c, g)
    rhs = (np.einsum('...ma,mbk->...abk', g, c)
           + np.einsum('...mb,amk->...abk', g, c))
    curv = curvature(nabla).table(points) - ad_matrix_c(alg, s.zeta.table(points))
    return CompatibilityReport(derivation_rows=max_gap_rows(lhs - rhs),
                               curvature_rows=max_gap_rows(curv))


def field_redefine(s: GaugeScenario, lam: LieForm) -> GaugeScenario:
    """The scenario with its splitting shifted by a 1-form lambda.

    gauge field -> A + lambda, connection -> del - ad(lambda) (its potential
    omega -> omega - lambda when it has one, else Gamma -> Gamma - ad(lambda)),
    zeta -> zeta - del lambda + (1/2)[lambda ^, lambda].
    """
    nabla, alg = s.nabla, s.algebra
    if lam.degree != 1 or lam.value_target != "algebra":
        raise ValueError("lambda must be an algebra-valued 1-form")
    new_a = add_forms(s.gauge_field, lam)
    if nabla.omega is not None:
        new_nabla = LabConnection.from_omega(alg, add_forms(nabla.omega, lam, 1.0, -1.0))
    else:
        new_nabla = LabConnection(alg, add_forms(nabla.gamma, ad_mapped_form(alg, lam), 1.0, -1.0))
    dlam = cov_ext_deriv(nabla, lam)
    sq = scale_form(graded_product(bracket_pairing(alg), lam, lam), 0.5)
    new_zeta = add_forms(add_forms(s.zeta, dlam, 1.0, -1.0), sq)
    return GaugeScenario(s.chart, alg, new_nabla, new_zeta, new_a)
