"""Chart-local gauge theory: field strength, gauge-change laws, the Bianchi
identity, the Lagrangian density, and the topological charge integral, each
read from one `GaugeScenario` (`cym.connection`).

The invariance proofs hold only when the fibre connection and the central
2-form satisfy the two pointwise compatibility laws. These functions compute
what they are given; `cym.harness.run_suite` checks the laws once, before the
first suite that depends on them, and reports a failure as a row.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .algebra import LieAlgebraDescriptor, ad_twist, dagger
from .connection import GaugeScenario, cov_ext_deriv
from .forms import (FD_STEP, LieForm, SamplePlan, add_forms, bracket_pairing,
                    graded_product, hodge_star, kappa_wedge_top, max_gap_rows,
                    scale_form)
from .lgb import GSection, darboux

__all__ = [
    "local_field_strength", "gauge_changed_potential", "change_of_gauge",
    "bianchi_rows", "lagrangian_density", "instanton_charge",
    "density_gauge_invariance_rows", "density_infinitesimal_rows",
    "field_redef_rows", "self_duality_rows",
]


# ---------------------------------------------------------------------------
# field strength and gauge transformations
# ---------------------------------------------------------------------------

def local_field_strength(s: GaugeScenario) -> LieForm:
    """F = covariant d of A plus half its bracket square plus the central form."""
    a = s.gauge_field
    if a.poly is not None and not a.poly.terms:
        return s.zeta  # A is identically zero, so both A-terms vanish
    sq = scale_form(graded_product(bracket_pairing(s.algebra), a, a), 0.5)
    return add_forms(add_forms(cov_ext_deriv(s.nabla, a), sq), s.zeta)


def _adjoint_twist(alg: LieAlgebraDescriptor, sigma: GSection, f: LieForm) -> LieForm:
    """Ad_{sigma^{-1}} f, read over a batch from one stack of the section."""
    return LieForm(n=f.n, degree=f.degree, value_target="algebra",
                   value_shape=f.value_shape,
                   batch=lambda X: ad_twist(alg, dagger(sigma(X)), f.table(X)),
                   fd_step=f.fd_step, box=f.box)


def gauge_changed_potential(s: GaugeScenario, sigma: GSection) -> LieForm:
    """A' = Ad_{sigma^{-1}} A + Delta sigma."""
    twisted = _adjoint_twist(s.algebra, sigma, s.gauge_field)
    dsig = darboux(s, sigma)
    return LieForm(n=s.chart.dim, degree=1, value_target="algebra",
                   value_shape=(s.algebra.dim,),
                   batch=lambda X: twisted.table(X) + dsig.table(X),
                   fd_step=dsig.fd_step, box=s.chart.box)


def change_of_gauge(s: GaugeScenario, sigma: GSection, plan: SamplePlan) -> np.ndarray:
    """The residual of the transformation law F(A') = Ad_{sigma^{-1}} F(A),
    A' the `gauge_changed_potential`, at each point of the plan, (P,)."""
    f_new = local_field_strength(replace(s, gauge_field=gauge_changed_potential(s, sigma)))
    twisted = _adjoint_twist(s.algebra, sigma, local_field_strength(s))
    X = plan.points(s.chart)
    return max_gap_rows(f_new.table(X) - twisted.table(X))


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

def lagrangian_density(s: GaugeScenario):
    """X -> -1/2 kappa(F ^, *F) top coefficient (the scalar Lagrangian) at
    each point of a (..., n) stack, read from the top-degree table."""
    f = local_field_strength(s)
    paired = kappa_wedge_top(s.algebra, f, hodge_star(s.chart, f))

    def density(X):
        X = np.asarray(X, dtype=float)
        top = paired.table(X.reshape(-1, s.chart.dim))[:, 0]
        return (-0.5 * top).reshape(X.shape[:-1])[()]

    return density


def instanton_charge(s: GaugeScenario, order: int = 24) -> float:
    """(1/16 pi^2) times the oriented integral of kappa(F ^, F) over the chart,
    by tensor-product Gauss-Legendre quadrature in t on (-1, 1)^4, with each
    axis mapped onto the whole line by x = tan(pi t / 2).

    The map has unit length: on the stereographic chart of the unit S^4 the
    density of a smooth field falls off like (1 + |x|^2)^{-4} on the unit
    scale, so half of each axis's nodes land in |x| < 1 and none is cut off."""
    if s.chart.dim != 4:
        raise ValueError("the charge integral needs a four-dimensional chart")
    f = local_field_strength(s)
    paired = kappa_wedge_top(s.algebra, f, f)

    t, w = leggauss(order)
    nodes = np.tan(0.5 * np.pi * t)
    weights = w * (0.5 * np.pi) / np.cos(0.5 * np.pi * t) ** 2
    # one chunk per (x0, x1) node pair: the order^2 nodes of the (x2, x3) plane
    chunk = np.empty((order ** 2, 4))
    chunk[:, 2:] = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    plane_weights = np.outer(weights, weights).ravel()
    total = 0.0
    for i0, i1 in np.ndindex(order, order):
        chunk[:, 0], chunk[:, 1] = nodes[i0], nodes[i1]
        total += weights[i0] * weights[i1] * (plane_weights @ paired.table(chunk)[:, 0])
    return float(s.chart.orientation / (16 * np.pi ** 2) * total)


# ---------------------------------------------------------------------------
# invariance residuals
# ---------------------------------------------------------------------------

def density_gauge_invariance_rows(s: GaugeScenario, sigma: GSection,
                                  plan: SamplePlan) -> np.ndarray:
    """Difference of the Lagrangian before and after a gauge change at each
    point of the plan, (P,)."""
    X = plan.points(s.chart)
    before = lagrangian_density(s)(X)
    changed = replace(s, gauge_field=gauge_changed_potential(s, sigma))
    return max_gap_rows(lagrangian_density(changed)(X) - before)


def density_infinitesimal_rows(s: GaugeScenario, eps: LieForm, plan: SamplePlan,
                               t_step: float = FD_STEP) -> np.ndarray:
    """Magnitude of the t-derivative of the density along exp(t eps) at
    each point of the plan, (P,)."""
    X = plan.points(s.chart)

    def density_at(t):
        sec = GSection.exp_of_form(s.algebra, eps, t, name="exp(teps)")
        return lagrangian_density(replace(s, gauge_field=gauge_changed_potential(s, sec)))(X)

    return max_gap_rows((density_at(t_step) - density_at(-t_step)) / (2 * t_step))


def field_redef_rows(s: GaugeScenario, shifted: GaugeScenario,
                     plan: SamplePlan) -> np.ndarray:
    """Per-point gap between the field strength before and after a shift of
    the splitting (`field_redefine`); the field strength must not see it."""
    f_before = local_field_strength(s)
    f_after = local_field_strength(shifted)
    points = plan.points(s.chart)
    return max_gap_rows(f_after.table(points) - f_before.table(points))


def self_duality_rows(s: GaugeScenario, plan: SamplePlan) -> np.ndarray:
    """Deviation of the central form from its own Hodge dual at each point
    of the plan, (P,)."""
    X = plan.points(s.chart)
    return max_gap_rows(hodge_star(s.chart, s.zeta).table(X) - s.zeta.table(X))
