"""Built-in verification scenarios, scenario-file ingestion, the named suite
registry, and deterministic report emission.

A scenario bundles everything the residual suites consume: the chart, the
algebra, the group bundle with its horizontal potential, the principal-side
wrapper with a gauge field, a compatible central 2-form, named group-valued
sections and bundle automorphisms, a splitting shift and an infinitesimal
generator, plus sampling and tolerance defaults. Suites are registered
declaratively as (anchor, applicability, closure) triples so that every
verified law lives in exactly one table.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (VARIETY_TOL, LieAlgebraDescriptor, StructureError,
                      ad_matrix_c, ad_matrix_of_group, algebra_from_dict,
                      algebra_to_dict, expm, jacobi_tensor, su2, u1, u1_su2,
                      variety_residual)
from .connection import (COMPATIBILITY_TOL, check_compatibility,
                         field_redefine, potential_curvature)
from .forms import (Chart, LieForm, PolyData, SamplePlan, ScenarioError,
                    _int_field, euclidean_chart, form_from_poly,
                    increasing_indices, max_gap, max_gap_rows, minkowski_chart,
                    stereographic_chart, zero_form)
from .gauge import (GaugeScenario, bianchi_rows, change_of_gauge,
                    density_gauge_invariance_rows, density_infinitesimal_rows,
                    field_redef_rows, instanton_charge, self_duality_rows)
from .lgb import (GSection, TrivLgb, _point_draws, darboux_inverse_rows,
                  darboux_leibniz_rows, generalized_mc_rows, induced_connection,
                  multiplicativity_rows, nabla_from_darboux, pullback_mc_rows)
from .principal import (Automorphism, TrivPrincipal, action_differential_rows,
                        equivariance_rows, gauge_transform_total,
                        kernel_invariance_rows, mixed_bracket_rows,
                        projection_commutation_rows, section_independence_rows,
                        structure_equation_rows)

__all__ = [
    "ScenarioError", "ScenarioBundle", "SCENARIO_NAMES", "builtin_scenario",
    "bpst_potential", "bpst_central_form", "load_scenario", "save_scenario",
    "scenario_from_dict", "scenario_to_dict", "SUITES", "suite_names",
    "run_suite", "CheckRow", "SuiteReport", "VerificationReport",
    "algebra_kernel_residuals", "DEFAULT_TOLERANCES",
]

SCENARIO_NAMES = ("flat-su2", "abelian-u1", "preclassical-u1su2", "bpst",
                  "random-curved")


# ---------------------------------------------------------------------------
# the instanton chart data
# ---------------------------------------------------------------------------

# Rotation planes of the three imaginary quaternion units: row a holds the
# matrix M_a with (M_a x)_mu the dx^mu coefficient of the a-th component of
# the conjugate-derivative form x -> Im(conj(q) dq).
_BPST_PLANES = np.array([
    [[0., -1., 0., 0.], [1., 0., 0., 0.], [0., 0., 0., 1.], [0., 0., -1., 0.]],
    [[0., 0., -1., 0.], [0., 0., 0., -1.], [1., 0., 0., 0.], [0., 1., 0., 0.]],
    [[0., 0., 0., -1.], [0., 0., 1., 0.], [0., -1., 0., 0.], [1., 0., 0., 0.]],
])

# the self-dual plane basis on increasing_indices(4, 2), (6, 3): dx0^dx1 and
# -dx2^dx3 carry the first algebra direction, dx0^dx2 and dx1^dx3 the second,
# dx0^dx3 and -dx1^dx2 the third
_BPST_BASIS = np.array([[1., 0., 0.], [0., 1., 0.], [0., 0., 1.],
                        [0., 0., -1.], [0., 1., 0.], [-1., 0., 0.]])


def _one_plus_square(X) -> np.ndarray:
    """1 + x @ x at each row of a (P, n) batch."""
    return 1.0 + (X[:, None, :] @ X[:, :, None])[:, 0, 0]


def bpst_potential(box=None) -> LieForm:
    """Horizontal potential of the instanton bundle on the stereographic
    chart: the imaginary part of conj(q) dq divided by 1 + |x|^2, with the
    quaternion units identified with twice the algebra basis."""
    mu, nu = np.array(increasing_indices(4, 2)).T

    def batch(X):
        return 2.0 * np.einsum('aik,pk->pia', _BPST_PLANES, X) / _one_plus_square(X)[:, None, None]

    def d(X):
        u = _one_plus_square(X)[:, None, None]
        mx = np.einsum('aik,pk->pia', _BPST_PLANES, X)
        return -4.0 * (_BPST_PLANES[:, mu, nu].T * u + mx[:, nu] * X[:, mu, None]
                       - mx[:, mu] * X[:, nu, None]) / u ** 2

    return LieForm(n=4, degree=1, value_target="algebra", value_shape=(3,),
                   batch=batch, analytic_d=d, fd_step=2e-5, box=box)


def bpst_central_form(box=None) -> LieForm:
    """Curvature of the instanton potential in closed form: the self-dual
    plane basis times 4 / (1 + |x|^2)^2."""
    # dx^i ^ basis: entry (c, i) is its value on the c-th increasing triple
    pair = increasing_indices(4, 2).index
    wedge = np.zeros((4, 4, 3))
    for c, (i, j, k) in enumerate(increasing_indices(4, 3)):
        wedge[c, i], wedge[c, j], wedge[c, k] = (
            _BPST_BASIS[pair((j, k))], -_BPST_BASIS[pair((i, k))], _BPST_BASIS[pair((i, j))])

    def batch(X):
        return (4.0 / np.square(_one_plus_square(X)))[:, None, None] * _BPST_BASIS

    def d(X):
        return (-16.0 / _one_plus_square(X) ** 3)[:, None, None] * np.einsum(
            'pi,cia->pca', X, wedge)

    return LieForm(n=4, degree=2, value_target="algebra", value_shape=(3,),
                   batch=batch, analytic_d=d, fd_step=2e-5, box=box)


# ---------------------------------------------------------------------------
# scenario bundles
# ---------------------------------------------------------------------------

@dataclass
class ScenarioBundle:
    """Everything a verification run needs, under one name."""

    name: str
    chart: Chart
    algebra: LieAlgebraDescriptor
    scenario: GaugeScenario
    lgb: TrivLgb
    principal: TrivPrincipal
    sections: dict
    automorphisms: dict
    shift: LieForm          # splitting-shift 1-form (lambda slot)
    generator: LieForm      # infinitesimal generator / fibre field (epsilon slot)
    plan: SamplePlan = field(default_factory=SamplePlan)
    tolerances: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=lambda: {"radius": 20.0, "order": 24})
    expected_charge: float = None
    section_polys: dict = field(default_factory=dict)
    automorphism_polys: dict = field(default_factory=dict)
    metric_name: str = "euclidean"

    @property
    def omega(self) -> LieForm:
        return self.lgb.omega

    @property
    def gauge_field(self) -> LieForm:
        return self.scenario.gauge_field

    @property
    def zeta(self) -> LieForm:
        return self.scenario.zeta


def _poly_form(n, degree, dim, terms, box=None) -> LieForm:
    return form_from_poly(n, degree, "algebra", (dim,),
                          PolyData(n, degree, (dim,), terms), box=box)


def _basis_vec(dim, slot, scale=1.0):
    v = np.zeros(dim)
    v[slot] = scale
    return v


def _section_from_poly(alg, poly: PolyData, name: str) -> GSection:
    return GSection.exp_of_form(alg, form_from_poly(poly.n, 0, "algebra", (alg.dim,), poly),
                                name=name)


def _assemble(name, chart, alg, omega, zeta, a, shift, generator,
              section_polys, automorphism_polys, metric_name,
              quadrature=None, expected_charge=None,
              plan=None, tolerances=None) -> ScenarioBundle:
    # every scenario has an identity section and automorphism
    identity = _const_poly(chart.dim, alg.dim, np.zeros(alg.dim))
    section_polys = {"identity": identity, **section_polys}
    automorphism_polys = {"identity": identity, **automorphism_polys}
    lgb = TrivLgb(chart, alg, omega)
    scenario = GaugeScenario(chart, alg, lgb.nabla, zeta, a, name=name)
    principal = TrivPrincipal(lgb, a)
    sections = {n: _section_from_poly(alg, p, n) for n, p in section_polys.items()}
    autos = {n: Automorphism(_section_from_poly(alg, p, n))
             for n, p in automorphism_polys.items()}
    return ScenarioBundle(
        name=name, chart=chart, algebra=alg, scenario=scenario, lgb=lgb,
        principal=principal, sections=sections, automorphisms=autos,
        shift=shift, generator=generator, plan=plan or SamplePlan(),
        tolerances=dict(tolerances or {}),
        quadrature=dict(quadrature or {"radius": 20.0, "order": 24}),
        expected_charge=expected_charge, section_polys=dict(section_polys),
        automorphism_polys=dict(automorphism_polys), metric_name=metric_name)


def _const_poly(n, dim, coeffs) -> PolyData:
    return PolyData(n, 0, (dim,), {(): [(np.asarray(coeffs, dtype=float),
                                         np.zeros(n, dtype=int))]})


def _linear_poly(n, dim, rows) -> PolyData:
    """rows: list of (coeff vector, exponent vector) pairs on the empty index."""
    return PolyData(n, 0, (dim,), {(): [(np.asarray(c, dtype=float),
                                         np.asarray(e, dtype=int))
                                        for c, e in rows]})


def _flat_su2() -> ScenarioBundle:
    alg = su2()
    chart = euclidean_chart(2, half=1.0)
    omega = zero_form(2, 1, "algebra", (3,), box=chart.box)
    zeta = zero_form(2, 2, "algebra", (3,), box=chart.box)
    a = _poly_form(2, 1, 3, {(0,): [(_basis_vec(3, 0, 0.5), np.array([0, 1]))],
                             (1,): [(_basis_vec(3, 1, 0.3), np.array([1, 0]))]},
                   box=chart.box)
    shift = _poly_form(2, 1, 3, {(0,): [(_basis_vec(3, 1, 0.2), np.array([1, 0]))],
                                 (1,): [(_basis_vec(3, 0, 0.1), np.array([0, 1]))]},
                       box=chart.box)
    generator = _poly_form(2, 0, 3, {(): [(_basis_vec(3, 2), np.array([1, 0]))]},
                           box=chart.box)
    sections = {
        "constant": _const_poly(2, 3, [0.3, -0.2, 0.5]),
        "generic": _linear_poly(2, 3, [([0.4, 0.0, 0.0], [0, 1]),
                                       ([0.0, 0.2, 0.0], [1, 1]),
                                       ([0.0, 0.0, -0.3], [1, 0])]),
        "twist": _linear_poly(2, 3, [([0.1, 0.0, 0.0], [2, 0]),
                                     ([0.0, -0.3, 0.0], [0, 1]),
                                     ([0.0, 0.0, 0.2], [1, 0])]),
    }
    autos = {
        "constant": _const_poly(2, 3, [0.2, 0.4, -0.1]),
        "generic": _linear_poly(2, 3, [([0.3, 0.0, 0.0], [1, 0]),
                                       ([0.0, -0.2, 0.0], [0, 1]),
                                       ([0.0, 0.0, 0.25], [1, 1])]),
        "twist": _linear_poly(2, 3, [([-0.15, 0.0, 0.0], [0, 2]),
                                     ([0.0, 0.1, 0.0], [1, 0]),
                                     ([0.0, 0.0, -0.2], [0, 1])]),
    }
    return _assemble("flat-su2", chart, alg, omega, zeta, a, shift, generator,
                     sections, autos, "euclidean")


def _abelian_u1() -> ScenarioBundle:
    alg = u1()
    chart = euclidean_chart(2, half=1.0)
    omega = zero_form(2, 1, "algebra", (1,), box=chart.box)
    # closed central 2-form; every adjoint defect of it vanishes
    zeta = _poly_form(2, 2, 1, {(0, 1): [(np.array([0.3]), np.array([0, 0]))]},
                      box=chart.box)
    a = _poly_form(2, 1, 1, {(0,): [(np.array([0.7]), np.array([0, 1]))]},
                   box=chart.box)
    shift = _poly_form(2, 1, 1, {(1,): [(np.array([0.15]), np.array([1, 0]))]},
                       box=chart.box)
    generator = _poly_form(2, 0, 1, {(): [(np.array([0.4]), np.array([1, 1]))]},
                           box=chart.box)
    sections = {
        "constant": _const_poly(2, 1, [0.6]),
        "generic": _linear_poly(2, 1, [([0.4], [2, 0]), ([-0.3], [0, 1])]),
        "twist": _linear_poly(2, 1, [([0.25], [1, 1])]),
    }
    autos = {
        "constant": _const_poly(2, 1, [-0.35]),
        "generic": _linear_poly(2, 1, [([0.3], [1, 0]), ([0.2], [0, 2])]),
        "twist": _linear_poly(2, 1, [([-0.2], [1, 1])]),
    }
    return _assemble("abelian-u1", chart, alg, omega, zeta, a, shift, generator,
                     sections, autos, "euclidean")


def _preclassical_u1su2() -> ScenarioBundle:
    alg = u1_su2()
    chart = euclidean_chart(2, half=1.0)
    # horizontal potential entirely in the central slot: the connection is
    # flat while its curvature potential (= the central form) is nonzero
    omega = _poly_form(2, 1, 4, {(1,): [(_basis_vec(4, 0), np.array([1, 0]))]},
                       box=chart.box)
    zeta = potential_curvature(alg, omega)
    a = _poly_form(2, 1, 4, {(0,): [(_basis_vec(4, 1, 0.5), np.array([0, 1]))],
                             (1,): [(_basis_vec(4, 2, 0.3), np.array([1, 0]))]},
                   box=chart.box)
    shift = _poly_form(2, 1, 4, {(0,): [(_basis_vec(4, 2, 0.2), np.array([1, 0]))],
                                 (1,): [(_basis_vec(4, 3, 0.1), np.array([0, 1]))]},
                       box=chart.box)
    generator = _poly_form(2, 0, 4, {(): [(_basis_vec(4, 3), np.array([1, 0]))]},
                           box=chart.box)
    sections = {
        "constant": _const_poly(2, 4, [0.4, 0.3, -0.2, 0.5]),
        "generic": _linear_poly(2, 4, [([0.2, 0.0, 0.0, 0.0], [1, 0]),
                                       ([0.0, 0.3, 0.0, 0.0], [0, 1]),
                                       ([0.0, 0.0, 0.15, 0.0], [1, 1]),
                                       ([0.0, 0.0, 0.0, -0.25], [1, 0])]),
        "twist": _linear_poly(2, 4, [([0.0, 0.1, 0.0, 0.0], [2, 0]),
                                     ([0.0, 0.0, -0.2, 0.0], [0, 1]),
                                     ([0.15, 0.0, 0.0, 0.1], [1, 0])]),
    }
    autos = {
        "constant": _const_poly(2, 4, [0.3, 0.2, 0.4, -0.1]),
        "generic": _linear_poly(2, 4, [([0.2, 0.3, 0.0, 0.0], [1, 0]),
                                       ([0.0, 0.0, -0.2, 0.0], [0, 1]),
                                       ([0.0, 0.0, 0.0, 0.25], [1, 1])]),
        "twist": _linear_poly(2, 4, [([0.0, -0.15, 0.0, 0.0], [0, 2]),
                                     ([0.1, 0.0, 0.1, 0.0], [1, 0]),
                                     ([0.0, 0.0, 0.0, -0.2], [0, 1])]),
    }
    return _assemble("preclassical-u1su2", chart, alg, omega, zeta, a, shift,
                     generator, sections, autos, "euclidean")


def _bpst() -> ScenarioBundle:
    alg = su2()
    chart = stereographic_chart(half=2.0, orientation=-1)
    omega = bpst_potential(box=chart.box)
    zeta = bpst_central_form(box=chart.box)
    a = zero_form(4, 1, "algebra", (3,), box=chart.box)
    # the shift that straightens the splitting: the potential itself
    shift = omega
    generator = _poly_form(4, 0, 3, {(): [(_basis_vec(3, 0, 0.2), np.array([0, 1, 0, 0])),
                                          (_basis_vec(3, 1, -0.1), np.array([1, 0, 0, 0])),
                                          (_basis_vec(3, 2, 0.1), np.array([0, 0, 0, 1]))]},
                           box=chart.box)
    sections = {
        "constant": _const_poly(4, 3, [0.3, -0.2, 0.5]),
        "generic": _linear_poly(4, 3, [([0.15, 0.0, 0.0], [0, 1, 0, 0]),
                                       ([0.0, 0.1, 0.0], [1, 0, 0, 1]),
                                       ([0.0, 0.0, -0.1], [0, 0, 1, 0])]),
        "twist": _linear_poly(4, 3, [([0.05, 0.0, 0.0], [1, 1, 0, 0]),
                                     ([0.0, -0.1, 0.0], [0, 0, 0, 1]),
                                     ([0.0, 0.0, 0.1], [0, 0, 1, 0])]),
    }
    autos = {
        "constant": _const_poly(4, 3, [0.2, 0.4, -0.1]),
        "generic": _linear_poly(4, 3, [([0.1, 0.0, 0.0], [1, 0, 0, 0]),
                                       ([0.0, -0.1, 0.0], [0, 1, 0, 0]),
                                       ([0.0, 0.0, 0.1], [0, 0, 1, 1])]),
        "twist": _linear_poly(4, 3, [([-0.05, 0.0, 0.0], [0, 2, 0, 0]),
                                     ([0.0, 0.05, 0.0], [1, 0, 0, 0]),
                                     ([0.0, 0.0, -0.1], [0, 0, 0, 1])]),
    }
    return _assemble("bpst", chart, alg, omega, zeta, a, shift, generator,
                     sections, autos, "round-s4",
                     quadrature={"radius": 20.0, "order": 24},
                     expected_charge=1.0)


def _random_curved() -> ScenarioBundle:
    alg = su2()
    chart = euclidean_chart(3, half=1.0)
    rng = np.random.default_rng(42)

    def rand_one_form(scale):
        terms = {}
        for k in range(3):
            rows = [(scale * rng.normal(size=3), np.zeros(3, dtype=int))]
            mono = np.zeros(3, dtype=int)
            mono[rng.integers(0, 3)] = 1
            rows.append((scale * rng.normal(size=3), mono))
            terms[(k,)] = rows
        return _poly_form(3, 1, 3, terms, box=chart.box)

    omega = rand_one_form(0.4)
    zeta = potential_curvature(alg, omega)
    a = rand_one_form(0.3)
    shift = rand_one_form(0.2)
    generator = _poly_form(3, 0, 3, {(): [(0.4 * rng.normal(size=3),
                                           np.array([1, 0, 0])),
                                          (0.3 * rng.normal(size=3),
                                           np.array([0, 0, 1]))]},
                           box=chart.box)

    def rand_section_poly(scale):
        return _linear_poly(3, 3, [(scale * rng.normal(size=3), np.zeros(3, dtype=int)),
                                   (scale * rng.normal(size=3), np.array([1, 0, 0])),
                                   (scale * rng.normal(size=3), np.array([0, 1, 0]))])

    sections = {
        "constant": _const_poly(3, 3, rng.normal(size=3) * 0.4),
        "generic": rand_section_poly(0.3),
        "twist": rand_section_poly(0.25),
    }
    autos = {
        "constant": _const_poly(3, 3, rng.normal(size=3) * 0.3),
        "generic": rand_section_poly(0.25),
        "twist": rand_section_poly(0.2),
    }
    return _assemble("random-curved", chart, alg, omega, zeta, a, shift,
                     generator, sections, autos, "euclidean")


_BUILDERS = {
    "flat-su2": _flat_su2,
    "abelian-u1": _abelian_u1,
    "preclassical-u1su2": _preclassical_u1su2,
    "bpst": _bpst,
    "random-curved": _random_curved,
}


def builtin_scenario(name: str) -> ScenarioBundle:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ScenarioError(f"unknown built-in scenario {name!r}; "
                            f"choose from {sorted(_BUILDERS)}") from None
    return builder()


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

_METRIC_NAMES = {"euclidean": "euclidean", "round-s4": "round-s4",
                 "minkowski": "minkowski"}


def _chart_from_dict(blob) -> tuple:
    if not isinstance(blob, dict):
        raise ScenarioError("chart: must be an object")
    for key in ("dim", "half"):
        if key not in blob:
            raise ScenarioError(f"chart: missing key {key!r}")
    dim = _int_field("chart.dim", blob["dim"])
    require_finite_positive("chart.half", blob["half"])
    half = float(blob["half"])
    metric = blob.get("metric", "euclidean")
    orientation = _int_field("chart.orientation", blob.get("orientation", 1))
    if metric not in _METRIC_NAMES:
        raise ScenarioError(f"chart.metric: unknown metric {metric!r}; "
                            f"choose from {sorted(_METRIC_NAMES)}")
    if orientation not in (1, -1):
        raise ScenarioError(f"chart.orientation: must be +1 or -1, got "
                            f"{orientation}")
    if dim < 2:
        raise ScenarioError("chart.dim: the central form is a 2-form, so the "
                            "chart needs at least two axes")
    if metric == "round-s4":
        if dim != 4:
            raise ScenarioError("chart.metric: the round-sphere metric needs dim 4")
        chart = stereographic_chart(half=half, orientation=orientation)
    elif metric == "minkowski":
        if dim != 4:
            raise ScenarioError("chart.metric: the minkowski chart needs dim 4")
        if orientation != 1:
            raise ScenarioError("chart.orientation: minkowski chart is oriented +1")
        chart = minkowski_chart(half=half)
    else:
        chart = euclidean_chart(dim, half=half, orientation=orientation)
    return chart, metric


def _poly_from_blob(field_name, blob, n, dim) -> PolyData:
    try:
        poly = PolyData.from_json(n, (dim,), blob)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{field_name}: malformed polynomial payload "
                            f"({exc})") from None
    # JSON readers accept NaN and Infinity literals; no residual survives them
    if not all(np.isfinite(c).all() for rows in poly.terms.values()
               for c, _ in rows):
        raise ScenarioError(f"{field_name}: polynomial coefficients must be "
                            "finite")
    return poly


def _form_from_blob(field_name, blob, n, dim, degree) -> LieForm:
    if not isinstance(blob, dict):
        raise ScenarioError(f"{field_name}: must be a polynomial-form object")
    poly = _poly_from_blob(field_name, blob, n, dim)
    if poly.degree != degree:
        raise ScenarioError(f"{field_name}: expected a degree-{degree} form, "
                            f"got degree {poly.degree}")
    for idx, rows in poly.terms.items():
        if len(idx) != degree or any(not 0 <= i < n for i in idx):
            raise ScenarioError(f"{field_name}: index {idx} is not a valid "
                                f"increasing {degree}-index on {n} axes")
        if list(idx) != sorted(set(idx)):
            raise ScenarioError(f"{field_name}: index {idx} must be strictly "
                                "increasing")
        for coeff, expo in rows:
            if coeff.shape != (dim,):
                raise ScenarioError(f"{field_name}: coefficient shape "
                                    f"{coeff.shape} does not match the "
                                    f"algebra dimension {dim}")
            if expo.shape != (n,) or (expo < 0).any():
                raise ScenarioError(f"{field_name}: exponent vector {expo} "
                                    f"must be {n} non-negative integers")
    return form_from_poly(n, degree, "algebra", (dim,), poly)


def _coeff_polys_from_dict(field_name, blob, n, dim) -> dict:
    out = {}
    if blob is None:
        return out
    if not isinstance(blob, dict):
        raise ScenarioError(f"{field_name}: must be an object of named entries")
    for name, entry in blob.items():
        if not isinstance(entry, dict) or "exp_coeffs" not in entry:
            raise ScenarioError(f"{field_name}.{name}: needs an 'exp_coeffs' "
                                "polynomial")
        out[name] = _form_from_blob(f"{field_name}.{name}", entry["exp_coeffs"],
                                    n, dim, 0).poly
    return out


def scenario_from_dict(data, source="<dict>") -> ScenarioBundle:
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    try:
        name = str(data["name"])
    except KeyError:
        raise ScenarioError("name: missing") from None

    try:
        alg = algebra_from_dict(data.get("algebra", "su2"))
    except ScenarioError:
        raise  # already names its algebra.<key>
    except (StructureError, TypeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"algebra: {exc}") from None

    chart, metric = _chart_from_dict(data.get("chart", {"dim": 2, "half": 1.0}))
    n, dim = chart.dim, alg.dim

    forms = data.get("forms", {})
    if not isinstance(forms, dict):
        raise ScenarioError("forms: must be an object")
    if "omega" not in forms:
        raise ScenarioError("forms.omega: missing")
    omega = _form_from_blob("forms.omega", forms["omega"], n, dim, 1)
    omega.box = chart.box

    if "zeta" not in forms:
        raise ScenarioError("forms.zeta: missing (give a 2-form or the "
                            "directive \"curvature-of-omega\")")
    if forms["zeta"] == "curvature-of-omega":
        zeta = potential_curvature(alg, omega)
    else:
        zeta = _form_from_blob("forms.zeta", forms["zeta"], n, dim, 2)
    zeta.box = chart.box

    if "A" not in forms:
        raise ScenarioError("forms.A: missing")
    a = _form_from_blob("forms.A", forms["A"], n, dim, 1)
    a.box = chart.box

    shift = (_form_from_blob("forms.lambda", forms["lambda"], n, dim, 1)
             if "lambda" in forms else zero_form(n, 1, "algebra", (dim,),
                                                 box=chart.box))
    generator = (_form_from_blob("forms.epsilon", forms["epsilon"], n, dim, 0)
                 if "epsilon" in forms else zero_form(n, 0, "algebra", (dim,),
                                                      box=chart.box))

    section_polys = _coeff_polys_from_dict("sections", data.get("sections"), n, dim)
    auto_polys = _coeff_polys_from_dict("automorphisms",
                                        data.get("automorphisms"), n, dim)

    try:
        plan = SamplePlan.from_json(data.get("plan", {}))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"plan: {exc}") from None
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError("tolerances: must be an object of check -> bound")
    quad = data.get("quadrature", {})
    if not isinstance(quad, dict):
        raise ScenarioError("quadrature: must be an object")
    radius = quad.get("radius", 20.0)
    require_finite_positive("quadrature.radius", radius)
    order = _int_field("quadrature.order", quad.get("order", 24))
    if order < 1:
        raise ScenarioError(f"quadrature.order: must be a positive integer, "
                            f"got {order}")
    quadrature = {"radius": float(radius), "order": order}
    try:
        expected = data.get("expected_charge")
        expected_charge = None if expected is None else float(expected)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"expected_charge: {exc}") from None
    if expected_charge is not None and not math.isfinite(expected_charge):
        raise ScenarioError(f"expected_charge: must be a finite number, "
                            f"got {expected!r}")

    bundle = _assemble(name, chart, alg, omega, zeta, a, shift, generator,
                       section_polys, auto_polys, metric,
                       quadrature=quadrature, expected_charge=expected_charge,
                       plan=plan, tolerances=tolerances)

    # eager invariant: every section and automorphism is a group-variety
    # element at the chart center. One exponential and one variety check
    # cover them all; a non-finite row passes, as it passes `on_variety`.
    named = [(f"{label}.{key}", poly) for label, polys in (
        ("sections", bundle.section_polys), ("automorphisms", bundle.automorphism_polys))
        for key, poly in polys.items()]
    center = chart.box.mean(axis=1)[None]
    coeffs = np.array([poly.table(center)[0, 0] for _, poly in named])
    for (label, _), resid in zip(named, variety_residual(alg, expm(alg.rep_of(coeffs)))):
        if math.isfinite(resid) and resid > VARIETY_TOL:
            raise ScenarioError(f"{label}: matrix off the group variety by {resid:.3e}")
    return bundle


def load_scenario(path) -> ScenarioBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno} "
                            f"column {exc.colno}: {exc.msg}") from None
    return scenario_from_dict(data, source=str(path))


def _form_to_blob(field_name, f: LieForm):
    if f.poly is None:
        raise ScenarioError(f"{field_name}: only polynomial forms can be "
                            "serialized to a scenario file")
    return f.poly.to_json()


def scenario_to_dict(bundle: ScenarioBundle) -> dict:
    return {
        "name": bundle.name,
        "algebra": algebra_to_dict(bundle.algebra),
        "chart": {"dim": bundle.chart.dim,
                  "half": float(bundle.chart.box[0, 1]),
                  "metric": bundle.metric_name,
                  "orientation": bundle.chart.orientation},
        "forms": {
            "omega": _form_to_blob("forms.omega", bundle.omega),
            "zeta": _form_to_blob("forms.zeta", bundle.zeta),
            "A": _form_to_blob("forms.A", bundle.gauge_field),
            "lambda": _form_to_blob("forms.lambda", bundle.shift),
            "epsilon": _form_to_blob("forms.epsilon", bundle.generator),
        },
        "sections": {name: {"exp_coeffs": poly.to_json()}
                     for name, poly in bundle.section_polys.items()},
        "automorphisms": {name: {"exp_coeffs": poly.to_json()}
                          for name, poly in bundle.automorphism_polys.items()},
        "plan": bundle.plan.to_json(),
        "tolerances": dict(bundle.tolerances),
        "quadrature": dict(bundle.quadrature),
        "expected_charge": bundle.expected_charge,
    }


def save_scenario(bundle: ScenarioBundle, path):
    blob = scenario_to_dict(bundle)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass
class CheckRow:
    check: str
    residual: float
    tolerance: float
    per_point: list  # (point ordinal or -1 for global, residual)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class SuiteReport:
    name: str
    anchor: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def _binding(self) -> CheckRow:
        """The first non-finite check, else the largest residual/tolerance."""
        return max(self.checks,
                   key=lambda c: (not math.isfinite(c.residual),
                                  c.residual / c.tolerance if c.tolerance else 0.0))

    def to_dict(self) -> dict:
        worst = self._binding()
        return {"name": self.name, "anchor": self.anchor,
                "residual": worst.residual, "tolerance": worst.tolerance,
                "pass": self.passed,
                "checks": [{"check": c.check, "residual": c.residual,
                            "tolerance": c.tolerance, "pass": c.passed}
                           for c in self.checks]}


def _finite_or_named(value):
    """value with every non-finite float inside it replaced by its name."""
    if isinstance(value, dict):
        return {k: _finite_or_named(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_named(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


@dataclass
class VerificationReport:
    scenario: str
    suites: list
    env: dict

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        return {"scenario": self.scenario,
                "suites": [s.to_dict() for s in self.suites],
                "env": self.env, "pass": self.passed}

    def to_json(self) -> str:
        """Strict JSON: a NaN or infinite value is written as the string
        "nan", "inf" or "-inf", which `float()` reads back."""
        return json.dumps(_finite_or_named(self.to_dict()), indent=2,
                          sort_keys=True, allow_nan=False) + "\n"

    def csv_rows(self):
        for suite in self.suites:
            for check in suite.checks:
                for point, residual in check.per_point:
                    yield (suite.name, check.check, point, repr(residual))

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["suite", "check", "point", "residual"])
            writer.writerows(self.csv_rows())


# ---------------------------------------------------------------------------
# suite machinery
# ---------------------------------------------------------------------------

DEFAULT_TOLERANCES = {
    "algebra/jacobi": 1e-9,
    "algebra/ad-homomorphism": 1e-9,
    "algebra/kappa-invariance": 1e-9,
    "algebra/exp-ad-consistency": 1e-9,
    "compatibility/derivation": COMPATIBILITY_TOL,
    "compatibility/curvature": COMPATIBILITY_TOL,
    "darboux/leibniz": 1e-6,
    "darboux/inverse": 1e-6,
    "fibre-connection/stencil-vs-analytic": 1e-6,
    "multiplicativity/total-form": 1e-9,
    "generalized-mc/total-space": 1e-5,
    "generalized-mc/pullback": 1e-3,
    "principal/action-differential": 1e-7,
    "principal/section-independence": 1e-8,
    "principal/equivariance": 1e-8,
    "principal/kernel-invariance": 1e-8,
    "principal/projection-commutation": 1e-8,
    "principal/mixed-bracket": 1e-4,
    "structure-equation/dual-path": 1e-6,
    "structure-equation/horizontality": 1e-8,
    "structure-equation/adjoint-type": 1e-5,
    "gauge-laws/section": 1e-5,
    "gauge-laws/automorphism-potential": 1e-5,
    "gauge-laws/automorphism-field-strength": 1e-5,
    "bianchi/analytic": 1e-7,
    "bianchi/stencil": 1e-4,
    "field-redef/invariance": 1e-6,
    "field-redef/closure-derivation": COMPATIBILITY_TOL,
    "field-redef/closure-curvature": COMPATIBILITY_TOL,
    "lagrangian/finite": 1e-6,
    "lagrangian/infinitesimal": 1e-5,
    "self-duality/central-form": 1e-6,
    "charge/instanton-number": 1e-2,
}


@dataclass
class RunEnv:
    plan: SamplePlan
    h: float = None
    h2: float = None
    tol_scale: float = 1.0
    overrides: dict = field(default_factory=dict)

    def tol(self, key: str) -> float:
        probe = key
        base = self.overrides.get(probe, DEFAULT_TOLERANCES.get(probe))
        if base is None and ":" in key:
            probe = key.split(":", 1)[0]
            base = self.overrides.get(probe, DEFAULT_TOLERANCES.get(probe))
        if base is None:
            raise KeyError(f"no tolerance registered for {key!r}")
        return float(base) * self.tol_scale


def _check_row(env: RunEnv, key: str, residuals, points) -> CheckRow:
    """Row of one check: its residuals at the plan ordinals `points` (-1 for
    a global residual) and their max_gap."""
    residuals = np.asarray(residuals, dtype=float)
    return CheckRow(check=key.split("/", 1)[1], residual=max_gap((residuals,)),
                    tolerance=env.tol(key), per_point=list(zip(points, residuals.tolist())))


def _plan_rows(env: RunEnv, *checks) -> list:
    """One CheckRow per (key, (P,) per-point residuals over the plan)."""
    return [_check_row(env, key, rows, range(len(rows))) for key, rows in checks]


# -- individual suites -------------------------------------------------------

def algebra_kernel_residuals(alg: LieAlgebraDescriptor, count: int,
                             seed=42) -> dict:
    """Sampled residuals of the bracket/adjoint kernel laws (sample i drawn
    from `default_rng([seed, i])`), plus the exact Jacobi residual of the
    structure constants."""
    coeffs, _ = _point_draws(SamplePlan(count=count, seed=seed), count, alg.dim, 2, 0,
                             probes=0, scale=0.8)
    gu, gv = np.moveaxis(expm(alg.rep_of(coeffs)), 1, 0)
    ad_u, ad_v, ad_uv = ad_matrix_of_group(alg, np.stack([gu, gv, gu @ gv]))
    kappa = alg.kappa
    return {"jacobi": float(np.abs(jacobi_tensor(alg.structure_constants)).max()),
            "ad-homomorphism": max_gap_rows(ad_uv - ad_u @ ad_v).tolist(),
            "kappa-invariance": max_gap_rows(
                np.swapaxes(ad_u, -1, -2) @ kappa @ ad_u - kappa).tolist(),
            "exp-ad-consistency": max_gap_rows(
                ad_u - expm(ad_matrix_c(alg, coeffs[:, 0]))).tolist()}


def _suite_algebra(bundle, env):
    res = algebra_kernel_residuals(bundle.algebra, env.plan.count, seed=env.plan.seed)
    return [_check_row(env, "algebra/jacobi", [res.pop("jacobi")], [-1])] + _plan_rows(
        env, *((f"algebra/{key}", np.array(rows)) for key, rows in res.items()))


def _suite_compatibility(bundle, env):
    rep = check_compatibility(bundle.lgb.nabla, bundle.zeta, bundle.chart,
                              env.plan)
    return _plan_rows(env, ("compatibility/derivation", rep.derivation_rows),
                      ("compatibility/curvature", rep.curvature_rows))


def _distinguished_section(bundle):
    """Deterministic nontrivial section for pullback/invariance checks."""
    for name in ("generic", "constant", "twist"):
        if name in bundle.sections:
            return bundle.sections[name]
    for name in sorted(bundle.sections):
        if name != "identity":
            return bundle.sections[name]
    return bundle.sections["identity"]


def _random_section_pairs(bundle, count, seed):
    """`count` sections exp(b + w y), section i with b and w drawn from
    `default_rng([seed, 977, i])`, each paired with the one three on."""
    alg = bundle.algebra
    n = bundle.chart.dim
    scale = 0.35 / bundle.chart.half_width()
    sections = []
    for i in range(count):
        rng = np.random.default_rng([seed, 977, i])
        b = rng.normal(scale=0.5, size=alg.dim)
        w = rng.normal(scale=scale, size=(alg.dim, n))
        # (w @ y[..., None])[..., 0] rounds as the row-by-row w @ y does; y @ w.T does not
        sections.append(GSection(alg, lambda Y, b=b, w=w: expm(alg.rep_of(
            b + (w @ Y[..., None])[..., 0])), name=f"rand{i}"))
    return [(sections[i], sections[(i + 3) % count]) for i in range(count)]


def _suite_darboux(bundle, env):
    pairs = _random_section_pairs(bundle, 8, env.plan.seed)
    named = [bundle.sections[n] for n in sorted(bundle.sections)
             if n != "identity"]
    if len(named) >= 2:
        pairs = pairs + [(named[0], named[1])]

    # at each point, the largest gap over the pairs
    return _plan_rows(
        env, ("darboux/leibniz", max_gap_rows(np.column_stack(
            [darboux_leibniz_rows(bundle.lgb, s1, s2, env.plan) for s1, s2 in pairs]))),
        ("darboux/inverse", max_gap_rows(np.column_stack(
            [darboux_inverse_rows(bundle.lgb, s1, env.plan) for s1, _ in pairs]))))


def _suite_fibre_connection(bundle, env):
    X = env.plan.points(bundle.chart)
    t_step = env.h if env.h is not None else 1e-5
    got = nabla_from_darboux(bundle.lgb, bundle.generator, X, t_step=t_step, tol=np.inf)
    gap = max_gap_rows(got - induced_connection(bundle.lgb, bundle.generator, X))
    return _plan_rows(env, ("fibre-connection/stencil-vs-analytic", gap))


def _suite_multiplicativity(bundle, env):
    return _plan_rows(env, ("multiplicativity/total-form",
                            multiplicativity_rows(bundle.lgb, env.plan)))


def _suite_generalized_mc(bundle, env):
    return _plan_rows(
        env, ("generalized-mc/total-space",
              generalized_mc_rows(bundle.lgb, bundle.zeta, env.plan)),
        ("generalized-mc/pullback", pullback_mc_rows(
            bundle.lgb, _distinguished_section(bundle), bundle.zeta, env.plan)))


def _suite_principal(bundle, env):
    p, plan = bundle.principal, env.plan
    fd = env.h if env.h is not None else 1e-5
    return _plan_rows(
        env, ("principal/action-differential", action_differential_rows(p, plan)),
        ("principal/section-independence", section_independence_rows(p, plan)),
        ("principal/equivariance", equivariance_rows(p, plan)),
        ("principal/kernel-invariance", kernel_invariance_rows(p, plan)),
        ("principal/projection-commutation", projection_commutation_rows(p, plan)),
        ("principal/mixed-bracket", mixed_bracket_rows(p, bundle.generator, plan, fd_step=fd)))


def _suite_structure_equation(bundle, env):
    return _plan_rows(env, *zip(
        ("structure-equation/dual-path", "structure-equation/horizontality",
         "structure-equation/adjoint-type"),
        structure_equation_rows(bundle.principal, bundle.zeta, env.plan)))


def _suite_gauge_laws(bundle, env):
    rows = _plan_rows(env, *((f"gauge-laws/section:{name}",
                              change_of_gauge(bundle.scenario, sec, env.plan).f_rows)
                             for name, sec in sorted(bundle.sections.items())))
    for name, aut in sorted(bundle.automorphisms.items()):
        res = gauge_transform_total(bundle.principal, aut, bundle.zeta, env.plan)
        rows += _plan_rows(env, (f"gauge-laws/automorphism-potential:{name}", res.a_rows),
                           (f"gauge-laws/automorphism-field-strength:{name}", res.f_rows))
    return rows


def _suite_bianchi(bundle, env):
    analytic = (bundle.omega.has_exact_d() and bundle.zeta.has_exact_d()
                and bundle.gauge_field.has_exact_d())
    key = "bianchi/analytic" if analytic else "bianchi/stencil"
    return _plan_rows(env, (key, bianchi_rows(bundle.scenario, env.plan)))


def _suite_field_redef(bundle, env):
    s = bundle.scenario
    shifted = field_redefine(s.nabla, s.zeta, s.gauge_field, bundle.shift)
    closure = check_compatibility(shifted.nabla, shifted.zeta, bundle.chart,
                                  env.plan)
    return _plan_rows(
        env, ("field-redef/invariance", field_redef_rows(s, shifted, env.plan)),
        ("field-redef/closure-derivation", closure.derivation_rows),
        ("field-redef/closure-curvature", closure.curvature_rows))


def _suite_lagrangian(bundle, env):
    s = bundle.scenario
    t_step = env.h2 if env.h2 is not None else 1e-5
    return _plan_rows(
        env, ("lagrangian/finite", density_gauge_invariance_rows(
            s, _distinguished_section(bundle), env.plan)),
        ("lagrangian/infinitesimal", density_infinitesimal_rows(
            s, bundle.generator, env.plan, t_step=t_step)))


def _suite_self_duality(bundle, env):
    return _plan_rows(env, ("self-duality/central-form",
                            self_duality_rows(bundle.zeta, bundle.chart, env.plan)))


def _suite_charge(bundle, env):
    q = instanton_charge(bundle.scenario,
                         radius=bundle.quadrature["radius"],
                         order=bundle.quadrature["order"])
    expected = bundle.expected_charge if bundle.expected_charge is not None else 0.0
    residual = abs(q.total - expected)
    return [_check_row(env, "charge/instanton-number", [residual], [-1])]


def _needs_dim4(bundle):
    return (bundle.chart.dim == 4
            or "needs a four-dimensional chart, scenario has "
               f"dim {bundle.chart.dim}")


def _always(bundle):
    return True


# name -> (anchor, applicability, implementation). Anchors are plain-language
# statements of the law each suite verifies.
SUITES = {
    "algebra": (
        "bracket and adjoint kernel: Jacobi closure, the group adjoint as a "
        "homomorphism, invariance of the pairing, and the exponential "
        "intertwining the two adjoints",
        _always, _suite_algebra),
    "compatibility": (
        "the fibre connection differentiates the bracket and its curvature "
        "is the adjoint action of the central form",
        _always, _suite_compatibility),
    "darboux": (
        "product and inverse laws of the logarithmic derivative of "
        "group-valued sections",
        _always, _suite_darboux),
    "fibre-connection": (
        "the fibre connection recovered from the parameter derivative of "
        "logarithmic derivatives along section families",
        _always, _suite_fibre_connection),
    "multiplicativity": (
        "the total one-form intertwines fibrewise multiplication with the "
        "adjoint twist of its slots",
        _always, _suite_multiplicativity),
    "generalized-mc": (
        "curvature identity of the total one-form, the central form entering "
        "through the adjoint defect, and its pullback along sections",
        _always, _suite_generalized_mc),
    "principal": (
        "differential of the fibrewise action, equivariance and kernel "
        "stability of the connection one-form, projector commutation, and "
        "the mixed bracket of horizontal lifts with fundamental fields",
        _always, _suite_principal),
    "structure-equation": (
        "the total field strength agrees with its covariant-derivative "
        "assembly, kills vertical arguments, and transforms in the adjoint",
        _always, _suite_structure_equation),
    "gauge-laws": (
        "finite transformation laws of the potential and the field strength "
        "under group-valued sections and bundle automorphisms",
        _always, _suite_gauge_laws),
    "bianchi": (
        "differential identity binding the field strength, the potential, "
        "and the central form",
        _always, _suite_bianchi),
    "field-redef": (
        "shifts of the horizontal splitting leave the field strength "
        "invariant and preserve the compatibility pair",
        _always, _suite_field_redef),
    "lagrangian": (
        "gauge invariance of the curved Yang-Mills density, finite and "
        "infinitesimal",
        _always, _suite_lagrangian),
    "self-duality": (
        "the central form equals its own Hodge dual on the instanton chart",
        _needs_dim4, _suite_self_duality),
    "charge": (
        "topological charge from the paired field strength by box quadrature "
        "with an analytic tail",
        _needs_dim4, _suite_charge),
}


def suite_names():
    return tuple(SUITES)


def require_finite_positive(field_name: str, value) -> None:
    """Raise ScenarioError naming the field unless value is a finite number
    greater than 0 (a step, a tolerance or the tolerance scale)."""
    try:
        ok = 0.0 < float(value) < math.inf
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ScenarioError(f"{field_name}: must be a finite number greater "
                            f"than 0, got {value!r}")


def run_suite(bundle: ScenarioBundle, suite_name: str, plan: SamplePlan = None,
              tolerances: dict = None, h: float = None, h2: float = None,
              tol_scale: float = 1.0) -> VerificationReport:
    """Run one named suite (or "all") against a scenario bundle."""
    require_finite_positive("tol_scale", tol_scale)
    for field_name, step in (("h", h), ("h2", h2)):
        if step is not None:
            require_finite_positive(field_name, step)
    overrides = dict(bundle.tolerances)
    overrides.update(tolerances or {})
    for key, value in overrides.items():
        require_finite_positive(f"tolerances.{key}", value)
    env = RunEnv(plan=plan or bundle.plan, h=h, h2=h2, tol_scale=tol_scale,
                 overrides=overrides)

    if suite_name == "all":
        selected = [n for n in SUITES if SUITES[n][1](bundle) is True]
    else:
        if suite_name not in SUITES:
            raise ScenarioError(f"unknown suite {suite_name!r}; choose from "
                                f"{sorted(SUITES)} or 'all'")
        applicable = SUITES[suite_name][1](bundle)
        if applicable is not True:
            raise ScenarioError(f"suite {suite_name!r} is not applicable: "
                                f"{applicable}")
        selected = [suite_name]

    reports = []
    for name in selected:
        anchor, _, fn = SUITES[name]
        reports.append(SuiteReport(name=name, anchor=anchor,
                                   checks=fn(bundle, env)))
    env_blob = {"seed": env.plan.seed, "points": env.plan.count,
                "tangent_probes": env.plan.tangent_probes,
                "h": "default" if env.h is None else env.h,
                "h2": "default" if env.h2 is None else env.h2,
                "tol_scale": env.tol_scale}
    return VerificationReport(scenario=bundle.name, suites=reports,
                              env=env_blob)
