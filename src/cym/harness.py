"""Built-in verification scenarios, scenario-file ingestion, the named suite
registry, and deterministic report emission.

The four polynomial built-ins are ordinary scenario files shipped in
`scenarios/` and read by `load_scenario`, so they pass the same checks as a
user's file; only bpst, whose instanton potential and curvature are
closed-form, is built in code.

A scenario bundles everything the residual suites consume: the theory as one
`GaugeScenario` (the chart, the algebra, the connection from its horizontal
potential, a compatible central 2-form and the gauge field), named
group-valued sections and bundle automorphisms (each exp of a polynomial
0-form, which its stack holds for `GSection.form`), a splitting shift and an
infinitesimal generator, plus sampling and tolerance defaults. Every suite
and the compatibility gate read the theory from `ScenarioBundle.scenario`
alone. Each check is declared once, in `CHECKS`; each suite in `SUITES`, as
an (anchor, applicability, closure) triple whose closure returns {check:
residuals}, from which `_suite_checks` builds the suite's rows.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .algebra import (VARIETY_TOL, LieAlgebraDescriptor, ReexpansionError,
                      StructureError, VarietyError, ad_matrix_c,
                      ad_matrix_of_group, algebra_from_dict, algebra_to_dict,
                      expm, group_exp, jacobi_tensor, su2, variety_residual)
from .connection import (COMPATIBILITY_TOL, GaugeScenario, LabConnection,
                         check_compatibility, field_redefine, potential_curvature)
from .forms import (FD_STEP, METRIC_KINDS, Chart, LieForm, PolyData, SamplePlan,
                    ScenarioError, _int_field, _object, form_from_poly, increasing_indices,
                    max_gap, max_gap_rows, stereographic_chart, zero_form)
from .gauge import (bianchi_rows, change_of_gauge,
                    density_gauge_invariance_rows, density_infinitesimal_rows,
                    field_redef_rows, instanton_charge, self_duality_rows)
from .lgb import (DRIFT_TOL, GSection, _point_draws, darboux_pair_rows,
                  generalized_mc_rows, induced_connection,
                  multiplicativity_rows, nabla_from_darboux, pullback_mc_rows)
from .principal import (action_differential_rows,
                        equivariance_rows, gauge_transform_total,
                        kernel_invariance_rows, mixed_bracket_rows,
                        projection_commutation_rows, section_independence_rows,
                        structure_equation_rows)

__all__ = [
    "ScenarioError", "ScenarioBundle", "SCENARIO_NAMES", "builtin_scenario",
    "bpst_potential", "bpst_central_form", "load_scenario", "save_scenario",
    "scenario_from_dict", "scenario_to_dict", "SUITES", "suite_names",
    "run_suite", "CheckRow", "SuiteReport", "VerificationReport",
    "algebra_kernel_residuals", "CHECKS", "DEFAULT_TOLERANCES",
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
                   batch=batch, analytic_d=d, box=box)


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
                   batch=batch, analytic_d=d, box=box)


# ---------------------------------------------------------------------------
# scenario bundles
# ---------------------------------------------------------------------------

@dataclass
class ScenarioBundle:
    """Everything a verification run needs, under one name. The theory is
    `scenario` alone; `chart`, `algebra`, `omega`, `zeta` and `gauge_field`
    read through to it."""

    name: str
    scenario: GaugeScenario
    sections: dict
    automorphisms: dict
    shift: LieForm          # splitting-shift 1-form (lambda slot)
    generator: LieForm      # infinitesimal generator / fibre field (epsilon slot)
    plan: SamplePlan = field(default_factory=SamplePlan)
    tolerances: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=lambda: {"order": 24})
    expected_charge: float = None

    @property
    def chart(self) -> Chart:
        return self.scenario.chart

    @property
    def algebra(self) -> LieAlgebraDescriptor:
        return self.scenario.algebra

    @property
    def omega(self) -> LieForm:
        return self.scenario.omega

    @property
    def gauge_field(self) -> LieForm:
        return self.scenario.gauge_field

    @property
    def zeta(self) -> LieForm:
        return self.scenario.zeta


def _section_from_poly(alg, poly: PolyData, name: str) -> GSection:
    return GSection.exp_of_form(alg, form_from_poly(poly.n, 0, "algebra", (alg.dim,), poly),
                                name=name)


def _assemble(name, chart, alg, omega, zeta, a, shift, generator, sections, autos,
              quadrature=None, expected_charge=None,
              plan=None, tolerances=None) -> ScenarioBundle:
    """The bundle whose sections and automorphisms are exp of the named
    polynomial 0-forms; every scenario has an identity section and automorphism."""
    identity = _const_poly(chart.dim, alg.dim, np.zeros(alg.dim))

    def exp_sections(polys):
        polys = {"identity": identity, **polys}
        return {n: _section_from_poly(alg, p, n) for n, p in polys.items()}

    scenario = GaugeScenario(chart, alg, LabConnection.from_omega(alg, omega), zeta, a)
    return ScenarioBundle(
        name=name, scenario=scenario, sections=exp_sections(sections),
        automorphisms=exp_sections(autos),
        shift=shift, generator=generator, plan=plan or SamplePlan(),
        tolerances=dict(tolerances or {}),
        quadrature=dict(quadrature or {"order": 24}),
        expected_charge=expected_charge)


def _const_poly(n, dim, coeffs) -> PolyData:
    return PolyData(n, 0, (dim,), {(): [(np.asarray(coeffs, dtype=float),
                                         np.zeros(n, dtype=int))]})


def _linear_poly(n, dim, rows) -> PolyData:
    """rows: list of (coeff vector, exponent vector) pairs on the empty index."""
    return PolyData(n, 0, (dim,), {(): [(np.asarray(c, dtype=float),
                                         np.asarray(e, dtype=int))
                                        for c, e in rows]})


def _bpst() -> ScenarioBundle:
    alg = su2()
    chart = stereographic_chart(half=2.0, orientation=-1)
    omega = bpst_potential(box=chart.box)
    zeta = bpst_central_form(box=chart.box)
    a = zero_form(4, 1, "algebra", (3,), box=chart.box)
    # the shift that straightens the splitting: the potential itself
    shift = omega
    generator = form_from_poly(4, 0, "algebra", (3,),
                               _linear_poly(4, 3, [([0.2, 0.0, 0.0], [0, 1, 0, 0]),
                                                   ([0.0, -0.1, 0.0], [1, 0, 0, 0]),
                                                   ([0.0, 0.0, 0.1], [0, 0, 0, 1])]),
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
                     sections, autos, expected_charge=1.0)


_SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")


def builtin_scenario(name: str) -> ScenarioBundle:
    """The named built-in: bpst from its closed-form builder, every other one
    from its packaged scenario file `scenarios/<name>.json`."""
    if name not in SCENARIO_NAMES:
        raise ScenarioError(f"unknown built-in scenario {name!r}; "
                            f"choose from {sorted(SCENARIO_NAMES)}")
    if name == "bpst":
        return _bpst()
    return load_scenario(os.path.join(_SCENARIO_DIR, f"{name}.json"))


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

_MAX_DIM = 16


def _chart_from_dict(blob) -> Chart:
    _object("chart", blob, ("dim", "half", "metric", "orientation"))
    for key in ("dim", "half"):
        if key not in blob:
            raise ScenarioError(f"chart: missing key {key!r}")
    dim = _int_field("chart.dim", blob["dim"])
    half = require_finite_positive("chart.half", blob["half"])
    metric = blob.get("metric", "euclidean")
    orientation = _int_field("chart.orientation", blob.get("orientation", 1))
    if not isinstance(metric, str) or metric not in METRIC_KINDS:
        raise ScenarioError(f"chart.metric: unknown metric {metric!r}; "
                            f"choose from {sorted(METRIC_KINDS)}")
    if orientation not in (1, -1):
        raise ScenarioError(f"chart.orientation: must be +1 or -1, got "
                            f"{orientation}")
    if dim < 2:
        raise ScenarioError("chart.dim: the central form is a 2-form, so the "
                            "chart needs at least two axes")
    if dim > _MAX_DIM:  # a run reads C(dim, 3) components a point; the box alone may not fit
        raise ScenarioError(f"chart.dim: at most {_MAX_DIM} axes, got {dim}")
    if not math.isfinite(2 * half):  # the sample points span the box's width
        raise ScenarioError(f"chart.half: the box width 2 * half overflows, got {half!r}")
    if metric != "euclidean" and dim != 4:
        raise ScenarioError(f"chart.metric: the {metric} metric needs dim 4")
    if metric == "minkowski" and orientation != 1:
        raise ScenarioError("chart.orientation: minkowski chart is oriented +1")
    return Chart(dim, np.array([[-half, half]] * dim), orientation, metric)


class _NotACoefficient(Exception):
    """A polynomial coefficient that is no finite real number."""


def _poly_from_blob(field_name, blob, n, dim, degree) -> PolyData:
    """The payload of a degree-`degree` form blob, read and checked in one
    pass: the blob and each term name only their fields, and a coefficient
    follows `_finite_real`'s number rule (no bool, string, NaN or Infinity)."""
    _object(field_name, blob, ("degree", "terms"))
    terms = {}
    try:
        for key, rows in blob.get("terms", {}).items():
            read = terms[tuple(int(s) for s in key.split(",")) if key else ()] = []
            for t in rows:
                coeffs = _object(f"terms[{key!r}]", t, ("coeffs", "exponents"))["coeffs"]
                # the floats and ints JSON gives skip the slower abstract-class check
                plain = type(coeffs) is list and all(type(c) in (float, int) for c in coeffs)
                for c in coeffs if plain else np.asarray(coeffs, dtype=object).ravel():
                    if not (plain or isinstance(c, Real) and not isinstance(c, bool)) \
                            or not math.isfinite(c):
                        raise _NotACoefficient(c)
                read.append((np.asarray(coeffs, dtype=float), np.array(
                    [_int_field("exponents", e) for e in t["exponents"]], dtype=int)))
        poly = PolyData(n, _int_field("degree", blob["degree"]), (dim,), terms)
    except _NotACoefficient as exc:
        raise ScenarioError(f"{field_name}: polynomial coefficients must be finite "
                            f"numbers, got {exc.args[0]!r}") from None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{field_name}: malformed polynomial payload "
                            f"({exc})") from None
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
            if expo.shape != (n,) or min(expo.tolist()) < 0:
                raise ScenarioError(f"{field_name}: exponent vector {expo} "
                                    f"must be {n} non-negative integers")
    return poly


def _form_from_blob(field_name, blob, chart, dim, degree) -> LieForm:
    poly = _poly_from_blob(field_name, blob, chart.dim, dim, degree)
    return form_from_poly(chart.dim, degree, "algebra", (dim,), poly, box=chart.box)


def _coeff_polys_from_dict(field_name, blob, n, dim) -> dict:
    out = {}
    if blob is None:
        return out
    if not isinstance(blob, dict):
        raise ScenarioError(f"{field_name}: must be an object of named entries")
    for name, entry in blob.items():
        path = f"{field_name}.{name}"
        if not isinstance(entry, dict) or "exp_coeffs" not in entry:
            raise ScenarioError(f"{path}: needs an 'exp_coeffs' polynomial")
        out[name] = _poly_from_blob(path, _object(path, entry, ("exp_coeffs",))["exp_coeffs"],
                                    n, dim, 0)
    return out


def scenario_from_dict(data, source="<dict>") -> ScenarioBundle:
    _object("", data, ("name", "algebra", "chart", "forms", "sections", "automorphisms",
                       "plan", "tolerances", "quadrature", "expected_charge"),
            label=f"{source}: top level")
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

    chart = _chart_from_dict(data.get("chart", {"dim": 2, "half": 1.0}))
    n, dim = chart.dim, alg.dim

    forms = _object("forms", data.get("forms", {}), ("omega", "zeta", "A", "lambda", "epsilon"))
    if "omega" not in forms:
        raise ScenarioError("forms.omega: missing")
    omega = _form_from_blob("forms.omega", forms["omega"], chart, dim, 1)

    if "zeta" not in forms:
        raise ScenarioError("forms.zeta: missing (give a 2-form or the "
                            "directive \"curvature-of-omega\")")
    if forms["zeta"] == "curvature-of-omega":
        zeta = potential_curvature(alg, omega)
    else:
        zeta = _form_from_blob("forms.zeta", forms["zeta"], chart, dim, 2)

    if "A" not in forms:
        raise ScenarioError("forms.A: missing")
    a = _form_from_blob("forms.A", forms["A"], chart, dim, 1)

    # a missing shift or generator is the zero form
    shift = _form_from_blob("forms.lambda", forms.get("lambda", {"degree": 1}), chart, dim, 1)
    generator = _form_from_blob("forms.epsilon", forms.get("epsilon", {"degree": 0}),
                                chart, dim, 0)

    sections = _coeff_polys_from_dict("sections", data.get("sections"), n, dim)
    autos = _coeff_polys_from_dict("automorphisms", data.get("automorphisms"), n, dim)

    plan_blob = _object("plan", data.get("plan", {}), ("mode", "count", "seed", "tangent_probes"))
    try:
        plan = SamplePlan.from_json(plan_blob)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"plan: {exc}") from None
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError("tolerances: must be an object of check -> bound")
    quad = _object("quadrature", data.get("quadrature", {}), ("order",))
    order = _int_field("quadrature.order", quad.get("order", 24))
    if order < 1:
        raise ScenarioError(f"quadrature.order: must be a positive integer, "
                            f"got {order}")
    quadrature = {"order": order}
    expected_charge = data.get("expected_charge")
    if expected_charge is not None:
        expected_charge = _finite_real("expected_charge", expected_charge)

    bundle = _assemble(name, chart, alg, omega, zeta, a, shift, generator,
                       sections, autos,
                       quadrature=quadrature, expected_charge=expected_charge,
                       plan=plan, tolerances=tolerances)

    # eager invariant: every section and automorphism is a group-variety
    # element at the chart center. One exponential and one variety check
    # cover them all; a non-finite row passes, as it passes `on_variety`.
    named = [(f"{label}.{key}", sec.form.poly) for label, secs in (
        ("sections", bundle.sections), ("automorphisms", bundle.automorphisms))
        for key, sec in secs.items()]
    center = chart.box.mean(axis=1).tolist()
    coeffs = np.array([sum((c * math.prod(map(pow, center, e.tolist())) for c, e in
                            poly.terms.get((), ())), np.zeros(dim)) for _, poly in named])
    for (label, _), resid in zip(named, variety_residual(alg, group_exp(alg, coeffs))):
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


def _section_to_blob(field_name, sec: GSection) -> dict:
    """{"exp_coeffs": c} of a section exp(c), c a polynomial 0-form."""
    if sec.form is None or sec.scale != 1.0:
        raise ScenarioError(f"{field_name}: only a section exp(c) of a polynomial "
                            "0-form c can be serialized to a scenario file")
    return {"exp_coeffs": _form_to_blob(field_name, sec.form)}


def scenario_to_dict(bundle: ScenarioBundle) -> dict:
    return {
        "name": bundle.name,
        "algebra": algebra_to_dict(bundle.algebra),
        "chart": {"dim": bundle.chart.dim,
                  "half": float(bundle.chart.box[0, 1]),
                  "metric": bundle.chart.metric_kind,
                  "orientation": bundle.chart.orientation},
        "forms": {
            "omega": _form_to_blob("forms.omega", bundle.omega),
            "zeta": _form_to_blob("forms.zeta", bundle.zeta),
            "A": _form_to_blob("forms.A", bundle.gauge_field),
            "lambda": _form_to_blob("forms.lambda", bundle.shift),
            "epsilon": _form_to_blob("forms.epsilon", bundle.generator),
        },
        "sections": {name: _section_to_blob(f"sections.{name}", sec)
                     for name, sec in bundle.sections.items()},
        "automorphisms": {name: _section_to_blob(f"automorphisms.{name}", sec)
                          for name, sec in bundle.automorphisms.items()},
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
        """`csv_rows` under a header, as `csv.writer` writes them; a check's
        quoted `suite,check,` prefix is rendered once for all its points."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("suite,check,point,residual\r\n")
            for suite, check in ((s, c) for s in self.suites for c in s.checks):
                line = io.StringIO()
                csv.writer(line).writerow((suite.name, check.check, ""))
                prefix = line.getvalue()[:-2]  # less its "\r\n"
                fh.write("".join(f"{prefix}{p},{r!r}\r\n" for p, r in check.per_point))


# ---------------------------------------------------------------------------
# suite machinery
# ---------------------------------------------------------------------------

# Every check, declared once: suite -> {check: default tolerance}, in report
# order. A gauge-laws check is reported once per section or automorphism, as
# "<check>:<name>"; bianchi reports "analytic" when del, zeta and A have an
# exact d, else "stencil".
CHECKS = {
    "algebra": {"jacobi": 1e-9, "ad-homomorphism": 1e-9, "kappa-invariance": 1e-9,
                "exp-ad-consistency": 1e-9},
    "compatibility": {"derivation": COMPATIBILITY_TOL, "curvature": COMPATIBILITY_TOL},
    "darboux": {"leibniz": 1e-6, "inverse": 1e-6},
    "fibre-connection": {"stencil-vs-analytic": 1e-6},
    "multiplicativity": {"total-form": 1e-9},
    "generalized-mc": {"total-space": 1e-5, "pullback": 1e-3},
    "principal": {"action-differential": 1e-7, "section-independence": 1e-8,
                  "equivariance": 1e-8, "kernel-invariance": 1e-8,
                  "projection-commutation": 1e-8, "mixed-bracket": 1e-4},
    "structure-equation": {"dual-path": 1e-6, "horizontality": 1e-8, "adjoint-type": 1e-5},
    "gauge-laws": {"section": 1e-5, "automorphism-potential": 1e-5,
                   "automorphism-field-strength": 1e-5},
    "bianchi": {"analytic": 1e-7, "stencil": 1e-4},
    "field-redef": {"invariance": 1e-6, "closure-derivation": COMPATIBILITY_TOL,
                    "closure-curvature": COMPATIBILITY_TOL},
    "lagrangian": {"finite": 1e-6, "infinitesimal": 1e-5},
    "self-duality": {"central-form": 1e-6},
    "charge": {"instanton-number": 1e-2},
}
DEFAULT_TOLERANCES = {f"{suite}/{check}": tol
                      for suite, checks in CHECKS.items() for check, tol in checks.items()}


@dataclass
class RunEnv:
    plan: SamplePlan
    h: float = None
    h2: float = None
    tol_scale: float = 1.0
    overrides: dict = field(default_factory=dict)

    def tol(self, key: str) -> float:
        """The bound of check `key` times tol_scale: its own override, else
        that of its key before ':', else that key's default."""
        base = key.split(":", 1)[0]
        return float(self.overrides.get(key, self.overrides.get(
            base, DEFAULT_TOLERANCES[base]))) * self.tol_scale


def _check_row(env: RunEnv, key: str, residuals) -> CheckRow:
    """Row of one check from its residuals: a (P,) array, one per plan point,
    or a float, the one global residual at point -1; and their max_gap."""
    residuals = np.asarray(residuals, dtype=float)
    points = range(len(residuals)) if residuals.ndim else [-1]
    return CheckRow(key.split("/", 1)[1], max_gap((residuals,)), env.tol(key),
                    list(zip(points, np.atleast_1d(residuals).tolist())))


# -- individual suites -------------------------------------------------------

def algebra_kernel_residuals(alg: LieAlgebraDescriptor, count: int,
                             seed=42) -> dict:
    """Sampled residuals of the bracket/adjoint kernel laws (sample i drawn
    from `default_rng([seed, i])`), plus the exact Jacobi residual of the
    structure constants."""
    coeffs, _ = _point_draws(SamplePlan(count=count, seed=seed), count, alg.dim, 2, 0,
                             probes=0, scale=0.8)
    gu, gv = np.moveaxis(group_exp(alg, coeffs), 1, 0)
    ad_u, ad_v, ad_uv = ad_matrix_of_group(alg, np.stack([gu, gv, gu @ gv]))
    kappa = alg.kappa
    return {"jacobi": float(np.abs(jacobi_tensor(alg.structure_constants)).max()),
            "ad-homomorphism": max_gap_rows(ad_uv - ad_u @ ad_v).tolist(),
            "kappa-invariance": max_gap_rows(
                np.swapaxes(ad_u, -1, -2) @ kappa @ ad_u - kappa).tolist(),
            "exp-ad-consistency": max_gap_rows(
                ad_u - expm(ad_matrix_c(alg, coeffs[:, 0]))).tolist()}


def _suite_algebra(bundle, env):
    return algebra_kernel_residuals(bundle.algebra, env.plan.count, seed=env.plan.seed)


def _suite_compatibility(bundle, env):
    rep = check_compatibility(bundle.scenario, env.plan)
    return {"derivation": rep.derivation_rows, "curvature": rep.curvature_rows}


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
        sections.append(GSection(alg, lambda Y, b=b, w=w: group_exp(
            alg, b + (w @ Y[..., None])[..., 0]), name=f"rand{i}"))
    return [(sections[i], sections[(i + 3) % count]) for i in range(count)]


def _darboux_pairs(bundle, seed):
    """The darboux suite's section pairs: 8 random pairs, then the first two
    named sections other than the identity, when there are two."""
    pairs = _random_section_pairs(bundle, 8, seed)
    named = [bundle.sections[n] for n in sorted(bundle.sections) if n != "identity"]
    return pairs + [(named[0], named[1])] if len(named) >= 2 else pairs


def _suite_darboux(bundle, env):
    # at each point, the largest gap over the pairs
    leibniz, inverse = darboux_pair_rows(bundle.scenario, _darboux_pairs(bundle, env.plan.seed),
                                         env.plan)
    return {"leibniz": max_gap_rows(leibniz.T), "inverse": max_gap_rows(inverse.T)}


def _suite_fibre_connection(bundle, env):
    X = env.plan.points(bundle.chart)
    got = nabla_from_darboux(bundle.scenario, bundle.generator, X, t_step=env.h or FD_STEP)
    return {"stencil-vs-analytic": max_gap_rows(
        got - induced_connection(bundle.scenario, bundle.generator, X))}


def _suite_multiplicativity(bundle, env):
    return {"total-form": multiplicativity_rows(bundle.scenario, env.plan)}


def _suite_generalized_mc(bundle, env):
    return {"total-space": generalized_mc_rows(bundle.scenario, env.plan),
            "pullback": pullback_mc_rows(
                bundle.scenario, _distinguished_section(bundle), env.plan)}


def _suite_principal(bundle, env):
    s, plan = bundle.scenario, env.plan
    return {"action-differential": action_differential_rows(s, plan),
            "section-independence": section_independence_rows(s, plan),
            "equivariance": equivariance_rows(s, plan),
            "kernel-invariance": kernel_invariance_rows(s, plan),
            "projection-commutation": projection_commutation_rows(s, plan),
            "mixed-bracket": mixed_bracket_rows(s, bundle.generator, plan, env.h or FD_STEP)}


def _suite_structure_equation(bundle, env):
    return dict(zip(("dual-path", "horizontality", "adjoint-type"),
                    structure_equation_rows(bundle.scenario, env.plan)))


def _suite_gauge_laws(bundle, env):
    checks = {f"section:{name}": change_of_gauge(bundle.scenario, sec, env.plan)
              for name, sec in sorted(bundle.sections.items())}
    names = sorted(bundle.automorphisms)
    for name, (potential, field_strength) in zip(names, gauge_transform_total(
            bundle.scenario, [bundle.automorphisms[name] for name in names], env.plan)):
        checks[f"automorphism-potential:{name}"] = potential
        checks[f"automorphism-field-strength:{name}"] = field_strength
    return checks


def _suite_bianchi(bundle, env):
    s = bundle.scenario
    analytic = all(form.has_exact_d() for form in (s.nabla.gamma, s.zeta, s.gauge_field))
    return {"analytic" if analytic else "stencil": bianchi_rows(s, env.plan)}


def _suite_field_redef(bundle, env):
    s = bundle.scenario
    shifted = field_redefine(s, bundle.shift)
    closure = check_compatibility(shifted, env.plan)
    return {"invariance": field_redef_rows(s, shifted, env.plan),
            "closure-derivation": closure.derivation_rows,
            "closure-curvature": closure.curvature_rows}


def _suite_lagrangian(bundle, env):
    s = bundle.scenario
    return {"finite": density_gauge_invariance_rows(s, _distinguished_section(bundle), env.plan),
            "infinitesimal": density_infinitesimal_rows(s, bundle.generator, env.plan,
                                                        t_step=env.h2 or FD_STEP)}


def _suite_self_duality(bundle, env):
    return {"central-form": self_duality_rows(bundle.scenario, env.plan)}


def _suite_charge(bundle, env):
    q = instanton_charge(bundle.scenario, order=bundle.quadrature["order"])
    return {"instanton-number": abs(q - (bundle.expected_charge or 0.0))}


def _needs_dim4(bundle):
    return (bundle.chart.dim == 4
            or "needs a four-dimensional chart, scenario has "
               f"dim {bundle.chart.dim}")


def _always(bundle):
    return True


def _needs_potential(bundle):
    """The group-bundle and principal laws read the horizontal potential omega."""
    return (bundle.scenario.nabla.omega is not None
            or "needs the horizontal potential omega; the scenario's connection has none")


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
        _needs_potential, _suite_darboux),
    "fibre-connection": (
        "the fibre connection recovered from the parameter derivative of "
        "logarithmic derivatives along section families",
        _needs_potential, _suite_fibre_connection),
    "multiplicativity": (
        "the total one-form intertwines fibrewise multiplication with the "
        "adjoint twist of its slots",
        _needs_potential, _suite_multiplicativity),
    "generalized-mc": (
        "curvature identity of the total one-form, the central form entering "
        "through the adjoint defect, and its pullback along sections",
        _needs_potential, _suite_generalized_mc),
    "principal": (
        "differential of the fibrewise action, equivariance and kernel "
        "stability of the connection one-form, projector commutation, and "
        "the mixed bracket of horizontal lifts with fundamental fields",
        _needs_potential, _suite_principal),
    "structure-equation": (
        "the total field strength agrees with its covariant-derivative "
        "assembly, kills vertical arguments, and transforms in the adjoint",
        _needs_potential, _suite_structure_equation),
    "gauge-laws": (
        "finite transformation laws of the potential and the field strength "
        "under group-valued sections and bundle automorphisms",
        _needs_potential, _suite_gauge_laws),
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
        _needs_potential, _suite_lagrangian),
    "self-duality": (
        "the central form equals its own Hodge dual on the instanton chart",
        _needs_dim4, _suite_self_duality),
    "charge": (
        "topological charge from the paired field strength by Gauss-Legendre "
        "quadrature mapped onto the whole chart",
        _needs_dim4, _suite_charge),
}


def suite_names():
    return tuple(SUITES)


def _finite_real(field_name: str, value, positive: bool = False) -> float:
    """`value` as a float if it is a finite real number (not a bool or a
    string), and greater than 0 if `positive`; else ScenarioError naming
    the field."""
    x = math.nan
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not (math.isfinite(x) and (x > 0.0 or not positive)):
        raise ScenarioError(f"{field_name}: must be a finite number"
                            f"{' greater than 0' if positive else ''}, got {value!r}")
    return x


def require_finite_positive(field_name: str, value) -> float:
    """`_finite_real` for a step, a tolerance, the tolerance scale or the
    chart's half-width: each must be greater than 0."""
    return _finite_real(field_name, value, positive=True)


# the suites whose laws the paper proves only for a compatible connection and
# central form; a run checks the pair once, before the first of them
_GATED = ("gauge-laws", "bianchi", "field-redef", "lagrangian", "charge")
GATE_PLAN = SamplePlan(count=16, seed=0)


def _gate_rows(s: GaugeScenario) -> list:
    """[] when the pair passes both compatibility laws on GATE_PLAN within
    COMPATIBILITY_TOL (which the tolerance scale does not move), else the one
    global row `compatibility-gate`, at the larger residual, that each gated
    suite reports in place of its checks."""
    rep = check_compatibility(s, GATE_PLAN)
    if rep.passed:
        return []
    residual = max_gap((rep.derivation_rows, rep.curvature_rows))
    return [CheckRow("compatibility-gate", residual, COMPATIBILITY_TOL, [(-1, residual)])]


def _suite_checks(name, fn, bundle, env) -> list:
    """The rows of suite `name` from its {check: residuals}, one `_check_row`
    each; a variety or drift watchdog that fires inside it gives the one
    global row `watchdog`, NaN against the watchdog's bound."""
    try:
        checks = fn(bundle, env)
    except (VarietyError, ReexpansionError) as exc:
        bound = VARIETY_TOL if isinstance(exc, VarietyError) else DRIFT_TOL
        return [CheckRow("watchdog", math.nan, bound, [(-1, math.nan)])]
    return [_check_row(env, f"{name}/{check}", residuals) for check, residuals in checks.items()]


def run_suite(bundle: ScenarioBundle, suite_name: str, plan: SamplePlan = None,
              tolerances: dict = None, h: float = None, h2: float = None,
              tol_scale: float = 1.0) -> VerificationReport:
    """Run one named suite (or "all") against a scenario bundle. A failed
    compatibility gate or a watchdog that fires gives a failing row, not an
    exception (see `_gate_rows` and `_suite_checks`)."""
    require_finite_positive("tol_scale", tol_scale)
    for field_name, step in (("h", h), ("h2", h2)):
        if step is not None:
            require_finite_positive(field_name, step)
    overrides = {**bundle.tolerances, **(tolerances or {})}
    # a key names a check, or a gauge-laws check and the one entry of its rows
    keys = {*DEFAULT_TOLERANCES, *(f"gauge-laws/section:{name}" for name in bundle.sections),
            *(f"gauge-laws/automorphism-{law}:{name}" for law in ("potential", "field-strength")
              for name in bundle.automorphisms)}
    for key, value in overrides.items():
        if key not in keys:
            raise ScenarioError(f"tolerances.{key}: names no check; choose from {sorted(keys)}")
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
            raise ScenarioError(f"suite {suite_name!r} is not applicable: {applicable}")
        selected = [suite_name]

    reports, gate = [], None
    for name in selected:
        anchor, _, fn = SUITES[name]
        if name in _GATED and gate is None:
            gate = _gate_rows(bundle.scenario)
        checks = list(gate) if name in _GATED and gate else _suite_checks(name, fn, bundle, env)
        reports.append(SuiteReport(name=name, anchor=anchor, checks=checks))
    env_blob = {"seed": env.plan.seed, "points": env.plan.count,
                "tangent_probes": env.plan.tangent_probes,
                "h": "default" if env.h is None else env.h,
                "h2": "default" if env.h2 is None else env.h2,
                "tol_scale": env.tol_scale}
    return VerificationReport(scenario=bundle.name, suites=reports, env=env_blob)
