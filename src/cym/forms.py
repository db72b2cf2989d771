"""Vector-valued differential forms on a boxed coordinate chart.

A form has one definition of its components on the strictly increasing
multi-indices at the points of a (P, n) batch: its polynomial payload, which
polynomial sums and products build from their parts' payloads, or else its
batch, the map to their table that other forms build on their factors'
tables, so a whole plan is read in one pass. Its d comes, in order, from:

  1. the payload (`PolyData`): exact calculus, closed under the
     exterior derivative and under graded products with constant pairings;
  2. an `analytic_d` batch, the table of its exterior derivative (for
     closed-form but non-polynomial data);
  3. nothing: the central stencil every law in cym reads, at the form's own
     step, one-sided at the box boundary (an order-loss event is recorded so
     reports can flag the accuracy drop).

The graded product implements the shuffle form of the 1/(k! m!)-normalized
permutation sum for an arbitrary constant bilinear pairing, so e.g.
(1/2)[A wedge A](X, Y) = [A(X), A(Y)] for 1-forms.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np
# numpy 2 imports numpy.random on first use; every run draws its points from it
from numpy.random import default_rng

if TYPE_CHECKING:  # annotations only: algebra imports max_gap from here
    from .algebra import LieAlgebraDescriptor

__all__ = [
    "Chart", "LieForm", "PolyData", "Pairing", "SamplePlan",
    "euclidean_chart", "stereographic_chart", "minkowski_chart",
    "increasing_indices", "exterior_derivative", "graded_product",
    "add_forms", "scale_form", "zero_form", "form_from_poly",
    "form_from_components",
    "bracket_pairing", "kappa_pairing", "endo_action_pairing",
    "endo_compose_pairing", "hodge_star", "kappa_wedge_top",
    "drain_order_loss_events", "max_gap", "max_gap_rows", "ScenarioError",
]

# order-loss events from one-sided stencils; drained by reports
_ORDER_LOSS: list = []

FD_STEP = 1e-5  # the default step of a central stencil


class ScenarioError(ValueError):
    """Scenario construction failure; the message names the offending field."""


def _int_field(field_name, value) -> int:
    """`value` if it is an integer (not a bool, a float or a string), as
    `SamplePlan` demands of its counts; else ScenarioError naming the field.
    A plain int, as JSON gives, skips the slower abstract-class check."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ScenarioError(f"{field_name}: must be an integer, got {value!r}")
    return int(value)


def _object(path: str, blob, fields, label=None) -> dict:
    """`blob` if it is an object whose every key names one of `fields`, else
    ScenarioError naming `label` (default `path`) or the key: a misspelt key
    is refused, not dropped. Keys of the top level (path '') are named alone."""
    if not isinstance(blob, dict):
        raise ScenarioError(f"{label or path}: must be an object")
    for key in blob:
        if key not in fields:
            raise ScenarioError(f"{path}{'.' if path else ''}{key}: not a field; "
                                f"choose from {list(fields)}")
    return blob


def drain_order_loss_events():
    global _ORDER_LOSS
    out, _ORDER_LOSS = _ORDER_LOSS, []
    return out


@lru_cache(maxsize=None)
def increasing_indices(n: int, k: int):
    """All strictly increasing multi-indices of length k in range(n)."""
    return tuple(itertools.combinations(range(n), k))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

# each metric kind as (time sign, conformal factor): at the rows of a (P, n)
# batch X the metric is factor(X) diag(time sign, 1, ..., 1), or that
# diagonal alone when the kind has no factor
METRIC_KINDS = {
    "euclidean": (1, None),
    "round-s4": (1, lambda X: 4.0 / (1.0 + np.einsum("pi,pi->p", X, X)) ** 2),
    "minkowski": (-1, None),
}


@dataclass
class Chart:
    """A coordinate box with a metric and an orientation sign.

    metric_kind is one of `METRIC_KINDS`, the word a scenario file's
    chart.metric uses: "euclidean", "round-s4" (the stereographic chart of
    the round 4-sphere) or "minkowski". Each is conformally flat with a
    diagonal signature, so its time sign and its conformal factor are the
    whole metric.
    """

    dim: int
    box: np.ndarray  # (dim, 2) rows (lo, hi)
    orientation: int = 1
    metric_kind: str = "euclidean"

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        if self.box.shape != (self.dim, 2) or (self.box[:, 1] <= self.box[:, 0]).any():
            raise ValueError("box must be (dim, 2) with lo < hi on every axis")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if self.metric_kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.metric_kind!r}")

    def half_width(self) -> float:
        return float((self.box[:, 1] - self.box[:, 0]).max() / 2)

    def default_step(self) -> float:
        return FD_STEP * self.half_width()

    def contains(self, x) -> bool:
        x = np.asarray(x)
        return bool(((x >= self.box[:, 0]) & (x <= self.box[:, 1])).all())


def euclidean_chart(dim: int = 4, half: float = 1.0, orientation: int = 1) -> Chart:
    box = np.array([[-half, half]] * dim)
    return Chart(dim=dim, box=box, orientation=orientation)


def stereographic_chart(half: float = 2.0, orientation: int = -1) -> Chart:
    """Stereographic chart of the round 4-sphere.

    The orientation is chosen so that the reference instanton is self-dual
    and carries charge +1 (see the topological-charge tests).
    """
    box = np.array([[-half, half]] * 4)
    return Chart(dim=4, box=box, orientation=orientation,
                 metric_kind="round-s4")


def minkowski_chart(half: float = 1.0) -> Chart:
    box = np.array([[-half, half]] * 4)
    return Chart(dim=4, box=box, metric_kind="minkowski")


# ---------------------------------------------------------------------------
# polynomial payload
# ---------------------------------------------------------------------------

class PolyData:
    """Polynomial components: idx -> list of (coefficient array, exponent
    vector), one term per monomial. The terms given for a component that
    share an exponent vector are merged, their coefficients summed in the
    order they first appear, and a zero sum leaves no term."""

    def __init__(self, n, degree, value_shape, terms):
        self.n = n
        self.degree = degree
        self.value_shape = tuple(value_shape)
        self.terms = {}
        for idx, lst in terms.items():
            merged = {}
            for c, e in lst:
                c, e = np.asarray(c, dtype=float), np.asarray(e, dtype=int)
                key = (c.shape, e.tobytes())  # unequal shapes stay apart, to be rejected
                merged[key] = (merged[key][0] + c, e) if key in merged else (c, e)
            cleaned = [(c, e) for c, e in merged.values()  # a NaN is nonzero; max raises on []
                       if np.count_nonzero(c) or not c.size and np.abs(c).max()]
            if cleaned:
                self.terms[tuple(idx)] = cleaned

    def evaluate(self, x, idx):
        out = np.zeros(self.value_shape)
        for coef, expo in self.terms.get(tuple(idx), ()):
            out = out + coef * np.prod(np.asarray(x) ** expo)
        return out

    @cached_property
    def _slots(self):
        """The distinct exponent vectors of the payload, (M, n), and for each
        term position k the columns with a k-th term, the coefficients of
        those terms and the rows of their exponent vectors."""
        column = {I: c for c, I in enumerate(increasing_indices(self.n, self.degree))}
        rows, slots = {}, []
        for idx, lst in self.terms.items():
            if idx not in column:  # not an increasing index: not a component
                continue
            for k, (coef, expo) in enumerate(lst):
                if k == len(slots):
                    slots.append(([], [], []))
                row = rows.setdefault(expo.tobytes(), (len(rows), expo))[0]
                for store, value in zip(slots[k], (column[idx], coef, row)):
                    store.append(value)
        exponents = np.array([e for _, e in rows.values()], dtype=int).reshape(-1, self.n)
        return exponents, [tuple(map(np.array, slot)) for slot in slots]

    def table(self, X) -> np.ndarray:
        """Every component at each row of the (P, n) batch X, shape
        (P, C(n, degree), *value_shape). Each distinct monomial is read once
        over the batch; then the k-th terms of all components are added at
        once, for k = 0, 1, ..., so each entry sums its terms in the order
        `evaluate` sums them and matches it bit for bit."""
        X = np.asarray(X, dtype=float)
        exponents, slots = self._slots
        monomials = np.prod(X[:, None, :] ** exponents, axis=2)
        out = np.zeros((len(X), math.comb(self.n, self.degree)) + self.value_shape)
        tail = (1,) * len(self.value_shape)
        for cols, coefs, rows in slots:
            out[:, cols] = out[:, cols] + coefs * monomials[:, rows].reshape(
                (len(X), len(rows)) + tail)
        return out

    def d(self) -> "PolyData":
        """Exact exterior derivative of the payload, d f = dx ^ df/dx on the (1, k)-shuffles."""
        new = {}
        for J in increasing_indices(self.n, self.degree + 1):
            acc = []
            for (pos,), rest, sign in _shuffles(1, self.degree):
                j, sub = J[pos], tuple(J[i] for i in rest)
                for coef, expo in self.terms.get(sub, ()):
                    if expo[j] == 0:
                        continue
                    e2 = expo.copy()
                    e2[j] -= 1
                    acc.append((sign * expo[j] * coef, e2))
            if acc:
                new[J] = acc
        return PolyData(self.n, self.degree + 1, self.value_shape, new)
    _d = cached_property(d)  # what a form differentiates by, built at its first read

    def combine(self, other, alpha=1.0, beta=1.0) -> "PolyData":
        terms = {}
        for idx, lst in self.terms.items():
            terms.setdefault(idx, []).extend((alpha * c, e) for c, e in lst)
        for idx, lst in other.terms.items():
            terms.setdefault(idx, []).extend((beta * c, e) for c, e in lst)
        return PolyData(self.n, self.degree, self.value_shape, terms)

    def scaled(self, alpha) -> "PolyData":
        return PolyData(self.n, self.degree, self.value_shape,
                        {i: [(alpha * c, e) for c, e in lst]
                         for i, lst in self.terms.items()})

    def to_json(self):
        return {
            "degree": self.degree,
            "terms": {",".join(map(str, idx)): [
                {"coeffs": c.tolist(), "exponents": e.tolist()} for c, e in lst]
                for idx, lst in self.terms.items()},
        }


# ---------------------------------------------------------------------------
# the form container
# ---------------------------------------------------------------------------

@dataclass
class LieForm:
    """A degree-k form with values in the algebra, its endomorphisms, or scalars.

    A form has one definition of the (P, C(n, k), *value_shape) table of its
    components at a (P, n) batch of points, in `increasing_indices` order:
    its polynomial payload `poly`, or else its `batch`, with `analytic_d`,
    when given, the batch of its exterior derivative one degree up; batches
    must be pure functions of the points. `table(X)` reads the definition and
    keeps the table of the last batch; `components(x, idx)` is the one-row
    read of it. A per-point closure becomes a form through `form_from_components`.
    """

    n: int
    degree: int
    value_target: str          # "algebra" | "endomorphism" | "scalar"
    value_shape: tuple
    batch: callable = field(default=None, repr=False)       # (P, n) -> table(X)
    analytic_d: callable = field(default=None, repr=False)  # (P, n) -> table of d
    fd_step: float = FD_STEP
    box: np.ndarray = None
    poly: PolyData = field(default=None, repr=False)

    def __post_init__(self):
        if (self.batch is None) == (self.poly is None) or self.poly and self.analytic_d:
            raise ValueError("a LieForm needs a batch, or a payload and no batch or analytic_d")
        self._last_table = (None, None)

    def has_exact_d(self) -> bool:
        return self.poly is not None or self.analytic_d is not None

    def table(self, X) -> np.ndarray:
        """Components at each row of the (P, n) batch X, as an array of shape
        (P, C(n, degree), *value_shape) in `increasing_indices` order. The
        table of the last batch is kept, keyed by its coordinates, and comes
        back read-only, so a form read twice over one batch runs once."""
        X = np.asarray(X, dtype=float)
        key = (X.shape, X.tobytes())
        if key != self._last_table[0]:
            value = np.asarray((self.batch if self.poly is None else self.poly.table)(X)).view()
            value.setflags(write=False)
            self._last_table = (key, value)
        return self._last_table[1]

    def components(self, x, idx) -> np.ndarray:
        """The component on the increasing index idx at the point x: one row
        of `table`."""
        column = increasing_indices(self.n, self.degree).index(tuple(idx))
        return self.table(np.asarray(x, dtype=float)[None])[0, column]


def form_from_components(n, degree, value_target, value_shape, components,
                         d=None, fd_step=FD_STEP, box=None) -> LieForm:
    """The form of a per-point closure: components(x, idx) gives the value on
    the increasing multi-index idx at the point x, and d(x, idx), when given,
    that of the exterior derivative. Each closure is stacked into a batch, one
    call per point and index; this is the one place that loops over points,
    so a form read over many points is better given a batch.

        f = form_from_components(2, 1, "scalar", (), lambda x, idx: x[idx[0]] ** 2)
        f.table(np.zeros((5, 2)))  # shape (5, 2)
    """
    value_shape = tuple(value_shape)

    def stacked(fn, k):
        indices = increasing_indices(n, k)
        return lambda X: np.array([[fn(x, I) for I in indices] for x in X], dtype=float
                                  ).reshape((len(X), len(indices)) + value_shape)

    return LieForm(n=n, degree=degree, value_target=value_target,
                   value_shape=value_shape, batch=stacked(components, degree),
                   analytic_d=None if d is None else stacked(d, degree + 1),
                   fd_step=fd_step, box=box)


def zero_form(n, degree, value_target, value_shape, box=None) -> LieForm:
    return form_from_poly(n, degree, value_target, value_shape,
                          PolyData(n, degree, value_shape, {}), box=box)


def form_from_poly(n, degree, value_target, value_shape, poly: PolyData,
                   box=None, fd_step=FD_STEP) -> LieForm:
    return LieForm(n=n, degree=degree, value_target=value_target,
                   value_shape=tuple(value_shape), fd_step=fd_step, box=box, poly=poly)


def add_forms(a: LieForm, b: LieForm, alpha=1.0, beta=1.0) -> LieForm:
    if (a.n, a.degree, a.value_shape) != (b.n, b.degree, b.value_shape):
        raise ValueError("can only add forms of equal chart dim, degree and value shape")
    if a.poly is not None and b.poly is not None:
        return form_from_poly(a.n, a.degree, a.value_target, a.value_shape,
                              a.poly.combine(b.poly, alpha, beta),
                              box=a.box if a.box is not None else b.box,
                              fd_step=max(a.fd_step, b.fd_step))
    d = None
    if a.has_exact_d() and b.has_exact_d():
        # built at its first read: building it here would recurse
        d_sum = cache(lambda: add_forms(exterior_derivative(a), exterior_derivative(b),
                                        alpha, beta))
        d = lambda X: d_sum().table(X)
    return LieForm(n=a.n, degree=a.degree, value_target=a.value_target,
                   value_shape=a.value_shape,
                   batch=lambda X: alpha * a.table(X) + beta * b.table(X),
                   analytic_d=d, fd_step=max(a.fd_step, b.fd_step),
                   box=a.box if a.box is not None else b.box)


def scale_form(a: LieForm, alpha: float) -> LieForm:
    if a.poly is not None:
        return form_from_poly(a.n, a.degree, a.value_target, a.value_shape,
                              a.poly.scaled(alpha), box=a.box, fd_step=a.fd_step)
    d = a.analytic_d
    return replace(a, batch=lambda X: alpha * a.table(X),
                   analytic_d=None if d is None else (lambda X: alpha * d(X)))


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def _central_offsets(N: int, h: float) -> np.ndarray:
    """The (2N + 1, N) offsets of the central stencil of step h: the origin,
    then +h e_k and -h e_k for each axis k in turn."""
    offsets = np.zeros((2 * N + 1, N))
    offsets[1::2][range(N), range(N)] = h
    offsets[2::2][range(N), range(N)] = -h
    return offsets


def _central_quotient(values, h, axis: int = 0) -> np.ndarray:
    """(f(+h e_k) - f(-h e_k)) / 2h for each axis k in turn, from the values
    f at the rows of `_central_offsets` after the origin, stacked along
    `axis`; h broadcasts against the quotients."""
    values = np.moveaxis(values, axis, 0)
    return np.moveaxis((values[0::2] - values[1::2]) / (2 * h), 0, axis)


def _partial(f: LieForm, X, h: float) -> np.ndarray:
    """d/dx_axis of every component at each row of the (P, n) batch X, for
    every axis in turn, shape (n, P, C(n, k), *value_shape), from one read of
    `f.table`: central, or one-sided (half the width) within h of the box
    edge, where it records an order-loss event (row, axis)."""
    P, n = X.shape
    shifted = X + _central_offsets(n, h)[1:, None, :]  # (2n, P, n)
    step = np.full((n, P), h)
    if f.box is not None:
        for axis, (lo, hi) in enumerate(f.box):
            high = X[:, axis] + h > hi
            low = ~high & (X[:, axis] - h < lo)
            shifted[2 * axis][high], shifted[2 * axis + 1][low] = X[high], X[low]
            step[axis, high | low] = h / 2
            _ORDER_LOSS.extend((tuple(x), axis) for x in X[high | low])
    t = f.table(shifted.reshape(-1, n)).reshape((2 * n, P, -1) + f.value_shape)
    return _central_quotient(t, step.reshape((n, P, 1) + (1,) * len(f.value_shape)))


def exterior_derivative(f: LieForm) -> LieForm:
    """d on forms. Polynomial payloads are differentiated exactly; an
    analytic_d batch is used verbatim (and the result is exactly closed);
    otherwise central finite differences with the form's step (`_partial`)."""
    n, k = f.n, f.degree
    if k >= n:
        return zero_form(n, min(k + 1, n), f.value_target, f.value_shape, box=f.box)
    if f.poly is not None:
        return form_from_poly(n, k + 1, f.value_target, f.value_shape,
                              f.poly._d, box=f.box, fd_step=f.fd_step)
    if f.analytic_d is not None:
        zeros = (math.comb(n, k + 2),) + f.value_shape
        return LieForm(n=n, degree=k + 1, value_target=f.value_target,
                       value_shape=f.value_shape, batch=f.analytic_d,
                       analytic_d=lambda X: np.zeros((len(X),) + zeros),
                       fd_step=f.fd_step, box=f.box)
    terms = _shuffle_columns(n, 1, k)  # d f = dx ^ df/dx: (axis, column, sign) on each J

    def batch(X):
        partials = _partial(f, X, f.fd_step)
        out = np.zeros((len(X), len(terms)) + f.value_shape)
        for c, J_terms in enumerate(terms):
            for axis, sub, sign in J_terms:
                out[:, c] = out[:, c] + sign * partials[axis, :, sub]
        return out

    # a second derivative of FD output needs a wider stencil to stay stable
    return LieForm(n=n, degree=k + 1, value_target=f.value_target,
                   value_shape=f.value_shape, batch=batch,
                   fd_step=10 * f.fd_step, box=f.box)


# ---------------------------------------------------------------------------
# graded products
# ---------------------------------------------------------------------------

@dataclass
class Pairing:
    """Constant bilinear pairing on values, with declared output shape/target.

    `fn` broadcasts over leading point axes: given (..., *value_shape)
    arguments it returns (..., *out_shape), so one definition serves a single
    point and a batch of them.
    """

    fn: callable
    out_shape: tuple
    out_target: str


def bracket_pairing(alg: LieAlgebraDescriptor) -> Pairing:
    c = alg.structure_constants
    return Pairing(lambda u, v: np.einsum('...a,...b,abk->...k', u, v, c),
                   (alg.dim,), "algebra")


def kappa_pairing(alg: LieAlgebraDescriptor) -> Pairing:
    k = alg.kappa
    return Pairing(lambda u, v: np.einsum('...a,...a->...', u @ k, v), (), "scalar")


def endo_action_pairing(alg: LieAlgebraDescriptor) -> Pairing:
    return Pairing(lambda m, v: (m @ v[..., None])[..., 0], (alg.dim,), "algebra")


def endo_compose_pairing(alg: LieAlgebraDescriptor) -> Pairing:
    return Pairing(lambda m, nn: m @ nn, (alg.dim, alg.dim), "endomorphism")


@lru_cache(maxsize=None)
def _shuffles(k: int, m: int):
    """(positions for the first factor, complementary positions, sign)."""
    out = []
    for S in itertools.combinations(range(k + m), k):
        T = tuple(i for i in range(k + m) if i not in S)
        inversions = sum(1 for i in S for j in T if i > j)
        out.append((S, T, (-1.0) ** inversions))
    return tuple(out)


@lru_cache(maxsize=None)
def _shuffle_columns(n: int, k: int, m: int):
    """For each increasing (k+m)-index K, the `_shuffles` terms of K as
    (column of the k-index in a k-form table, column of the m-index, sign)."""
    col_a = {I: c for c, I in enumerate(increasing_indices(n, k))}
    col_b = {I: c for c, I in enumerate(increasing_indices(n, m))}
    return tuple(tuple((col_a[tuple(K[i] for i in S)], col_b[tuple(K[i] for i in T)],
                        sign) for S, T, sign in _shuffles(k, m))
                 for K in increasing_indices(n, k + m))


def graded_product(pairing: Pairing, a: LieForm, b: LieForm) -> LieForm:
    """Graded extension of a bilinear pairing: the 1/(k! m!) permutation sum,
    evaluated as a signed sum over (k, m)-shuffles of the factors' components."""
    if a.n != b.n:
        raise ValueError("forms live on charts of different dimension")
    k, m, n = a.degree, b.degree, a.n
    deg = k + m
    box = a.box if a.box is not None else b.box
    if deg > n:
        return zero_form(n, n, pairing.out_target, pairing.out_shape, box=box)

    if a.poly is not None and b.poly is not None:
        terms = {}
        for K in increasing_indices(n, deg):
            acc = []
            for S, T, sign in _shuffles(k, m):
                ia = tuple(K[i] for i in S)
                ib = tuple(K[i] for i in T)
                for ca, ea in a.poly.terms.get(ia, ()):
                    for cb, eb in b.poly.terms.get(ib, ()):
                        acc.append((sign * pairing.fn(ca, cb), ea + eb))
            if acc:
                terms[K] = acc
        return form_from_poly(n, deg, pairing.out_target, pairing.out_shape,
                              PolyData(n, deg, pairing.out_shape, terms),
                              box=box, fd_step=max(a.fd_step, b.fd_step))

    def batch(X):
        ta, tb = a.table(X), b.table(X)
        out = np.empty((len(X), len(increasing_indices(n, deg))) + pairing.out_shape)
        for c, terms in enumerate(_shuffle_columns(n, k, m)):
            acc = np.zeros((len(X),) + pairing.out_shape)
            for ca, cb, sign in terms:
                acc = acc + sign * pairing.fn(ta[:, ca], tb[:, cb])
            out[:, c] = acc
        return out

    d = None
    if a.has_exact_d() and b.has_exact_d():
        # graded Leibniz: d F(a^,b) = F(da^,b) + (-1)^k F(a^,db), built at its
        # first read: building it here would recurse
        d_product = cache(lambda: add_forms(
            graded_product(pairing, exterior_derivative(a), b),
            graded_product(pairing, a, exterior_derivative(b)), 1.0, (-1.0) ** k))
        d = lambda X: d_product().table(X)

    return LieForm(n=n, degree=deg, value_target=pairing.out_target,
                   value_shape=pairing.out_shape, batch=batch, analytic_d=d,
                   fd_step=max(a.fd_step, b.fd_step), box=box)


# ---------------------------------------------------------------------------
# Hodge star and top-degree pairings
# ---------------------------------------------------------------------------

def hodge_star(chart: Chart, f: LieForm) -> LieForm:
    """The star of the chart's metric g = s diag(eta) (`METRIC_KINDS`) on the
    table: (*f)_J = orientation s^((n - 2k)/2) eta_A sign(A, J) f_A, with A
    the complement of J and eta_A the product of eta over A. This is the
    minors formula sqrt|det g| sign(A, J) sum_B det(ginv[A, B]) f_B, whose
    minors of a diagonal metric vanish off B = A: a fixed signed permutation
    of the columns, times a factor skipped when the metric has none or when
    2k = n, where the star is conformally invariant."""
    n, k = f.n, f.degree
    if chart.dim != n:
        raise ValueError("chart/form dimension mismatch")
    time_sign, factor = METRIC_KINDS[chart.metric_kind]
    ins = increasing_indices(n, k)
    source, signs = np.empty(len(ins), dtype=int), np.empty(len(ins))
    # the (k, n - k)-shuffles of the top index: each k-index A, its complement J, sign(A, J)
    for a, j, sign in _shuffle_columns(n, k, n - k)[0]:
        source[j] = a
        signs[j] = chart.orientation * sign * (time_sign if 0 in ins[a] else 1)
    tail = (1,) * len(f.value_shape)
    signs = signs.reshape((-1,) + tail)
    power = (n - 2 * k) / 2

    def batch(X):
        out = signs * f.table(X)[:, source]
        if factor is None or power == 0:
            return out
        return factor(X).reshape((-1, 1) + tail) ** power * out

    return LieForm(n=n, degree=n - k, value_target=f.value_target,
                   value_shape=f.value_shape, batch=batch, fd_step=f.fd_step, box=f.box)


def _kappa_top_matrix(alg: LieAlgebraDescriptor, n: int, k: int, m: int) -> np.ndarray:
    """The (C(n, k) dim, C(n, m) dim) matrix of (f, g) -> kappa(f ^ g) on the
    flattened tables of a k-form and an m-form, k + m = n: sign kappa in the
    block of each shuffle term."""
    dim = alg.dim
    blocks = np.zeros((math.comb(n, k), dim, math.comb(n, m), dim))
    for ca, cb, sign in _shuffle_columns(n, k, m)[0]:
        blocks[ca, :, cb, :] += sign * alg.kappa
    return blocks.reshape(math.comb(n, k) * dim, math.comb(n, m) * dim)


def kappa_wedge_top(alg: LieAlgebraDescriptor, f: LieForm, g: LieForm) -> LieForm:
    """Invariant-pairing wedge into the top degree (scalar-valued density form).
    A batch sums coeff F[row] G[col] over the nonzero entries of the bilinear
    matrix, each symmetric pair taken once when f is g; every row of a batch
    equals its one-row read bit for bit. A top-degree form's d is zero."""
    if f.n != g.n:
        raise ValueError("forms live on charts of different dimension")
    if f.degree + g.degree != f.n:
        raise ValueError("kappa wedge needs degrees summing to the chart dimension")
    bilinear = _kappa_top_matrix(alg, f.n, f.degree, g.degree)
    if f is g:  # F_i F_j = F_j F_i: fold each (j, i) onto (i, j)
        bilinear = np.triu(bilinear + np.tril(bilinear, -1).T)
    rows, cols = np.nonzero(bilinear)
    coeffs = bilinear[rows, cols]

    def batch(X):
        ft = f.table(X).reshape(len(X), -1)
        gt = ft if f is g else g.table(X).reshape(len(X), -1)
        # einsum sums each row alone; a BLAS gemv would not
        return np.einsum('pk,pk,k->p', ft[:, rows], gt[:, cols], coeffs)[:, None]

    return LieForm(n=f.n, degree=f.n, value_target="scalar", value_shape=(),
                   batch=batch, analytic_d=lambda X: np.zeros((len(X), 1)),
                   fd_step=max(f.fd_step, g.fd_step),
                   box=f.box if f.box is not None else g.box)


# ---------------------------------------------------------------------------
# sampling plans and the largest gap over them
# ---------------------------------------------------------------------------

def max_gap(gaps) -> float:
    """Largest absolute entry over an iterable of gap arrays or scalars.

    This is the one reduction behind every residual: a NaN or infinite entry
    makes the result NaN, which fails every `residual <= tolerance` test, and
    gaps with no entries raise ValueError, because a check over no gaps has
    verified nothing.
    """
    worst = None
    for gap in gaps:
        if np.size(gap) == 0:
            continue
        value = float(np.abs(gap).max())
        if not math.isfinite(value):
            return math.nan
        if worst is None or value > worst:
            worst = value
    if worst is None:
        raise ValueError("no gaps to reduce: the check sampled nothing")
    return worst


def max_gap_rows(table) -> np.ndarray:
    """`max_gap` of each row of a (P, ...) table of gaps, as a (P,) array:
    a row with a NaN or infinite entry gives NaN, and a table with no rows
    raises ValueError."""
    table = np.asarray(table, dtype=float)
    if len(table) == 0:
        raise ValueError("no gaps to reduce: the check sampled nothing")
    worst = np.abs(table.reshape(len(table), -1)).max(axis=1)
    worst[~np.isfinite(worst)] = np.nan
    return worst


@dataclass
class SamplePlan:
    """Deterministic point/tangent sampling: same (mode, count, seed, box)
    always yields the same sequence."""

    mode: str = "random"
    count: int = 64
    seed: int = 42
    tangent_probes: int = 4

    def __post_init__(self):
        for name, least, kind in (("count", 1, "a positive integer"),
                                  ("seed", 0, "a non-negative integer"),
                                  ("tangent_probes", 2, "an integer of at least 2")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} must be {kind}, got {value!r}")
        if self.mode not in ("random", "grid"):
            raise ValueError("mode must be 'random' or 'grid'")

    def rng(self) -> np.random.Generator:
        return default_rng(self.seed)

    def points(self, chart: Chart) -> np.ndarray:
        lo = chart.box[:, 0].copy()
        hi = chart.box[:, 1].copy()
        margin = 1e-3 * chart.half_width()  # keep FD stencils inside the box
        lo += margin
        hi -= margin
        if self.mode == "random":
            u = self.rng().random((self.count, chart.dim))
            return lo + u * (hi - lo)
        per_axis = next(k for k in itertools.count(2) if k ** chart.dim >= self.count)
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(chart.dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return mesh.reshape(-1, chart.dim)[:self.count]

    def to_json(self):
        return {"mode": self.mode, "count": self.count, "seed": self.seed,
                "tangent_probes": self.tangent_probes}

    @staticmethod
    def from_json(blob) -> "SamplePlan":
        return SamplePlan(mode=blob.get("mode", "random"), count=blob.get("count", 64),
                          seed=blob.get("seed", 42),
                          tangent_probes=blob.get("tangent_probes", 4))
