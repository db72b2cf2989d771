"""Outside-in tracing of cym's layers for the benchmark's traced pass.

The tracer wraps public functions of each cym module from outside the
library: it replaces the function object in every ``cym.*`` namespace that
holds it (so a name bound by ``from .algebra import x`` is wrapped too, and a
function-local import picks up the wrapper from ``cym.algebra``), patches
methods on their classes, and restores every original on ``restore()``.

Two kinds of wrapper exist:

* a *span* records name, start, end and the enclosing span, and adds its
  duration to the enclosing span's child time, so that a layer's self time is
  its duration minus the part covered by child spans;
* a *counter* only counts calls.  Its cost lands in the enclosing span's self
  time.  Counters sit on functions called millions of times (component
  evaluation), where a span per call would dominate the run.

Spans are kept in memory and written out once, when the pass ends.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (metric layer, module, attribute) of functions that get a span.
SPAN_FUNCTIONS = (
    ("algebra.expm", "cym.algebra", "expm"),
    ("algebra.ad_matrix_of_group", "cym.algebra", "ad_matrix_of_group"),
    ("algebra.variety_residual", "cym.algebra", "variety_residual"),
    ("forms.stencil_partial", "cym.forms", "_partial"),
    ("connection.check_compatibility", "cym.connection", "check_compatibility"),
    ("principal.total_field_strength", "cym.principal", "total_field_strength"),
    ("principal.gauge_transform_total", "cym.principal", "gauge_transform_total"),
    ("gauge.change_of_gauge", "cym.gauge", "change_of_gauge"),
    ("gauge.instanton_charge", "cym.gauge", "instanton_charge"),
    ("harness.load_scenario", "cym.harness", "load_scenario"),
    ("cli.main", "cym.cli", "main"),
)

# (metric layer, module, attribute) of functions that only get a call count.
COUNTED_FUNCTIONS = (
    ("algebra.expand_in_rep", "cym.algebra", "expand_in_rep"),
    ("lgb.dexp_body", "cym.lgb", "dexp_body"),
    ("gauge.lagrangian_density", "cym.gauge", "lagrangian_density"),
)

# (metric layer, module, class, method) of methods that get a span.
SPAN_METHODS = (
    ("lgb.body_derivative", "cym.lgb", "GSection", "body_derivative"),
    ("harness.report_write", "cym.harness", "VerificationReport", "to_json"),
    ("harness.report_write", "cym.harness", "VerificationReport", "write_csv"),
)

# (metric layer, module, class, method) of methods that only get a count.
COUNTED_METHODS = (
    ("forms.poly_evaluate", "cym.forms", "PolyData", "evaluate"),
)

_COUNTED_MARK = "_perfbench_counted"


class Tracer:
    """Spans and counters for one traced pass; install() then restore()."""

    def __init__(self):
        self.spans = []            # (span id, parent id, layer, start, end)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.order_loss_events = 0
        self._stack = []           # [span id, child seconds] per open span
        self._next_id = 1
        self._undo = []            # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def span(self, layer, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[layer] += 1
                self.total_s[layer] += duration
                self.self_s[layer] += duration - frame[1]
                self.spans.append((sid, parent, layer, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, layer, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        setattr(wrapper, _COUNTED_MARK, True)
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Bind wrapper wherever a cym module namespace holds original."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cym" or name.startswith("cym.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced function, method and suite.  Import cym first."""
        for layer, module, attr in SPAN_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._replace_everywhere(original, self.span(layer, original))
        for layer, module, attr in COUNTED_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._replace_everywhere(original, self.counter(layer, original))
        for layer, module, cls, attr in SPAN_METHODS:
            owner = getattr(sys.modules[module], cls)
            self._patch(owner, attr, self.span(layer, owner.__dict__[attr]))
        for layer, module, cls, attr in COUNTED_METHODS:
            owner = getattr(sys.modules[module], cls)
            self._patch(owner, attr, self.counter(layer, owner.__dict__[attr]))
        self._wrap_components()
        self._wrap_suites()

    def _wrap_components(self):
        """LieForm.components is a per-instance callable, so count it by
        wrapping it as each form is constructed."""
        forms = sys.modules["cym.forms"]
        lie_form = forms.LieForm
        original_init = lie_form.__dict__["__init__"]
        counter = self.counter

        def init(form, *args, **kwargs):
            original_init(form, *args, **kwargs)
            if not getattr(form.components, _COUNTED_MARK, False):
                form.components = counter("forms.components", form.components)

        self._patch(lie_form, "__init__", init)

    def _wrap_suites(self):
        """Give every registered suite a span and drain the stencils'
        order-loss events after it, once per suite."""
        harness = sys.modules["cym.harness"]
        drain = sys.modules["cym.forms"].drain_order_loss_events
        suites = harness.SUITES
        self._undo.append((suites, None, dict(suites)))

        def drained(fn):
            def run(bundle, env):
                try:
                    return fn(bundle, env)
                finally:
                    self.order_loss_events += len(drain())
            return run

        for name, (anchor, applicable, fn) in list(suites.items()):
            suites[name] = (anchor, applicable,
                            self.span(f"harness.suite.{name}", drained(fn)))

    def restore(self):
        """Put back every original, last patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """Write the in-memory spans as JSON lines, in order of completion."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": layer, "start": start,
                                     "end": end}) + "\n")
