"""Per-layer tracing for the benchmark's traced passes.

The wrappers are installed from here, never by editing the library: each
wrapped function is replaced in every padicstacks namespace that binds it
(for example `polyscheme.enumerate_points_lifted` is also bound in
`measures`, and `witt.witt_mul_sym` in `greenberg`), and every binding is
put back by `Tracer.remove`.

Two kinds of wrapper:

* spans, around calls at layer boundaries: name, start, end, parent span.
  A generator (brute `enumerate_points`) is one span whose busy time is the
  sum of its resumptions.  Self time is busy time minus the time of child
  spans and timed leaf calls made inside it.
* leaf counters, around the hot per-element calls (`RingElement` and
  `FFElement` operations, digit reads, compiled evaluators): only a count,
  and for ring operations a time.  A leaf call made inside another timed
  leaf call is not counted again, so `x - y` is one ring operation.

Spans are kept in memory and written out by `write_spans` when the pass
ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from padicstacks import definable, greenberg, measures, polyscheme, rings, stacks, witt

_clock = time.perf_counter

# (owner, attribute, span name); owners are modules or classes
SPANS = (
    (polyscheme, "enumerate_points", "polyscheme.brute"),
    (polyscheme, "enumerate_points_lifted", "polyscheme.lift"),
    (polyscheme.LiftAnalyzer, "status", "polyscheme.cert"),
    (witt.StructurePolys, "__init__", "witt.structure"),
    (witt, "witt_add_sym", "witt.sym"),
    (witt, "witt_mul_sym", "witt.sym"),
    (greenberg, "greenberg_transform", "greenberg.transform"),
    (greenberg.GreenbergScheme, "enumerate_points", "greenberg.enum"),
    (measures, "series", "measures"),
    (measures, "padic_measure", "measures"),
    (measures, "q_coefficient_check", "measures"),
    (measures, "tau_image_profile", "measures"),
    (measures, "rational_fit", "measures.fit"),
    (definable, "eval_formula", "definable"),
    (definable, "measure_formula", "definable"),
    (definable, "specialize_primes", "definable"),
    (stacks, "stacky_count_special", "stacks"),
    (stacks, "stacky_count_finite", "stacks"),
    (stacks, "fiber_decomposition_check", "stacks"),
    (stacks, "weighted_subset_count", "stacks"),
)

_RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__neg__", "__pow__")

# (class, attribute, counter name, timed)
LEAVES = tuple(
    [(rings.RingElement, a, "rings.elem_ops", True) for a in _RING_OPS]
    + [(rings.RingElement, a, "rings.digit_reads", True)
       for a in ("ord", "ac", "residue", "is_zero", "__eq__", "__hash__")]
    + [(rings.FFElement, a, "rings.ff_ops", False)
       for a in _RING_OPS + ("inv", "frobenius")]
    + [(polyscheme.MultiPoly, "eval_elements", "polyscheme.elem_evals", False)]
)

class Span:
    __slots__ = ("name", "start", "end", "parent", "busy", "child", "seg",
                 "ev0", "ev1", "items", "size", "unknown")

    def __init__(self, name, start, parent, ev0):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.busy = 0.0
        self.child = 0.0
        self.seg = start
        self.ev0 = ev0
        self.ev1 = ev0
        self.items = 0
        self.size = None
        self.unknown = False

    @property
    def self_s(self):
        return self.busy - self.child


class Tracer:
    """Spans and counters for one pass; `install` then `remove`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.evals = [0]
        self.counts = dict.fromkeys(
            ("rings.elem_ops", "rings.digit_reads", "rings.ff_ops",
             "polyscheme.elem_evals", "polyscheme.compile_calls"), 0)
        self.times = dict.fromkeys(
            ("rings.elem_ops", "rings.digit_reads", "polyscheme.compile_calls"), 0.0)
        self._active = set()
        self._timed_depth = 0
        self._saved = []

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name):
        now = _clock()
        span = Span(name, now, self.stack[-1] if self.stack else None,
                    self.evals[0])
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _resume(self, span):
        span.seg = _clock()
        self.stack.append(span)

    def _suspend(self, span):
        now = _clock()
        elapsed = now - span.seg
        span.busy += elapsed
        span.end = now
        span.ev1 = self.evals[0]
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += elapsed

    def _timed_leaf(self, counter, f, args, kwargs):
        """Call f as one counted leaf call; its time leaves the enclosing
        span's self time unless another timed leaf call already covers it."""
        self._active.add(counter)
        self._timed_depth += 1
        start = _clock()
        try:
            return f(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            self._timed_depth -= 1
            self._active.discard(counter)
            self.counts[counter] += 1
            self.times[counter] += elapsed
            if self._timed_depth == 0 and self.stack:
                self.stack[-1].child += elapsed

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, f):
        if inspect.isgeneratorfunction(f):
            @functools.wraps(f)
            def gen_wrapped(*args, **kwargs):
                return self._traced_generator(name, f(*args, **kwargs))
            return gen_wrapped

        @functools.wraps(f)
        def wrapped(*args, **kwargs):
            span = self._open(name)
            try:
                result = f(*args, **kwargs)
            finally:
                self._suspend(span)
            if isinstance(result, list):
                span.size = len(result)
            elif result is polyscheme.LiftStatus.UNKNOWN:
                span.unknown = True
            return result
        return wrapped

    def _traced_generator(self, name, gen):
        span = None
        while True:
            if span is None:
                span = self._open(name)
            else:
                self._resume(span)
            try:
                item = next(gen)
            except StopIteration:
                self._suspend(span)
                return
            except BaseException:
                self._suspend(span)
                raise
            self._suspend(span)
            span.items += 1
            yield item

    def _leaf_wrapper(self, counter, timed, f):
        active = self._active
        counts = self.counts

        @functools.wraps(f)
        def wrapped(*args, **kwargs):
            if counter in active:
                return f(*args, **kwargs)
            if timed:
                return self._timed_leaf(counter, f, args, kwargs)
            active.add(counter)
            try:
                return f(*args, **kwargs)
            finally:
                active.discard(counter)
                counts[counter] += 1
        return wrapped

    def _compile_wrapper(self, f):
        cell = self.evals

        @functools.wraps(f)
        def wrapped(*args, **kwargs):
            ev = self._timed_leaf("polyscheme.compile_calls", f, args, kwargs)

            def counted(point, _ev=ev):
                cell[0] += 1
                return _ev(point)
            return counted
        return wrapped

    # -- install / remove ------------------------------------------------------

    def _bind(self, owner, attr, replacement):
        """Replace owner.attr and every other binding of the same object."""
        original = owner.__dict__[attr]
        if inspect.isclass(owner):
            targets = [(owner, name) for name, value in vars(owner).items()
                       if value is original]
        else:
            targets = [(module, name)
                       for module in _library_modules()
                       for name, value in vars(module).items()
                       if value is original]
        for target, name in targets:
            self._saved.append((target, name, original))
            setattr(target, name, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            self._bind(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for owner, attr, counter, timed in LEAVES:
            if any(t is owner and a == attr for t, a, _ in self._saved):
                continue  # an alias such as __radd__ = __add__, already bound
            self._bind(owner, attr,
                       self._leaf_wrapper(counter, timed, owner.__dict__[attr]))
        self._bind(polyscheme.MultiPoly, "compile_int",
                   self._compile_wrapper(polyscheme.MultiPoly.compile_int))

    def remove(self):
        for target, name, original in reversed(self._saved):
            setattr(target, name, original)
        self._saved = []

    # -- results -----------------------------------------------------------------

    def _outermost(self, name):
        """Spans called `name` with no ancestor of the same name."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            up = span.parent
            while up is not None and up.name != name:
                up = up.parent
            if up is None:
                out.append(span)
        return out

    def metrics(self):
        brute = self._outermost("polyscheme.brute")
        lift = self._outermost("polyscheme.lift")
        cert = self._outermost("polyscheme.cert")
        structure = self._outermost("witt.structure")
        sym = self._outermost("witt.sym")
        enum = self._outermost("greenberg.enum")
        lift_points = sum(s.size or 0 for s in lift)
        lift_evals = sum(s.ev1 - s.ev0 for s in lift)
        unknown = sum(1 for s in cert if s.unknown)

        def self_time(name):
            return sum(s.self_s for s in self.spans if s.name == name)

        def parent_is_definable(span):
            return span.parent is not None and span.parent.name == "definable"

        out = {
            "rings.elem_ops": self.counts["rings.elem_ops"],
            "rings.elem_op_s": self.times["rings.elem_ops"],
            "rings.digit_reads": self.counts["rings.digit_reads"],
            "rings.digit_read_s": self.times["rings.digit_reads"],
            "rings.ff_ops": self.counts["rings.ff_ops"],
            "polyscheme.compile_calls": self.counts["polyscheme.compile_calls"],
            "polyscheme.compile_s": self.times["polyscheme.compile_calls"],
            "polyscheme.poly_evals": self.evals[0],
            "polyscheme.elem_evals": self.counts["polyscheme.elem_evals"],
            "polyscheme.brute_tuples": sum(s.items for s in brute),
            "polyscheme.brute_s": sum(s.busy for s in brute),
            "polyscheme.lift_calls": len(lift),
            "polyscheme.lift_s": sum(s.busy for s in lift),
            "polyscheme.lift_points": lift_points,
            "polyscheme.lift_evals": lift_evals,
            "polyscheme.lift_yield": lift_points / lift_evals if lift_evals else 0.0,
            "polyscheme.cert_calls": len(cert),
            "polyscheme.cert_s": sum(s.busy for s in cert),
            "polyscheme.cert_evals": sum(s.ev1 - s.ev0 for s in cert),
            "polyscheme.cert_unknown": unknown,
            "polyscheme.cert_decided": (len(cert) - unknown) / len(cert) if cert else 0.0,
            "witt.structure_builds": len(structure),
            "witt.structure_s": sum(s.busy for s in structure),
            "witt.sym_ops": len(sym),
            "witt.sym_s": sum(s.busy for s in sym),
            "greenberg.transform_s": sum(
                s.busy for s in self._outermost("greenberg.transform")),
            "greenberg.enum_s": sum(s.busy for s in enum),
            "greenberg.enum_evals": sum(s.ev1 - s.ev0 for s in enum),
            "greenberg.points": sum(s.size or 0 for s in enum),
            "measures.self_s": self_time("measures"),
            "measures.fit_s": sum(s.busy for s in self._outermost("measures.fit")),
            "definable.self_s": self_time("definable"),
            "definable.points": sum(s.items for s in brute if parent_is_definable(s)),
            "definable.upgrade_certs": sum(1 for s in cert if parent_is_definable(s)),
            "stacks.self_s": self_time("stacks"),
        }
        return out

    def write_spans(self, path):
        """One JSON object per span: name, start, end, parent index, busy and
        self seconds (times relative to the first span)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "busy": s.busy,
                    "self": s.self_s,
                }) + "\n")


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "padicstacks" or name.startswith("padicstacks."))]


