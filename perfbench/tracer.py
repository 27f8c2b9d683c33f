"""Spans and counters recorded from outside the library.

The library has no tracing of its own, so the traced run installs wrappers
on the names the *caller* modules see (``from .lp import solve_lp`` binds
``minkbill.billiards.solve_lp`` at import time, so that is the name to
replace), and on a few class methods. Wrappers are installed only around a
traced execution and removed right after, so untraced executions run the
library untouched.

Two kinds of wrapper:

- A span per call (solver stages, LPs, Nelder-Mead runs, covering checks):
  name, start, end, parent span and item id, kept in memory and written out
  when the run ends.
- Hot calls made up to hundreds of thousands of times per item (the covering
  ratio lambda, gauge values, polynomial field evaluations, polygon clips,
  enclosing balls) only add to a count and a time, and their time counts as
  covered inside the innermost open span.

A span's self time is its duration minus the part its child spans and
outermost hot calls cover. A wrapped name that a later refactor removes is
skipped, so its metrics read zero instead of crashing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_clock = time.perf_counter

_NAME, _START, _END, _PARENT, _ITEM, _COVERED = range(6)


class NullTracer:
    """Stands in for the tracer on untraced executions."""

    _null = nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    def __init__(self):
        self.t0 = _clock()
        self.spans = []          # [name, start, end, parent, item, covered]
        self.hot = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.counts = defaultdict(float)           # name -> total
        self.item = -1
        self._stack = []
        self._hot_depth = 0

    @contextmanager
    def span(self, name):
        rec = [name, _clock(), 0.0, self._stack[-1] if self._stack else -1,
               self.item, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[_END] = _clock()
            self._stack.pop()

    def hot_call(self, name, fn, args, kwargs):
        stat = self.hot[name]
        outer = self._hot_depth == 0
        self._hot_depth += 1
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            self._hot_depth -= 1
            stat[0] += 1
            stat[1] += dt
            if outer and self._stack:
                self.spans[self._stack[-1]][_COVERED] += dt

    def count(self, name, value):
        self.counts[name] += value

    # -- aggregation --------------------------------------------------------

    def span_totals(self):
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for rec, inner in zip(self.spans, child):
            dur = rec[_END] - rec[_START]
            tot = out[rec[_NAME]]
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - inner - rec[_COVERED]
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, covered in self.spans:
                fh.write(json.dumps([name, start - self.t0, end - self.t0,
                                     parent, item, covered]) + "\n")

    # -- wrappers -----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Install every wrapper whose target exists; restore on exit."""
        saved = []
        try:
            for module, owner, attr, make in _TARGETS:
                try:
                    holder = importlib.import_module(module)
                except ImportError:
                    continue
                if owner is not None:
                    holder = getattr(holder, owner, None)
                    # only methods the class itself defines, so restoring is exact
                    if holder is None or attr not in vars(holder):
                        continue
                orig = getattr(holder, attr, None)
                if orig is None:
                    continue
                wrapped = make(self, orig)
                if wrapped is None:
                    continue
                saved.append((holder, attr, orig))
                setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, orig in reversed(saved):
                setattr(holder, attr, orig)


def _spanned(name, after=None, before=None):
    def make(tr, fn):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tr, args, kwargs)
            with tr.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(tr, out)
            return out
        return wrapper
    return make


def _hot(name):
    def make(tr, fn):
        def wrapper(*args, **kwargs):
            return tr.hot_call(name, fn, args, kwargs)
        return wrapper
    return make


def _timed_lambda(tr, base):
    """Subclass covering the table build and every evaluation."""
    if not isinstance(base, type):
        return None

    class TimedHomothetLambda(base):
        def __init__(self, *args, **kwargs):
            with tr.span("geometry.lambda_build"):
                super().__init__(*args, **kwargs)
            table = getattr(self, "_W", None)
            tr.count("geometry.lambda_rows", 0 if table is None else len(table))

        def __call__(self, *args, **kwargs):
            return tr.hot_call("geometry.lambda", super().__call__, args, kwargs)

    return TimedHomothetLambda


def _after_minimize(tr, res):
    tr.count("billiards.nm_nfev", getattr(res, "nfev", 0))


def _after_lp(tr, res):
    ok = getattr(res, "ok", getattr(res, "success", True))
    if not ok:
        tr.count("lp.not_optimal", 1)


def _before_homothet(tr, args, kwargs):
    points = args[1] if len(args) > 1 else kwargs.get("points", ())
    tr.count("geometry.homothet_points", len(points))


_lp = _spanned("lp.solve", after=_after_lp)
_homothet = _spanned("geometry.homothet", before=_before_homothet)

# (module, class or None, attribute, wrapper factory)
_TARGETS = (
    ("minkbill.billiards", None, "HomothetLambda", _timed_lambda),
    ("minkbill.billiards", None, "minimize",
     _spanned("billiards.nm", after=_after_minimize)),
    ("minkbill.billiards", None, "solve_lp", _lp),
    ("minkbill.geometry", None, "solve_lp", _lp),
    ("minkbill.lp", None, "solve_lp", _lp),   # inside max_margin_point
    ("minkbill.billiards", None, "min_homothet_cover", _homothet),
    ("minkbill.oscillation", None, "min_homothet_cover", _homothet),
    ("minkbill.geometry", None, "smallest_enclosing_ball", _hot("geometry.seb")),
    ("minkbill.geometry", "Gauge", "value", _hot("geometry.gauge")),
    ("minkbill.geometry", "Gauge", "values", _hot("geometry.gauge")),
    ("minkbill.geometry", "Gauge", "dual", _hot("geometry.gauge")),
    ("minkbill.planks", None, "covering_check", _spanned("planks.check")),
    ("minkbill.planks", None, "max_margin_point", _spanned("planks.margin")),
    ("minkbill.planks", None, "clip_halfplane", _hot("planks.clip")),
    ("minkbill.oscillation", None, "oscillation", _spanned("oscillation.osc")),
    ("minkbill.oscillation", None, "min_dual_grad", _spanned("oscillation.mindual")),
    ("minkbill.oscillation", "PolynomialField", "eval", _hot("oscillation.field")),
    ("minkbill.oscillation", "PolynomialField", "grad", _hot("oscillation.field")),
    ("minkbill.oscillation", "PolynomialField", "hess", _hot("oscillation.field")),
)


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json that the spans give."""
    spans = tr.span_totals()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def hot(name):
        return tuple(tr.hot[name]) if name in tr.hot else (0, 0.0)

    lp_calls = calls("lp.solve")
    return {
        "billiards.solve_calls": calls("billiards.solve"),
        "billiards.solve_s": secs("billiards.solve"),
        "billiards.nm_runs": calls("billiards.nm"),
        "billiards.nm_nfev": int(tr.counts["billiards.nm_nfev"]),
        "billiards.nm_self_s": spans.get("billiards.nm", (0, 0.0, 0.0))[2],
        "billiards.reflect_calls": calls("billiards.reflect"),
        "billiards.reflect_s": secs("billiards.reflect"),
        "geometry.lambda_builds": calls("geometry.lambda_build"),
        "geometry.lambda_build_s": secs("geometry.lambda_build"),
        "geometry.lambda_rows": int(tr.counts["geometry.lambda_rows"]),
        "geometry.lambda_calls": hot("geometry.lambda")[0],
        "geometry.lambda_s": hot("geometry.lambda")[1],
        "geometry.homothet_calls": calls("geometry.homothet"),
        "geometry.homothet_points": int(tr.counts["geometry.homothet_points"]),
        "geometry.homothet_s": secs("geometry.homothet"),
        "geometry.gauge_calls": hot("geometry.gauge")[0],
        "geometry.gauge_s": hot("geometry.gauge")[1],
        "geometry.seb_calls": hot("geometry.seb")[0],
        "geometry.seb_s": hot("geometry.seb")[1],
        "lp.calls": lp_calls,
        "lp.s": secs("lp.solve"),
        "lp.us_per_call": 1e6 * secs("lp.solve") / lp_calls if lp_calls else 0.0,
        "lp.not_optimal": int(tr.counts["lp.not_optimal"]),
        "planks.check_calls": calls("planks.check"),
        "planks.check_s": secs("planks.check"),
        "planks.clip_calls": hot("planks.clip")[0],
        "planks.margin_calls": calls("planks.margin"),
        "planks.parallel_calls": calls("planks.parallel"),
        "planks.parallel_s": secs("planks.parallel"),
        "oscillation.checks": calls("oscillation.check"),
        "oscillation.osc_s": secs("oscillation.osc"),
        "oscillation.mindual_s": secs("oscillation.mindual"),
        "oscillation.field_evals": hot("oscillation.field")[0],
        "oscillation.field_s": hot("oscillation.field")[1],
        "oscillation.graph_calls": calls("oscillation.graph"),
        "oscillation.graph_s": secs("oscillation.graph"),
        "fractional.mahler_calls": calls("fractional.mahler"),
        "fractional.mahler_s": secs("fractional.mahler"),
        "ballcut.additivity_calls": calls("ballcut.additivity"),
        "ballcut.additivity_s": secs("ballcut.additivity"),
    }
