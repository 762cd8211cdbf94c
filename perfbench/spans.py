"""Spans around the public functions of each patternlab layer, taken from outside.

The benchmark never edits the package.  It replaces every module attribute
that holds a traced public function with a wrapper that records a span
(name, start, end, parent, job id) and, for some functions, counters derived
from the arguments and the result.  Names are imported by value across the
package (``from .lagrangian import maximize`` in ``algebra``, ``blowups`` and
``cli``), so the wrapper goes onto every module that holds the function,
``patternlab`` itself included; otherwise nested calls escape the trace.

Private functions are not wrapped.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

MODULES = ("patternlab", "patternlab.patterns", "patternlab.lagrangian",
           "patternlab.algebra", "patternlab.blowups", "patternlab.cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a job's top-level span
    job: int


class Tracer:
    """Spans and counters of one traced pass, kept in memory.

    Its wrappers are installed only for that pass (:func:`install`,
    :func:`uninstall`), so untraced passes run the package unchanged.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """A wrapper that records a span named ``name`` around ``fn``.

        ``count(tracer, args, kwargs, result, parent_name)`` adds counters
        after a call that returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(name, time.perf_counter(), math.nan, parent, self.job)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                parent_name = self.spans[parent].name if parent >= 0 else ""
                count(self, args, kwargs, result, parent_name)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never counts one instant twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_maximize(tr, args, kwargs, rep, parent_name):
    P = _arg(args, kwargs, 0, "P")
    tr.counters["lagrangian.maximize.starts"] += rep.restarts_used
    # Computed size of one dense polynomial pass over every start row.
    tr.counters["lagrangian.maximize.cells"] += rep.restarts_used * P.edge_count * P.m
    tr.counters["lagrangian.maximize.unconverged"] += not rep.converged


def _count_grid(tr, args, kwargs, _result, parent_name):
    P = _arg(args, kwargs, 0, "P")
    d = int(_arg(args, kwargs, 1, "d"))
    points = math.comb(d + P.m - 1, P.m - 1)
    tr.counters["lagrangian.grid_oracle.points"] += points
    tr.counters["lagrangian.grid_oracle.terms"] += points * P.edge_count


def _edges_out(metric: str):
    def count(tr, args, kwargs, result, parent_name):
        obj = result[0] if isinstance(result, tuple) else result
        tr.counters[metric] += obj.edge_count
    return count


def _count_io(tr, args, kwargs, result, parent_name):
    # A save wraps a *_to_json call; count the bytes once, at the outer span.
    if parent_name == "patterns.io":
        return
    if isinstance(result, str):
        size = len(result.encode())
    else:
        path = _arg(args, kwargs, 1 if result is None else 0, "path")
        size = os.path.getsize(path)
    tr.counters["patterns.io.bytes"] += size


# (span name, module, function, counter or None).  Every module attribute that
# holds one of these functions is wrapped.
TRACED = (
    ("lagrangian.maximize", "patternlab.lagrangian", "maximize", _count_maximize),
    ("lagrangian.grid_oracle", "patternlab.lagrangian", "grid_oracle", _count_grid),
    ("lagrangian.lagrangian_of_hypergraph", "patternlab.lagrangian",
     "lagrangian_of_hypergraph", None),
    ("lagrangian.eval", "patternlab.lagrangian", "eval_lagrange", None),
    ("lagrangian.eval", "patternlab.lagrangian", "eval_lagrange_unnormalized", None),
    ("lagrangian.eval", "patternlab.lagrangian", "grad_lagrange", None),
    ("algebra.union_on_set", "patternlab.algebra", "union_on_set",
     _edges_out("algebra.union_on_set.edges_out")),
    ("algebra.eval_decomposition", "patternlab.algebra", "eval_decomposition", None),
    ("blowups.blowup", "patternlab.blowups", "blowup", _edges_out("blowups.blowup.edges_out")),
    ("blowups.blowup_edge_count", "patternlab.blowups", "blowup_edge_count", None),
    ("blowups.density", "patternlab.blowups", "density", None),
    *(("patterns.build", "patternlab.patterns", fn, _edges_out("patterns.build.edges_out"))
      for fn in ("random_pattern", "induced_subpattern", "remove_index", "relabel_pattern",
                 "pattern_of_hypergraph", "complete_pattern", "offdiagonal_pattern")),
    *(("patterns.io", "patternlab.patterns", fn, _count_io)
      for fn in ("load_pattern", "load_hypergraph", "load_any", "save_pattern",
                 "save_hypergraph", "pattern_to_json", "hypergraph_to_json")),
    ("cli.main", "patternlab.cli", "main", None),
)

# Every counter the functions above add to; a pass that never fires one reports 0.
COUNTERS = (
    "lagrangian.maximize.starts", "lagrangian.maximize.cells",
    "lagrangian.maximize.unconverged", "lagrangian.grid_oracle.points",
    "lagrangian.grid_oracle.terms", "algebra.union_on_set.edges_out",
    "blowups.blowup.edges_out", "patterns.build.edges_out",
    "patterns.io.bytes",
)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function on every module that holds it.

    Returns (module, attribute, original) triples for :func:`uninstall`.
    """
    modules = [sys.modules[name] for name in MODULES]
    patched = []
    for span_name, home, fn_name, count in TRACED:
        original = getattr(sys.modules[home], fn_name)
        wrapper = tracer.wrap(span_name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    return patched


def uninstall(patched) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass: calls, self time, percentiles
    and the counters."""
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        durations.setdefault(span.name, []).append(span.end - span.start)
    out: dict[str, float] = {}
    for name, _home, _fn, _count in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    ms = [1000.0 * d for d in durations.get("lagrangian.maximize", ())]
    out["lagrangian.maximize.p50_ms"] = percentile(ms, 50)
    out["lagrangian.maximize.p90_ms"] = percentile(ms, 90)
    out.update(dict.fromkeys(COUNTERS, 0))
    out.update(tracer.counters)
    return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (linear interpolation); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
