"""Span recorder for the benchmark's traced runs.

Spans are recorded from outside the package: `Recorder.install` replaces the
public functions of every layer module (and the two `norm` methods the
verifier leans on) by timing wrappers, in every `moddiag` module namespace
that refers to them, and `uninstall` puts the originals back. Each span is a
tuple ``(id, name, start, end, parent, request, work)``; ``work`` is an exact
amount attached to a few spans: d**3 for `eig_hermitian`, characters parsed
or written for the JSON functions (the files are ASCII, so characters are
bytes). Spans stay in memory until `write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("eigen", "algebra", "modules", "operators", "diagonalize", "verify", "io", "gallery", "cli")
METHODS = {"algebra": ("AlgebraElement.norm",), "operators": ("ModuleOperator.norm",)}


def _cube_of_order(args, out):
    return len(args[0]) ** 3


def _chars_in(args, out):
    return len(args[0])


def _chars_out(args, out):
    return len(out)


WORK = {
    "eigen.eig_hermitian": _cube_of_order,
    "io.parse_problem": _chars_in,
    "io.parse_solution": _chars_in,
    "io.serialize_solution": _chars_out,
    "io.serialize_report": _chars_out,
}


class Recorder:
    """Collects spans while installed; `request` tags the spans that follow."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    def _wrap(self, name, fn):
        work = WORK.get(name)
        stack = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            amount = 0
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if work is not None:
                    amount = work(args, out)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.request, amount))

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._undo:
            raise RuntimeError("recorder is already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"moddiag.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._wrap(f"{layer}.{path}", cls.__dict__[meth]))
        # `from .x import f` binds f in each importing module, so every
        # namespace holding an original gets the wrapper
        for name, mod in list(sys.modules.items()):
            if name == "moddiag" or name.startswith("moddiag."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        self._replace(mod, attr, wrappers[val])

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path, header):
        """Write a header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per span name: [calls, total time, self time, work].

    Self time is a span's duration minus the durations of its direct
    children; calls are strictly nested in one thread, so children never
    overlap.
    """
    inside = defaultdict(float)
    for sid, name, start, end, parent, request, work in spans:
        if parent is not None:
            inside[parent] += end - start
    stats = {}
    for sid, name, start, end, parent, request, work in spans:
        entry = stats.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - inside[sid]
        entry[3] += work
    return stats


FIELDS = {"calls": (0, "count"), "time_s": (1, "s"), "self_s": (2, "s"), "d3_sum": (3, "count")}

# "<span name>.<field>", each divided by the number of traced passes
SPAN_METRICS = (
    "eigen.eig_hermitian.calls",
    "eigen.eig_hermitian.time_s",
    "eigen.eig_hermitian.d3_sum",
    "eigen.eig_normal.calls",
    "eigen.eig_normal.time_s",
    "operators.ModuleOperator.norm.calls",
    "operators.ModuleOperator.norm.time_s",
    "algebra.AlgebraElement.norm.calls",
    "algebra.AlgebraElement.norm.time_s",
    "algebra.leq.calls",
    "algebra.leq.time_s",
    "modules.inner.calls",
    "modules.inner.time_s",
    "modules.orthogonal_complement_trivial.time_s",
    "verify.moment_deviation.time_s",
    "verify.verify_eigensystem.time_s",
    "verify.verify_eigensystem.self_s",
    "diagonalize.diagonalize_selfadjoint.time_s",
    "diagonalize.diagonalize_selfadjoint.self_s",
    "diagonalize.diagonalize_normal.time_s",
    "io.parse_problem.time_s",
    "io.parse_solution.time_s",
    "io.serialize_solution.time_s",
    "io.serialize_report.time_s",
    "cli.main.time_s",
)
# gallery functions run only while inputs are generated: divided by set-ups
SETUP_METRICS = ("gallery.projection_ladder.time_s",)


def _field(stats, metric, divisor):
    span, field = metric.rsplit(".", 1)
    index, unit = FIELDS[field]
    return stats.get(span, (0, 0.0, 0.0, 0))[index] / divisor, unit


def layer_metrics(pass_spans, passes, setup_spans, setups, overhead_ratio):
    """Per-layer metrics: per pass, except the set-up ones, per set-up."""
    run = summarize(pass_spans)
    setup = summarize(setup_spans)
    out = {m: _field(run, m, passes) for m in SPAN_METRICS}
    out.update({m: _field(setup, m, setups) for m in SETUP_METRICS})
    out["io.bytes_read"] = (
        sum(run.get(s, (0, 0, 0, 0))[3] for s in ("io.parse_problem", "io.parse_solution")) / passes,
        "byte",
    )
    out["io.bytes_written"] = (
        sum(run.get(s, (0, 0, 0, 0))[3] for s in ("io.serialize_solution", "io.serialize_report")) / passes,
        "byte",
    )
    # gallery code runs only in set-up, so it has no share of a pass
    for layer in (name for name in LAYERS if name != "gallery"):
        own = sum(v[2] for k, v in run.items() if k.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = (own / passes, "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
