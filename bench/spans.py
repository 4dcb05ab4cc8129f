"""Traced runs: spans around the public functions of each `lemniscates`
layer, and the per-layer metrics computed from them.

The wrappers are installed in the namespace of every `lemniscates` module
that holds the function, so calls made through an imported name (`trace_level`
inside `counterexample`, `winding_number` inside `conformal`) are seen too.
Spans are kept in memory; only calls made inside an op are recorded, so the
per-op checks do not show up in the trace.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from lemniscates.errors import TraceError

# (module, function) pairs wrapped in a traced run; a module's layer name is
# its name without the leading underscore
TRACED = [
    ("polynomials", "poly_roots"),
    ("curves", "winding_numbers"),
    ("curves", "winding_number"),
    ("curves", "is_jordan"),
    ("levelcurves", "trace_level"),
    ("levelcurves", "trace_gradient"),
    ("levelcurves", "solve_target"),
    ("counterexample", "build_boundary"),
    ("counterexample", "reproduce_table"),
    ("counterexample", "noninjectivity_degree"),
    ("conformal", "interior_map"),
    ("conformal", "exterior_map"),
    ("_fourier", "trig_eval"),
    ("_fourier", "trig_eval_deriv"),
    ("_fourier", "trig_resample"),
    ("fingerprint", "identity_report"),
    ("fingerprint", "circle_map_of_blaschke"),
    ("fingerprint", "is_proper"),
]

def _arc_steps(a, out):
    return {"steps": len(out) - 1}


def _evals(a, out):
    return {"evals": np.size(a["t"]) * np.size(a["coeffs"])}


def _nodes(a, out):
    return {"nodes": out.nodes}


# work counts read off each call's arguments and result
COUNTERS = {
    "poly_roots": lambda a, out: {"roots": sum(m for _, m in out)},
    "winding_numbers": lambda a, out: {"pairs": np.size(a["ws"]) * np.size(a["points"])},
    "is_jordan": lambda a, out: {"segments": a["c"].points.size},
    "trace_level": _arc_steps,
    "trace_gradient": _arc_steps,
    "build_boundary": lambda a, out: {"steps": sum(len(arc) - 1 for arc in out.arcs)},
    "noninjectivity_degree": lambda a, out: {"targets": out.n_evaluated, "skipped": out.n_skipped},
    "interior_map": _nodes,
    "exterior_map": _nodes,
    "trig_eval": _evals,
    "trig_eval_deriv": _evals,
}


@dataclass(slots=True)
class Span:
    name: str         # "<layer>.<function>", or "bench.op" for the op itself
    op: int           # id of the op the span belongs to
    parent: int       # index of the enclosing span, -1 for an op span
    start: float = 0.0
    end: float = 0.0
    error: type | None = None
    counts: dict | None = None


class Recorder:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name, op):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, op, parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    @contextmanager
    def op(self, op_id: int):
        span = self._open("bench.op", op_id)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        short = name.split(".")[-1]
        counter = COUNTERS.get(short)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside an op: not part of the measured work
                return fn(*args, **kwargs)
            span = self._open(name, self.spans[self._stack[0]].op)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err)
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every TRACED function wherever a lemniscates module holds it,
        and put the originals back on exit."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "lemniscates" or n.startswith("lemniscates."))
        ]
        patched = []
        try:
            for modname, fname in TRACED:
                orig = getattr(sys.modules[f"lemniscates.{modname}"], fname)
                wrapper = self._wrap(f"{modname.lstrip('_')}.{fname}", orig)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, orig))
            yield
        finally:
            for m, attr, orig in reversed(patched):
                setattr(m, attr, orig)


# -- per-layer metrics -----------------------------------------------------------


@dataclass(frozen=True)
class LayerRow:
    """A group of per-layer metrics and where they should move the end-to-end
    metrics; `share` names the metrics whose sum is the row's share of op time."""

    metrics: tuple[str, ...]
    moves: str
    heavy: tuple[str, ...]
    idle: tuple[str, ...]
    share: tuple[str, ...]


ALL_WORKLOADS = ("d4_table", "d4_noninj", "fingerprint")


def _others(*names):
    return tuple(w for w in ALL_WORKLOADS if w not in names)


ROWS = [
    LayerRow(
        ("levelcurves.trace_level.calls", "levelcurves.trace_level.s",
         "levelcurves.trace_gradient.calls", "levelcurves.trace_gradient.s",
         "levelcurves.solve_target.calls", "levelcurves.solve_target.s",
         "levelcurves.steps", "levelcurves.steps_per_s", "levelcurves.trace_errors",
         "levelcurves.self_s"),
        "ops_per_s, op_p50_s", ("d4_table",), _others("d4_table"), ("levelcurves.self_s",),
    ),
    LayerRow(
        ("counterexample.build_boundary.calls", "counterexample.build_boundary.s",
         "counterexample.candidates", "counterexample.useful_step_ratio",
         "counterexample.reproduce_table.s"),
        "ops_per_s", ("d4_table",), _others("d4_table"), ("counterexample.build_boundary.s",),
    ),
    LayerRow(
        ("counterexample.noninjectivity_degree.calls", "counterexample.noninjectivity_degree.s",
         "counterexample.targets", "counterexample.targets_skipped",
         "counterexample.targets_per_s", "counterexample.self_s"),
        "ops_per_s, op_p50_s", ("d4_noninj",), _others("d4_noninj"),
        ("counterexample.noninjectivity_degree.s",),
    ),
    LayerRow(
        ("curves.winding_numbers.calls", "curves.winding_numbers.s",
         "curves.winding_numbers.pairs", "curves.winding_numbers.pairs_per_s"),
        "ops_per_s, op_p50_s", ("d4_noninj",), _others("d4_noninj"),
        ("curves.winding_numbers.s",),
    ),
    LayerRow(
        ("curves.winding_number.calls", "curves.winding_number.s"),
        "ops_per_s (small)", ("fingerprint",), ("d4_noninj",), ("curves.winding_number.s",),
    ),
    LayerRow(
        ("curves.is_jordan.calls", "curves.is_jordan.s", "curves.is_jordan.segments",
         "curves.self_s"),
        "ops_per_s", ("d4_table", "fingerprint"), ("d4_noninj",), ("curves.is_jordan.s",),
    ),
    LayerRow(
        ("conformal.interior_map.calls", "conformal.interior_map.s",
         "conformal.exterior_map.calls", "conformal.exterior_map.s",
         "conformal.nodes", "conformal.self_s"),
        "ops_per_s, peak_rss_mb, accuracy_digits", ("fingerprint",), _others("fingerprint"),
        ("conformal.interior_map.s", "conformal.exterior_map.s"),
    ),
    LayerRow(
        ("fourier.trig_eval.calls", "fourier.trig_eval.s", "fourier.trig_eval.evals",
         "fourier.trig_eval_deriv.calls", "fourier.trig_eval_deriv.s",
         "fourier.trig_eval_deriv.evals", "fourier.trig_resample.calls",
         "fourier.trig_resample.s", "fourier.self_s"),
        "ops_per_s", ("fingerprint",), _others("fingerprint"), ("fourier.self_s",),
    ),
    LayerRow(
        ("fingerprint.identity_report.calls", "fingerprint.identity_report.s",
         "fingerprint.identity_report.self_s", "fingerprint.circle_map_of_blaschke.s",
         "fingerprint.is_proper.calls", "fingerprint.is_proper.s", "fingerprint.self_s"),
        "ops_per_s, fail_ratio", ("fingerprint",), _others("fingerprint"),
        ("fingerprint.identity_report.s",),
    ),
    LayerRow(
        ("polynomials.poly_roots.calls", "polynomials.poly_roots.s", "polynomials.self_s"),
        "none: a control that should stay near 0", (), ALL_WORKLOADS,
        ("polynomials.poly_roots.s",),
    ),
    LayerRow(
        ("bench.op_s", "bench.self_s", "bench.ops_per_s"),
        "tracing overhead: bench.ops_per_s against the untraced ops_per_s", (), (), (),
    ),
]


# units and directions that the name's suffix does not give; a ratio is not
# divided by the op count, and more targets evaluated means fewer skipped
UNITS = {
    "counterexample.useful_step_ratio": ("1", "higher"),
    "counterexample.targets": ("count/op", "higher"),
}


def _unit(name: str) -> tuple[str, str]:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s", "higher"
    if name.endswith(".s") or name.endswith("_s"):
        return "s/op", "lower"
    return "count/op", "lower"


METRICS = [(name, *_unit(name)) for row in ROWS for name in row.metrics]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every METRICS entry computed from the spans of a traced run. Times and
    counts are per op; `.s` is inclusive time, `self_s` excludes the time
    covered by child spans, for one function or for a whole layer."""
    n_ops = sum(1 for s in spans if s.name == "bench.op")
    dur = [s.end - s.start for s in spans]
    self_t = list(dur)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            self_t[s.parent] -= dur[i]

    def recursive(i):
        name, i = spans[i].name, spans[i].parent
        while i >= 0:
            if spans[i].name == name:
                return True
            i = spans[i].parent
        return False

    calls, incl, fn_self, layer_self, counts = {}, {}, {}, {}, {}
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        if not recursive(i):  # a recursive call is inside the outer one's time
            incl[s.name] = incl.get(s.name, 0.0) + dur[i]
        fn_self[s.name] = fn_self.get(s.name, 0.0) + self_t[i]
        layer = s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_t[i]
        for k, v in (s.counts or {}).items():
            counts[(s.name, k)] = counts.get((s.name, k), 0) + v

    def count(name, key):
        return counts.get((name, key), 0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    tracing = ("levelcurves.trace_level", "levelcurves.trace_gradient")
    steps = sum(count(name, "steps") for name in tracing)
    targets = count("counterexample.noninjectivity_degree", "targets")
    skipped = count("counterexample.noninjectivity_degree", "skipped")
    pairs = count("curves.winding_numbers", "pairs")
    totals = {
        "levelcurves.steps": steps,
        "levelcurves.steps_per_s": rate(steps, sum(incl.get(name, 0.0) for name in tracing)),
        "levelcurves.trace_errors": sum(
            1 for s in spans
            if s.name in tracing and s.error is not None and issubclass(s.error, TraceError)
        ),
        "counterexample.candidates": sum(
            s.counts["roots"]
            for s in spans
            if s.name == "polynomials.poly_roots"
            and s.parent >= 0 and spans[s.parent].name == "counterexample.build_boundary"
        ),
        "counterexample.useful_step_ratio": rate(count("counterexample.build_boundary", "steps"), steps),
        "counterexample.targets": targets,
        "counterexample.targets_skipped": skipped,
        "counterexample.targets_per_s": rate(
            targets + skipped, incl.get("counterexample.noninjectivity_degree", 0.0)
        ),
        "curves.winding_numbers.pairs": pairs,
        "curves.winding_numbers.pairs_per_s": rate(pairs, incl.get("curves.winding_numbers", 0.0)),
        "curves.is_jordan.segments": count("curves.is_jordan", "segments"),
        "conformal.nodes": count("conformal.interior_map", "nodes") + count("conformal.exterior_map", "nodes"),
        "fourier.trig_eval.evals": count("fourier.trig_eval", "evals"),
        "fourier.trig_eval_deriv.evals": count("fourier.trig_eval_deriv", "evals"),
        "bench.op_s": incl.get("bench.op", 0.0),
        "bench.ops_per_s": rate(n_ops, incl.get("bench.op", 0.0)),
    }
    out = {}
    for name, unit, _ in METRICS:
        if name in totals:
            value = totals[name]
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):  # a function's, else a layer's self time
            key = name[: -len(".self_s")]
            value = fn_self[key] if key in fn_self else layer_self.get(key, 0.0)
        elif name.endswith(".s"):
            value = incl.get(name[: -len(".s")], 0.0)
        else:
            raise KeyError(name)
        per_op = unit in ("s/op", "count/op")
        out[name] = float(value) / n_ops if per_op and n_ops else float(value)
    return out


def share_report(metrics: dict[str, float], workload: str) -> list[dict]:
    """Each row's share of traced op time on this workload, with its role."""
    op_s = metrics["bench.op_s"]
    report = []
    for row in ROWS:
        if not row.share:
            continue
        share = sum(metrics[m] for m in row.share) / op_s if op_s > 0 else 0.0
        role = "heavy" if workload in row.heavy else "idle" if workload in row.idle else "-"
        report.append(
            {"layer": " + ".join(row.share), "share": share, "role": role, "moves": row.moves}
        )
    return report
