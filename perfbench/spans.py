"""In-process span tracing for the conecert benchmark.

Timing wrappers are installed around the public functions of every
``conecert`` module from outside the package: the program's own code is not
changed.  Each wrapped call records a span (name, start, end, parent, trace
id); all spans of one CLI invocation share a trace id.  A span is given a
*layer label*: a named layer entry point (``LAYERS``) starts its own layer,
a public helper called inside a named layer belongs to that layer, and any
other call belongs to ``<module>.other``.  Layer self times therefore
partition the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

MODULES = ("exact", "report", "cones", "tilt", "linearization", "cli")

# Methods are wrapped on their class, which every importing module shares.
METHODS = {
    "exact": {"AngleDeg": ("cos", "sin", "sin_squared")},
    "report": {"ReportEnvelope": ("render",)},
}

# Span name -> layer label.  Functions not listed inherit the label of the
# named layer they are called from, or fall into "<module>.other".
LAYERS = {
    "cli.main": "cli.self",
    "exact.AngleDeg.cos": "exact.trig",
    "exact.AngleDeg.sin": "exact.trig",
    "exact.AngleDeg.sin_squared": "exact.trig",
    "exact.cos_interval": "exact.trig",
    "exact.sin_interval": "exact.trig",
    "exact.angle_range_from_threshold": "exact.window",
    "linearization.remainder_order_check": "linearization.remainder_check",
    "linearization.remainder_ratio_certified": "linearization.ratio_certified",
    "tilt.identity_campaign": "tilt.identity_campaign",
    "tilt.appendix_campaign": "tilt.appendix_campaign",
    "tilt.symbolic_identity_certificates": "tilt.symbolic",
    "tilt.certify_margin_positive": "tilt.margin",
    "cones.brute_force_sup": "cones.oracle",
    "cones.sup_abs_f_two_value": "cones.enum",
    "cones.n_theta_table": "cones.table",
    "cones.optimize_params": "cones.optimize",
    "report.ReportEnvelope.render": "report.render",
}
NAMED = frozenset(LAYERS.values())

# Wrapper cost measurement (span_cost_s): rounds of this many no-op calls.
COST_ROUNDS = 5
COST_CALLS = 20000


def other_label(module: str) -> str:
    return "cli.self" if module == "cli" else f"{module}.other"


# Work counters: span name -> function(bound arguments, result) -> {counter: amount}.
COUNTERS: dict[str, Callable[[dict, object], dict[str, float]]] = {
    "linearization.remainder_order_check": lambda a, r: {
        "linearization.remainder_directions": a["directions"]
    },
    "tilt.identity_campaign": lambda a, r: {
        "tilt.identity_samples": a["samples"],
        "tilt.identity_fallbacks": r.fallback_count,
    },
    "tilt.certify_margin_positive": lambda a, r: {
        "tilt.margin_boxes": r.provenance.get("boxes_checked", 0)
    },
    "cones.brute_force_sup": lambda a, r: {"cones.oracle_samples": a["samples"]},
    "cones.sup_abs_f_two_value": lambda a, r: {"cones.enum_candidates": len(r.candidates)},
    "report.ReportEnvelope.render": lambda a, r: {"report.bytes": len(r.encode())},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: int


@dataclass
class Tracer:
    """Records spans and work counters in memory."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    trace_id: int = 0
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else None, self.trace_id)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in counter(bound.arguments, result).items():
                    self.counters[key] = self.counters.get(key, 0) + amount
            return result

        return functools.wraps(fn)(traced)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions of each conecert module wherever bound.

    A function is rebound in every ``conecert`` module namespace that holds
    it, so callers that imported it by name are traced too.  Returns a
    function that restores every original binding.
    """
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "conecert" or name.startswith("conecert."))
    }
    wrappers: dict[int, Callable] = {}
    restore: list[tuple[object, str, object]] = []

    for short in MODULES:
        mod = modules[f"conecert.{short}"]
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != mod.__name__:
                continue
            wrappers[id(value)] = tracer.wrap(f"{short}.{attr}", value)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                restore.append((cls, meth, original))
                setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth}", original))

    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                restore.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def uninstall() -> None:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

    return uninstall


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for idx, span in enumerate(spans):
        kids = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(idx, ())
            if hi > span.start and lo < span.end
        ]
        result.append((span.end - span.start) - covered(kids))
    return result


def labels(spans: list[Span]) -> list[str]:
    """Layer label of each span (parents precede their children)."""
    out: list[str] = []
    for span in spans:
        label = LAYERS.get(span.name)
        if label is None:
            inherited = out[span.parent] if span.parent is not None else None
            label = inherited if inherited in NAMED and inherited != "cli.self" else None
        if label is None:
            label = other_label(span.name.split(".", 1)[0])
        out.append(label)
    return out


def layer_summary(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Self time per layer label, and entries per layer label.

    An entry is a span whose parent has another label (or no parent): a
    trig evaluation that calls a helper trig function counts once.
    """
    seconds: dict[str, float] = {}
    entries: dict[str, int] = {}
    names = labels(spans)
    for span, label, own in zip(spans, names, self_times(spans)):
        seconds[label] = seconds.get(label, 0.0) + own
        if span.parent is None or names[span.parent] != label:
            entries[label] = entries.get(label, 0) + 1
    return seconds, entries


def span_cost_s() -> float:
    """Seconds the span wrapper adds to one call: wrapped minus bare no-op calls.

    The median of COST_ROUNDS rounds of COST_CALLS calls each; multiplied by
    the number of spans it gives the tracing overhead of a traced run.
    """

    def noop():
        return None

    wrapped = Tracer().wrap("cost.noop", noop)
    per_round = []
    for _ in range(COST_ROUNDS):
        started = time.perf_counter()
        for _ in range(COST_CALLS):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(COST_CALLS):
            wrapped()
        per_round.append((time.perf_counter() - started - bare) / COST_CALLS)
    return max(statistics.median(per_round), 0.0)
