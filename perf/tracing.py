"""Spans recorded from outside the program, and the per-layer metrics.

A :class:`Tracer` keeps spans in memory: name, start, end, parent span
and a shared request id (the cell or request the work belongs to).
:func:`instrument` replaces each :class:`Target` -- a public function
or method of a ``repro`` layer -- with a wrapper that records one span
per call.  A function is replaced on its defining module *and* on every
loaded ``repro.*`` module that bound the same object by name (for
example ``repro.runner.engine`` imports ``execute_cell`` by name), so
no call path escapes the wrapper.  Coroutine functions get coroutine
wrappers, so a span covers the awaited work, not the coroutine's
creation.

Parent links and request ids live in context variables, which asyncio
copies into every task and ``asyncio.to_thread`` into its worker thread,
so concurrent requests in the server never adopt each other's spans.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Span",
    "Target",
    "cell_id",
    "Tracer",
    "TARGETS",
    "instrument",
    "layer_metrics",
    "self_times",
]


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "rid": self.rid,
                **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """In-memory span and counter store, safe across threads and tasks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._parent: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("perf_span", default=None))
        self._rid: contextvars.ContextVar[str | None] = (
            contextvars.ContextVar("perf_rid", default=None))

    @contextmanager
    def span(self, name: str, rid: str | None = None, attrs: dict | None = None):
        """Record one span around the ``with`` body; yields the span."""
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    self._parent.get(),
                    rid if rid is not None else self._rid.get(), attrs or {})
        parent_token = self._parent.set(span.id)
        rid_token = self._rid.set(span.rid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._rid.reset(rid_token)
            self._parent.reset(parent_token)
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def dump(self) -> dict:
        """Spans (in start order) and counters as JSON-ready data."""
        with self._lock:
            spans = sorted(self.spans, key=lambda span: span.start)
            counts = dict(self.counts)
        return {"spans": [span.to_dict() for span in spans], "counts": counts}


@dataclass(frozen=True)
class Target:
    """One public function or method to wrap in a span.

    ``span`` is the span name, or a function of the call's positional
    arguments returning it.  ``rid`` derives the shared request id from
    the arguments; ``attrs`` derives extra span fields; ``after`` sees
    ``(tracer, args, result)`` and records counters.  With
    ``wraps_result`` the target itself is not timed: the callable it
    returns is wrapped instead (for registries that hand out runners).
    """

    module: str
    qualname: str
    span: str | Callable[[tuple], str]
    rid: Callable[[tuple], str] | None = None
    attrs: Callable[[tuple], dict] | None = None
    after: Callable[[Tracer, tuple, object], None] | None = None
    wraps_result: bool = False

    def span_name(self, args: tuple) -> str:
        return self.span(args) if callable(self.span) else self.span


def _wrap(tracer: Tracer, target: Target, func):
    def opened(args):
        return tracer.span(
            target.span_name(args),
            rid=target.rid(args) if target.rid else None,
            attrs=target.attrs(args) if target.attrs else None,
        )

    if target.wraps_result:
        inner = Target(target.module, target.qualname, target.span)

        @functools.wraps(func)
        def factory(*args, **kwargs):
            return _wrap(tracer, inner, func(*args, **kwargs))
        return factory

    if inspect.iscoroutinefunction(func):
        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            with opened(args):
                result = await func(*args, **kwargs)
            if target.after:
                target.after(tracer, args, result)
            return result
        return async_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with opened(args):
            result = func(*args, **kwargs)
        if target.after:
            target.after(tracer, args, result)
        return result
    return wrapper


class Patch:
    """The replacements :func:`instrument` made; :meth:`undo` reverts them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


#: Modules that bind targets by name; they are loaded before wrapping,
#: because only loaded modules can be rebound.
PRELOAD = ("repro.experiments.registry", "repro.runner", "repro.service.server",
           "repro.service.client", "repro.cli")


def instrument(tracer: Tracer, targets) -> Patch:
    """Wrap every target, on its owner and on every by-name binding."""
    for name in PRELOAD:
        importlib.import_module(name)
    patch = Patch()
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                patch.replace(owner, attr,
                              type(raw)(_wrap(tracer, target, raw.__func__)))
            else:
                patch.replace(owner, attr, _wrap(tracer, target, raw))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, target, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    patch.replace(loaded, binding, wrapper)
    return patch


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        low = max(start, reach)
        if end > low:
            total += end - low
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), keyed by span id."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = [(max(child.start, span.start), min(child.end, span.end))
                   for child in children.get(span.id, ())]
        result[span.id] = (span.end - span.start) - _union_length(covered)
    return result


# -- the repro layers ---------------------------------------------------------

def cell_id(cell) -> str:
    """A readable identity for a cell, shared by its spans."""
    return (f"{cell.program}/{cell.predictor}/{cell.size_bytes}/"
            f"{cell.scheme}/{cell.measure_input}/{cell.profile_input}/"
            f"{int(cell.track_collisions)}")


def _loop_span(args) -> str:
    from repro.core.combined import CombinedPredictor

    _, predictor, tracker = args
    if tracker is not None:
        return "core.loop_tracked"
    if isinstance(predictor, CombinedPredictor):
        return "core.loop_combined"
    return "core.loop_dynamic"


def _counter(name: str, amount: Callable[[tuple, object], float]):
    def after(tracer: Tracer, args: tuple, result) -> None:
        tracer.count(name, amount(args, result))
    return after


def _hit_counter(prefix: str):
    def after(tracer: Tracer, args: tuple, result) -> None:
        tracer.count(prefix + ".calls")
        if result is not None:
            tracer.count(prefix + ".hits")
    return after


def _selected(tracer: Tracer, args: tuple, hints) -> None:
    tracer.count("staticpred.static_sites", hints.static_count())


_SELECTORS = ("select_static_95", "select_static_acc", "select_static_fac",
              "select_static_collision")

#: Every span the benchmark records, by layer (module names under
#: ``src/repro``).  Each one feeds a metric in :func:`layer_metrics`.
TARGETS = (
    Target("repro.workloads.generator", "build_workload", "workloads.build"),
    Target("repro.workloads.generator", "SyntheticWorkload.execute",
           "workloads.execute",
           after=_counter("workloads.branches_generated",
                          lambda args, trace: len(trace))),
    Target("repro.workloads.trace", "BranchTrace.arrays", "workloads.arrays"),
    Target("repro.workloads.stats", "characterize", "workloads.characterize"),
    Target("repro.profiling.profile", "ProgramProfile.from_trace",
           "profiling.profile"),
    Target("repro.profiling.accuracy", "measure_accuracy", "profiling.accuracy"),
    *(Target("repro.staticpred.selection", name, "staticpred.select",
             after=_selected) for name in _SELECTORS),
    Target("repro.kernels", "try_fast_simulate", "kernels.fast",
           after=_hit_counter("kernels.fast")),
    Target("repro.core.simulator", "_reference_loop", _loop_span,
           after=_counter("core.branches_reference",
                          lambda args, result: len(args[0]))),
    Target("repro.runner.cells", "execute_cell", "runner.cell",
           rid=lambda args: cell_id(args[1]),
           after=_counter("runner.cells", lambda args, result: 1)),
    Target("repro.runner.engine", "CellExecutor.execute", "runner.execute",
           attrs=lambda args: {"cells": [cell_id(c) for c in args[1]]}),
    Target("repro.runner.cache", "ResultCache.get_result", "runner.cache_get",
           after=_hit_counter("runner.cache")),
    Target("repro.runner.cache", "ResultCache.get_hints", "runner.cache_get",
           after=_hit_counter("runner.hints")),
    Target("repro.runner.cache", "ResultCache.put_result", "runner.cache_put"),
    Target("repro.runner.cache", "ResultCache.put_hints", "runner.cache_put"),
    Target("repro.experiments.registry", "synthesize", "experiments.synthesize"),
    Target("repro.experiments.registry", "get_experiment", "experiments.serial",
           wraps_result=True),
    Target("repro.service.batching", "BatchingScheduler.submit",
           "service.submit", rid=lambda args: cell_id(args[1])),
    Target("repro.service.protocol", "decode", "service.decode",
           after=_counter("service.decode.calls", lambda args, result: 1)),
    Target("repro.service.protocol", "encode", "service.encode",
           after=_counter("service.encode.calls", lambda args, result: 1)),
)

#: Per-layer metric -> unit.  The names match ``per_layer`` in
#: BENCHMARK.json; a layer a workload does not exercise reads 0.
LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.execute_s": "s",
    "workloads.branches_generated": "count",
    "workloads.arrays_s": "s",
    "workloads.characterize_s": "s",
    "profiling.profile_s": "s",
    "profiling.accuracy_s": "s",
    "staticpred.select_s": "s",
    "staticpred.static_sites": "count",
    "kernels.fast_s": "s",
    "kernels.fast_ratio": "fraction",
    "core.loop_combined_s": "s",
    "core.loop_tracked_s": "s",
    "core.loop_dynamic_s": "s",
    "core.branches_reference": "count",
    "runner.cell_s": "s",
    "runner.cells": "count",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.cache_hit_ratio": "fraction",
    "runner.hint_hit_ratio": "fraction",
    "experiments.synthesize_s": "s",
    "experiments.serial_s": "s",
    "service.hit_ratio": "fraction",
    "service.batches": "count",
    "service.batch_cells_mean": "count",
    "service.execute_s": "s",
    "service.miss_wait_ms": "ms",
    "service.decode_us": "us",
    "service.encode_us": "us",
    "service.rejected": "count",
    "service.timeouts": "count",
    "service.failures": "count",
}

#: Spans whose self time is a metric; the service's are derived below.
_SELF_TIME_SPANS = tuple(name[:-2] for name in LAYER_UNITS
                         if name.endswith("_s") and not name.startswith("service."))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _miss_waits_ms(spans: list[Span]) -> list[float]:
    """Submit start to the start of the batch that executed the cell."""
    submits: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        if span.name == "service.submit":
            submits[span.rid].append(span.start)
    waits = []
    for span in spans:
        if span.name != "runner.execute":
            continue
        for cell in span.attrs.get("cells", ()):
            started = [start for start in submits.get(cell, ())
                       if start <= span.start]
            if started:
                waits.append((span.start - max(started)) * 1000.0)
    return waits


def layer_metrics(spans: list[Span], counts: dict[str, float],
                  scheduler: dict | None = None) -> dict[str, float]:
    """Every per-layer metric from one traced run.

    ``scheduler`` is the service ``stats`` reply's scheduler section
    (serve-mixed only); the service counters come from it.
    """
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span.name] += own[span.id]
    metrics = {f"{name}_s": by_name[name] for name in _SELF_TIME_SPANS}
    metrics.update({
        "workloads.branches_generated": counts.get("workloads.branches_generated", 0),
        "staticpred.static_sites": counts.get("staticpred.static_sites", 0),
        "kernels.fast_ratio": _ratio(counts.get("kernels.fast.hits", 0),
                                     counts.get("kernels.fast.calls", 0)),
        "core.branches_reference": counts.get("core.branches_reference", 0),
        "runner.cells": counts.get("runner.cells", 0),
        "runner.cache_hit_ratio": _ratio(counts.get("runner.cache.hits", 0),
                                         counts.get("runner.cache.calls", 0)),
        "runner.hint_hit_ratio": _ratio(counts.get("runner.hints.hits", 0),
                                        counts.get("runner.hints.calls", 0)),
        "service.decode_us": 1e6 * _ratio(by_name["service.decode"],
                                          counts.get("service.decode.calls", 0)),
        "service.encode_us": 1e6 * _ratio(by_name["service.encode"],
                                          counts.get("service.encode.calls", 0)),
    })
    waits = _miss_waits_ms(spans)
    metrics["service.miss_wait_ms"] = statistics.median(waits) if waits else 0.0
    # The executor's busy time: batches run inside it, so its self time
    # alone would hide the work the service is waiting on.
    metrics["service.execute_s"] = sum(
        span.end - span.start for span in spans
        if span.name == "runner.execute") if scheduler is not None else 0.0
    sched = scheduler or {}
    metrics.update({
        "service.hit_ratio": _ratio(sched.get("cache_hits", 0),
                                    sched.get("submitted", 0)),
        "service.batches": sched.get("batches", 0),
        "service.batch_cells_mean": _ratio(sched.get("batched_cells", 0),
                                           sched.get("batches", 0)),
        "service.rejected": sched.get("rejected", 0),
        "service.timeouts": sched.get("timeouts", 0),
        "service.failures": sched.get("failures", 0),
    })
    return {name: metrics[name] for name in LAYER_UNITS}
