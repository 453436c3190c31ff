"""The end-to-end benchmark's bindings into the package stay valid.

``perf/tracing.py`` wraps public functions of the package by module
and qualified name (its ``TARGETS``) and unpacks ``_reference_loop``'s
positional arguments to name a span.  A rename or a signature change
there does not fail any package test, but a traced benchmark run dies
at start-up.  This module loads ``perf/tracing.py`` by path, read-only,
and checks that every binding resolves and that instrumenting a
simulation and a ``static_acc`` cell works and undoes cleanly.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from repro.core import simulator
from repro.experiments.common import ExperimentContext
from repro.predictors.sizing import make_predictor
from repro.runner import cells

TRACING = Path(__file__).resolve().parent.parent / "perf" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """``perf/tracing.py`` as a module (registered for the dataclasses'
    annotation lookups, removed again afterwards)."""
    if not TRACING.is_file():
        pytest.skip("perf/tracing.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perf_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for target in tracing.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{target.module}.{target.qualname}"


def test_reference_loop_keeps_its_positional_shape():
    # The loop span unpacks exactly (trace, predictor, tracker).
    parameters = inspect.signature(simulator._reference_loop).parameters
    assert list(parameters) == ["trace", "predictor", "tracker"]


def test_instrumented_runs_record_spans_and_undo(tracing):
    originals = (simulator._reference_loop, simulator.measure_accuracy,
                 simulator.try_fast_simulate)
    tracer = tracing.Tracer()
    patch = tracing.instrument(tracer, tracing.TARGETS)
    try:
        ctx = ExperimentContext(trace_length=2000, site_scale=0.02, seed=3)
        trace = ctx.trace("gcc")
        # Called through their modules, so the wrappers are what runs.
        simulator.simulate(trace, make_predictor("gshare", 1024),
                           kernel="reference")
        cells.execute_cell(ctx, cells.Cell.make("gcc", "gshare", 1024,
                                                scheme="static_acc"))
    finally:
        patch.undo()
    names = {span.name for span in tracer.spans}
    assert {"core.loop_dynamic", "profiling.profile", "profiling.accuracy",
            "staticpred.select", "kernels.fast", "runner.cell"} <= names
    assert tracer.counts["core.branches_reference"] == 2000
    assert (simulator._reference_loop, simulator.measure_accuracy,
            simulator.try_fast_simulate) == originals
